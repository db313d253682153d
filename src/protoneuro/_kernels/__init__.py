"""Numeric kernels: peak finding, minimum-distance pruning, LIF and rate loops,
and the search for a simulation's first non-finite value.

The implementations live in ``pure``. Callers reach them through this
package's attributes (``_kernels.lif_run`` and so on), so a profiler can
wrap a kernel by patching one attribute here.
"""

from .pure import first_nonfinite, lif_run, local_maxima, prune_min_distance, rate_run


def backend():
    """Name of the kernel backend: always ``pure``."""
    return "pure"

