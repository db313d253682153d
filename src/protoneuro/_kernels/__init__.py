"""Numeric kernels: compiled fast path with a pure NumPy fallback.

The compiled Cython module is preferred when it was built; set
PROTONEURO_PURE_PYTHON=1 to force the fallback. Both implementations are
importable directly (``pure`` / ``_native``) for side-by-side testing and
benchmarking, and both return equal results. The compiled module runs every
kernel as a plain loop, minimum-distance pruning included; ``pure`` runs the
loops of the two simulators, and vectorises maxima finding and most of the
pruning (see ``pure.prune_min_distance``).
"""

import os

from . import pure

_impl = pure
_backend = "pure"

if not os.environ.get("PROTONEURO_PURE_PYTHON"):
    try:
        from . import _native

        _impl = _native
        _backend = "native"
    except ImportError:
        pass


def backend():
    """Name of the kernel backend in use: ``native`` or ``pure``."""
    return _backend


local_maxima = _impl.local_maxima
prune_min_distance = _impl.prune_min_distance
lif_run = _impl.lif_run
rate_run = _impl.rate_run
