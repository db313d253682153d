"""In-process span tracing of protoneuro, done entirely from the outside.

``Tracer.patched()`` replaces, for the duration of a ``with`` block, every
public module-level function of the traced protoneuro modules and the four
kernel entry points with a wrapper that records a span (name, start, end,
parent) and, for some of them, work counts. Module attributes are patched,
so calls made through ``module.function`` (which is how protoneuro calls
across its modules) are traced; nothing in the program is edited.

A span's self time is its duration minus the part of its interval covered
by its child spans (overlapping children are merged first).
"""

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass

TRACED_MODULES = ("signals", "spikes", "networks", "coding", "dpv", "qsar", "config")
KERNELS = ("local_maxima", "prune_min_distance", "lif_run", "rate_run")


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int = None
    end: float = None


#: Work counts recorded at layer boundaries: span name -> [(counter, fn)]
#: where fn(args, result) gives the amount to add.
COUNTERS = {
    "signals.read_timeseries_csv": [("signals.read_timeseries_csv.rows",
                                     lambda a, r: len(r))],
    "signals.write_timeseries_csv": [("signals.write_timeseries_csv.rows",
                                      lambda a, r: len(a[0]))],
    "kernels.local_maxima": [("kernels.local_maxima.samples", lambda a, r: len(a[0])),
                              ("spikes.maxima", lambda a, r: len(r))],
    "kernels.prune_min_distance": [("spikes.above_threshold", lambda a, r: len(a[0])),
                                    ("spikes.kept", lambda a, r: len(r))],
    "kernels.lif_run": [("kernels.lif_run.neuron_steps", lambda a, r: a[1].size),
                         ("kernels.lif_run.spikes", lambda a, r: len(r[2]))],
    "kernels.rate_run": [("kernels.rate_run.unit_steps", lambda a, r: a[1].size)],
    "networks.write_trace_csv": [("networks.write_trace_csv.rows", lambda a, r: (
        a[0].membrane_potentials if a[0].membrane_potentials is not None
        else a[0].unit_activities).size)],
}
COUNTER_NAMES = tuple(name for entries in COUNTERS.values() for name, _ in entries)


class Tracer:
    """Collects spans and counts in memory; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.kernel_calls = []  # (kernel name, args, kwargs) when recording
        self.record_kernel_args = False
        self.span_names = set()
        self._stack = []

    def reset(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.kernel_calls = []

    @contextlib.contextmanager
    def span(self, name):
        s = Span(len(self.spans), name, time.perf_counter(),
                 self._stack[-1].id if self._stack else None)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name):
        counters = COUNTERS.get(name, ())
        kernel = name.startswith("kernels.")
        self.span_names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            for counter, amount in counters:
                self.counts[counter] += amount(args, result)
            if kernel and self.record_kernel_args:
                self.kernel_calls.append((name.split(".", 1)[1], args, kwargs))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap the traced functions of the imported protoneuro package."""
        targets = []
        for mod_name in TRACED_MODULES:
            module = importlib.import_module(f"protoneuro.{mod_name}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    targets.append((module, attr, f"{mod_name}.{attr}"))
        kernels = importlib.import_module("protoneuro._kernels")
        targets += [(kernels, attr, f"kernels.{attr}") for attr in KERNELS]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
        try:
            for (module, attr, name), (_, _, fn) in zip(targets, originals):
                setattr(module, attr, self.wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its children's clipped intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - covered_length([iv for iv in clipped if iv[1] > iv[0]])
    return out


def self_time_by_name(spans):
    """Summed self time per span name."""
    names = {s.id: s.name for s in spans}
    totals = {}
    for span_id, value in self_times(spans).items():
        totals[names[span_id]] = totals.get(names[span_id], 0.0) + value
    return totals


def parse_importtime(stderr):
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split(":", 1)[1].split("|")
        out[name.strip()] = int(cumulative) / 1e6
    return out
