"""Time-series ingestion, persistence and synthesis.

The on-disk format is deliberately tiny and bit-stable:

    time_s,value
    # unit=microampere
    # label=L-Glu:L-Asp
    0,0.000123456789
    1,0.000234567891

The first line is always the ``time_s,value`` header. Comment lines starting
with ``#`` carry ``unit`` (always written) and ``label`` (written only when
non-empty) and may appear anywhere after the header. Numbers are printed
with 9 significant digits, which makes write -> read -> write byte-identical
and read/write a relative-1e-9 round trip.

Files of a million rows are common, so the numeric body is parsed and
formatted in blocks (``_csvio``) rather than one Python call per row. The
reader takes every body one way, in one pass of 64 KiB chunks: each run of
rows between metadata lines goes to one ``np.loadtxt`` call, and the rows
go into one buffer, sized from the file size, whose columns the series
adopts, so each sample is held once. A metadata line among the rows costs
one more ``np.loadtxt`` call, not a second pass over its chunk. Only a run
the block parser does not take (a bad line, or a blank line of spaces) goes
through the line loop, which alone reports parse errors, so messages do
not depend on the fast path. A row the series checks reject (a non-finite
number, a time not after the one before it) is looked for, and its line
counted in a second read, only once the checks have failed, so a good file
pays nothing for the line.

Recorded traces the toolkit cannot obtain from hardware are synthesised as
Gaussian bumps on a noisy baseline, sampled once per second to match the
data-logger convention used throughout.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _csvio, _inputs
from .errors import ParseError, ValidationError

UNIT_MICROAMPERE = "microampere"
UNIT_VOLT = "volt"
_UNITS = (UNIT_MICROAMPERE, UNIT_VOLT)

HEADER = "time_s,value"

#: Cells the synthesiser evaluates at once: of the (spikes x window) grid on
#: which bumps are evaluated, and of the noise drawn per block.
_BUMP_GRID_CELLS = 1 << 16


@dataclass(eq=False)
class TimeSeries:
    """A sampled trace: strictly increasing times plus finite values.

    Instances are treated as immutable; the backing arrays are marked
    read-only so they can be shared freely across threads. The constructor
    copies the arrays it is given; the reader and the synthesiser hand over
    the arrays they have just built (``_adopt``), so a series read or made
    here is held once.
    """

    times: np.ndarray
    values: np.ndarray
    unit: str = UNIT_MICROAMPERE
    label: str = ""

    def __post_init__(self):
        self._own(np.array(self.times, dtype=np.float64),
                  np.array(self.values, dtype=np.float64))

    @classmethod
    def _adopt(cls, times, values, unit=UNIT_MICROAMPERE, label=""):
        """A series holding the float64 arrays ``times`` and ``values`` as they
        are, with the constructor's checks; the caller hands them over and
        keeps no writeable view of them."""
        series = cls.__new__(cls)
        series.unit, series.label = unit, label
        series._own(times, values)
        return series

    def _own(self, t, v):
        """Check ``t`` and ``v`` and keep them, read-only."""
        if t.ndim != 1 or v.ndim != 1:
            raise ValidationError("times and values must be one-dimensional")
        if t.size != v.size:
            raise ValidationError(f"times ({t.size}) and values ({v.size}) differ in length")
        if t.size < 1:
            raise ValidationError("a series needs at least one sample")
        if not np.all(np.isfinite(t)):
            raise ValidationError("times contain non-finite entries")
        if not np.all(np.isfinite(v)):
            raise ValidationError("values contain non-finite entries")
        if not np.all(t[1:] > t[:-1]):
            raise ValidationError("times must be strictly increasing")
        if self.unit not in _UNITS:
            raise ValidationError(f"unit must be one of {_UNITS}, got {self.unit!r}")
        t.flags.writeable = False
        v.flags.writeable = False
        self.times = t
        self.values = v

    def __len__(self):
        return self.times.size

    @property
    def duration(self) -> float:
        """Elapsed time between the first and last sample."""
        return float(self.times[-1] - self.times[0])


def read_timeseries_csv(path) -> TimeSeries:
    """Parse a series file, validating monotone times and finite values.

    The header must be the first line; ``#`` lines anywhere after it set
    ``unit`` and ``label`` (the last one wins), and a bad line (one that
    does not parse, a non-finite number, a time not after the one before
    it) is a ParseError naming the file and the line.
    """
    meta = {"unit": UNIT_MICROAMPERE, "label": ""}

    def comment(text):
        text = text[1:].strip()
        for key in meta:
            if text.startswith(key + "="):
                # Interned, a unit is this module's own constant: a new string
                # made among a chunk's line strings would keep one of the
                # allocator's 1 MiB arenas resident (1 MB of detect's peak RSS).
                meta[key] = sys.intern(text[len(key) + 1:])

    with _inputs.blamed(path):
        with _inputs.open_text(path) as fh:
            header, rest, line = _csvio.read_header(fh)
            if header.strip() != HEADER:
                raise ParseError(f"expected header {HEADER!r}", line=1)
            rows = _csvio.read_rows(fh, 2, rest, line, comment=comment)
        try:
            return TimeSeries._adopt(rows[:, 0], rows[:, 1], unit=meta["unit"],
                                     label=meta["label"])
        except ValidationError:
            bad = _first_bad_row(rows[:, 0], rows[:, 1])
            if bad is None:
                raise
            raise ParseError(bad[1], line=_csvio.row_line(path, bad[0], comments=True)) from None


def _first_bad_row(times, values):
    """(row, message) for the row that fails the first of ``TimeSeries``'s
    row checks to fail, in its order (finite times, finite values, increasing
    times), or None when every row passes them."""
    for column, name in ((times, "time_s"), (values, "value")):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            return bad[0], f"{name} is {column[bad[0]]:.9g}, not a finite number"
    bad = np.flatnonzero(~(times[1:] > times[:-1]))
    if bad.size:
        row = bad[0] + 1
        return row, (f"times must be strictly increasing; {times[row]:.9g} follows "
                     f"{times[row - 1]:.9g}")
    return None


def write_timeseries_csv(series: TimeSeries, path) -> None:
    """Write a series so that reading it back reproduces the series.

    Values carry 9 significant digits (relative quantisation below 5e-9);
    times carry 12 so long recordings keep sub-ulp-of-a-second stamps.
    """
    with open(path, "wb") as fh:
        fh.write(f"{HEADER}\n# unit={series.unit}\n".encode())
        if series.label:
            fh.write(f"# label={series.label}\n".encode())
        _csvio.write_rows(fh, "%.12g,%.9g\n", series.times, series.values)


def stack_values(series_list, labels) -> np.ndarray:
    """The ``(len(labels), n)`` potential matrix of ``series_list``.

    Each series is cut to the shortest length ``n`` and becomes the row of its
    label; rows after the last series are zero. A series whose times over that
    length differ from the first series' is a ValidationError naming its label.
    """
    if len(series_list) > len(labels):
        raise ValidationError(f"{len(series_list)} series for {len(labels)} labels")
    n = min(len(s) for s in series_list)
    base = series_list[0].times[:n]
    matrix = np.zeros((len(labels), n))
    for row, (series, label) in enumerate(zip(series_list, labels)):
        if not np.array_equal(series.times[:n], base):
            raise ValidationError(f"{label}: time base differs from the first input")
        matrix[row] = series.values[:n]
    return matrix


@dataclass(frozen=True)
class SyntheticSpikeSpec:
    """Recipe for a surrogate spiky trace.

    Spike placement comes either from explicit ``spike_times`` or from a
    (count, mean_isi, jitter_fraction) triple. In the latter case the gaps
    are jittered uniformly by +-jitter_fraction and then rescaled so the
    realised mean inter-spike interval equals ``mean_isi`` exactly; the
    first spike sits one mean interval after t=0. Each spike is a Gaussian
    bump of the given amplitude whose half width at half maximum is
    ``spike_half_width``. Sampling is one sample per second.
    """

    duration: float
    spike_times: tuple = None
    count: int = None
    mean_isi: float = None
    jitter_fraction: float = 0.0
    spike_amplitude: float = 0.001
    spike_half_width: float = 1.5
    baseline: float = 0.0
    noise_sd: float = 0.0
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        if self.spike_times is not None:
            object.__setattr__(self, "spike_times", tuple(float(t) for t in self.spike_times))
        # The duration last: a command line derives a missing duration from
        # the spike times, mean_isi or half width, when those were given.
        for t in self.spike_times or ():
            if not math.isfinite(t):
                raise ValidationError(f"spike_times must be finite, got {t!r}")
        for name in ("mean_isi", "jitter_fraction", "spike_amplitude", "spike_half_width",
                     "baseline", "noise_sd", "duration"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.spike_amplitude <= 0:
            raise ValidationError("spike_amplitude must be > 0")
        if self.spike_half_width <= 0:
            raise ValidationError("spike_half_width must be > 0")
        if self.noise_sd < 0:
            raise ValidationError("noise_sd must be >= 0")
        st = self.spike_times
        if st is not None:
            if self.count is not None or self.mean_isi is not None:
                raise ValidationError("give either spike_times or (count, mean_isi), not both")
            if any(b <= a for a, b in zip(st, st[1:])):
                raise ValidationError("spike_times must be strictly increasing")
        else:
            if self.count is None:
                raise ValidationError("need spike_times or (count, mean_isi)")
            if self.count < 0:
                raise ValidationError("count must be >= 0")
            if self.count > 0 and (self.mean_isi is None or self.mean_isi <= 0):
                raise ValidationError("mean_isi must be > 0")
            if not 0 <= self.jitter_fraction < 1:
                raise ValidationError("jitter_fraction must be in [0, 1)")
        if self.duration is None or self.duration <= 0:
            raise ValidationError(f"duration must be > 0, got {self.duration!r}")
        if st and (st[0] < 0 or st[-1] > self.duration):
            raise ValidationError("spike_times must lie within [0, duration]")


def _placed_spike_times(spec: SyntheticSpikeSpec, rng: "np.random.Generator") -> np.ndarray:
    """The spike times of ``spec``; ``rng`` draws the jitter of two or more
    spikes placed by count (otherwise it may be None)."""
    if spec.spike_times is not None:
        return np.asarray(spec.spike_times, dtype=np.float64)
    if spec.count == 0:
        return np.empty(0)
    if spec.count == 1:
        return np.array([spec.mean_isi])
    gaps = spec.mean_isi * (1.0 + spec.jitter_fraction * rng.uniform(-1, 1, spec.count - 1))
    # Rescale so the realised mean ISI is exact, not just exact in expectation.
    gaps *= (spec.count - 1) * spec.mean_isi / gaps.sum()
    return spec.mean_isi + np.concatenate(([0.0], np.cumsum(gaps)))


def synthesize_spiky_series(spec: SyntheticSpikeSpec) -> TimeSeries:
    """Deterministic surrogate trace for a spec (the seed is part of the spec).

    The jitter and then the noise are drawn from one generator, made at the
    first draw: a spec that draws nothing does not load ``numpy.random``.
    """
    rng = functools.cache(lambda: np.random.default_rng(spec.seed))
    jittered = spec.spike_times is None and spec.count > 1
    spike_times = _placed_spike_times(spec, rng() if jittered else None)
    if spike_times.size and spike_times[-1] > spec.duration:
        raise ValidationError(
            f"generated spikes extend to {spike_times[-1]:.1f} s, beyond duration {spec.duration}"
        )
    times = np.arange(math.floor(spec.duration) + 1, dtype=np.float64)
    values = np.full(times.size, spec.baseline)
    sigma = spec.spike_half_width / math.sqrt(2.0 * math.log(2.0))
    lo = np.searchsorted(times, spike_times - 6 * sigma)
    hi = np.searchsorted(times, spike_times + 6 * sigma)
    width = int((hi - lo).max(initial=0))
    offsets = np.arange(width)
    # Spikes go in row blocks, so a wide bump cannot make the grid outgrow memory.
    step = max(1, _BUMP_GRID_CELLS // max(width, 1))
    for s in range(0, spike_times.size, step):
        ts = spike_times[s:s + step, None]
        inside = offsets < (hi - lo)[s:s + step, None]
        pos = np.minimum(lo[s:s + step, None] + offsets, times.size - 1)
        bump = spec.spike_amplitude * np.exp(-((times[pos] - ts) ** 2) / (2 * sigma**2))
        # Unbuffered and in index order: overlapping bumps add spike by spike.
        np.add.at(values, pos[inside], bump[inside])
    if spec.noise_sd > 0:
        # values + noise_sd * standard_normal(n), drawn and added block by
        # block: the generator fills a block as it fills a whole array.
        noise = np.empty(min(_BUMP_GRID_CELLS, times.size))
        for start in range(0, times.size, noise.size):
            block = noise[:times.size - start]
            rng().standard_normal(out=block)
            block *= spec.noise_sd
            values[start:start + block.size] += block
    return TimeSeries._adopt(times, values, unit=UNIT_MICROAMPERE, label=spec.label)
