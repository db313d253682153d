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
rows between metadata lines goes to one ``np.loadtxt`` call. A metadata
line among the rows costs one more ``np.loadtxt`` call, not a second pass
over its chunk. Only a run the block parser does not take (a bad line, or
a blank line of spaces) goes through the line loop, which alone reports
parse errors, so messages do not depend on the fast path.
``read_timeseries_csv`` puts the rows into one buffer, sized from the file
size, whose columns the series adopts, so each sample is held once;
``SeriesFile`` hands each block of rows on as it is parsed, so ``detect``
holds a chunk of the file, not the series. The row rules (finite times,
finite values, strictly increasing times) are stated once, in
``_RowRules``, which is fed blocks and names the first row that breaks one,
in rule order, the same on any split of the rows; a TimeSeries feeds it one
block. Only then does a reader count that row's line, in a second read, so
a good file pays nothing for the line.

Recorded traces the toolkit cannot obtain from hardware are synthesised as
Gaussian bumps on a noisy baseline, sampled once per second to match the
data-logger convention used throughout. ``SyntheticSeries`` makes the
series 16,384 samples at a time, each block with the bumps that reach into
it and its share of the noise draw, so ``synth`` checks and then writes a
block at a time and never holds the series.
"""

import contextlib
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

#: Samples of a synthesised block, and cells of the (spikes x window) grid on
#: which the synthesiser evaluates a block's bumps at once. Blocks and grid
#: rows only split the same sums, so the values do not depend on the size.
_BUMP_GRID_CELLS = 1 << 14


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
        """Check ``t`` and ``v`` and keep them, read-only. The first row to break
        a row rule, taken in order, is a ParseError carrying that ``row``."""
        if t.ndim != 1 or v.ndim != 1:
            raise ValidationError("times and values must be one-dimensional")
        if t.size != v.size:
            raise ValidationError(f"times ({t.size}) and values ({v.size}) differ in length")
        rules = _RowRules()
        rules.add(t, v)
        rules.check()
        _check_unit(self.unit)
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

    def blocks(self):
        """The series as one (times, values) block, for code that takes a stream."""
        return [(self.times, self.values)]


class _RowRules:
    """The row rules of a series fed in (times, values) blocks: finite times,
    finite values, strictly increasing times.

    ``add`` records the first row that breaks each rule, carrying the last
    time over to the next block; ``check`` raises, after the last block, the
    first of those breaks in rule order as a ParseError carrying its ``row``
    (or a ValidationError for a series of no sample). So the error is the
    same however the rows are split into blocks.
    """

    def __init__(self):
        self._rows = 0
        self._last = None  # the last time of the blocks so far
        self._breaks = [None, None, None]  # (row, message) per rule

    def add(self, t, v):
        # No bool array outlives its check: a block can hold a million rows.
        for rule, (column, name) in enumerate(((t, "time_s"), (v, "value"))):
            if self._breaks[rule] is None and not np.isfinite(column).all():
                row = int(np.argmin(np.isfinite(column)))
                self._breaks[rule] = (self._rows + row,
                                      f"{name} is {column[row]:.9g}, not a finite number")
        if self._breaks[2] is None and t.size:
            row = None
            if self._last is not None and not t[0] > self._last:
                row, before = 0, self._last
            elif not (t[1:] > t[:-1]).all():
                row = int(np.argmin(t[1:] > t[:-1])) + 1
                before = t[row - 1]
            if row is not None:
                self._breaks[2] = (self._rows + row, "times must be strictly increasing; "
                                   f"{t[row]:.9g} follows {before:.9g}")
        if t.size:
            self._last = t[-1]
        self._rows += t.size

    def check(self):
        if self._rows < 1:
            raise ValidationError("a series needs at least one sample")
        for fault in self._breaks:
            if fault is not None:
                raise ParseError(fault[1], row=fault[0])


def _check_unit(unit, line=None):
    """Reject a ``unit`` outside ``_UNITS``; ``line`` is the line that set it."""
    if unit not in _UNITS:
        raise ParseError(f"unit must be one of {_UNITS}, got {unit!r}", line=line)


def _check_header(header, line):
    if not (line == 1 and header.strip() == HEADER):
        raise ParseError(f"expected header {HEADER!r}", line=1)


class SeriesFile:
    """A series file read as a stream of (times, values) blocks.

    ``blocks()`` reads the file in one pass, as ``read_timeseries_csv`` does,
    and yields each block of rows as it is parsed, so no more than a chunk of
    the file is held. The row rules are checked over the blocks and their
    first break raised after the last one; a line that does not parse is
    raised as it is met. ``unit`` and ``label`` hold the metadata read so
    far, the file's own once the last block is out.
    """

    def __init__(self, path):
        self.path = path
        self.unit, self.label = UNIT_MICROAMPERE, ""

    def _comment(self, text, line):
        text = text[1:].strip()
        for key in ("unit", "label"):
            if text.startswith(key + "="):
                # Interned, a unit is this module's own constant: a new string
                # made among a chunk's line strings would keep one of the
                # allocator's 1 MiB arenas resident (1 MB of detect's peak RSS).
                setattr(self, key, sys.intern(text[len(key) + 1:]))
        _check_unit(self.unit, line)

    @contextlib.contextmanager
    def _reading(self):
        """The open file; an error raised in the block names the path, and a
        row rule's break the line of its row."""
        self.unit, self.label = UNIT_MICROAMPERE, ""
        with _inputs.blamed(self.path):
            try:
                with _inputs.open_text(self.path) as fh:
                    yield fh
            except ParseError as exc:
                if exc.row is None:
                    raise
                raise ParseError(exc.args[0], line=_csvio.row_line(self.path, exc.row)) from None

    def blocks(self):
        rules = _RowRules()
        with self._reading() as fh:
            for rows, _ in _csvio.row_blocks(fh, _check_header, self._comment):
                rules.add(rows[:, 0], rows[:, 1])
                yield rows[:, 0], rows[:, 1]
            rules.check()


def read_timeseries_csv(path) -> TimeSeries:
    """Parse a series file, validating monotone times and finite values.

    The header must be the first line; ``#`` lines anywhere after it set
    ``unit`` and ``label`` (the last one wins), and a bad line (one that
    does not parse, an unknown unit, a non-finite number, a time not after
    the one before it) is a ParseError naming the file and the line.
    """
    source = SeriesFile(path)
    with source._reading() as fh:
        _, rows = _csvio.read_table(fh, _check_header, source._comment)
        return TimeSeries._adopt(rows[:, 0], rows[:, 1], unit=source.unit, label=source.label)


def write_timeseries_csv(series, path) -> None:
    """Write a series so that reading it back reproduces the series.

    ``series`` is a TimeSeries or a stream of one (``SyntheticSeries``): its
    ``unit`` and ``label`` go first, then the rows of each of its blocks.
    Values carry 9 significant digits (relative quantisation below 5e-9);
    times carry 12 so long recordings keep sub-ulp-of-a-second stamps.
    """
    with open(path, "wb") as fh:
        fh.write(f"{HEADER}\n# unit={series.unit}\n".encode())
        if series.label:
            fh.write(f"# label={series.label}\n".encode())
        for times, values in series.blocks():
            _csvio.write_rows(fh, "%.12g,%.9g\n", times, values)


class ValueStack:
    """The potential matrix of series fed in one at a time.

    ``matrix(labels)`` cuts each series to the shortest length ``n`` and makes
    it the row of its label; rows after the last series are zero. A series
    whose times over that length differ from the first series' is a
    ValidationError naming its label, raised there, after every series is in.

    A stack keeps no series, only copies of what the matrix uses: the first
    series' times and each series' values, cut to the shortest length seen so
    far, and how many of each series' leading times equal the first's. (A
    column view would keep the reader's whole two-column buffer alive.) So a
    caller that drops each series once it is added holds one at a time.
    """

    def __init__(self):
        self._base = None  # the first series' times
        self._rows = []  # each series' values
        self._agree = []  # each series' count of leading times equal to _base

    def add(self, series):
        """Take the values of ``series``, and count its times that agree with the first's."""
        if self._base is None:
            self._base = series.times.copy()
        n = min(len(series), self._base.size)
        if n < self._base.size:
            self._base = self._base[:n].copy()
            for row, values in enumerate(self._rows):
                self._rows[row] = values[:n].copy()
        differ = series.times[:n] != self._base
        self._agree.append(int(differ.argmax()) if differ.any() else n)
        self._rows.append(series.values[:n].copy())

    def matrix(self, labels) -> np.ndarray:
        """The ``(len(labels), n)`` matrix. It takes over the rows, so that they
        are not held twice: the stack is empty afterwards."""
        if self._base is None:
            raise ValidationError("no series to stack")
        if len(self._rows) > len(labels):
            raise ValidationError(f"{len(self._rows)} series for {len(labels)} labels")
        n = self._base.size
        for agree, label in zip(self._agree, labels):
            if agree < n:
                raise ValidationError(f"{label}: time base differs from the first input")
        rows, self._base, self._rows, self._agree = self._rows, None, [], []
        matrix = np.zeros((len(labels), n))
        for row in range(len(rows)):
            matrix[row] = rows[row]
            rows[row] = None
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
    ``spike_half_width``. Sampling is one sample per second. A missing
    ``duration`` is the last spike time + 5 half widths, else (count + 1) * mean_isi.
    """

    duration: float = None
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
        most = _inputs.max_items(8)  # float64 spike times, or samples one a second
        if self.count is not None and self.count > most:
            raise ValidationError(f"count must be at most {most}, got {self.count}")
        # A missing duration is derived first and checked last: its sources are named first.
        if self.duration is None and self.spike_times:
            object.__setattr__(self, "duration", self.spike_times[-1] + 5 * self.spike_half_width)
        elif (self.duration is None and self.count is not None and self.count >= 0
              and self.mean_isi is not None):
            object.__setattr__(self, "duration", (self.count + 1) * self.mean_isi)
        for t in self.spike_times or ():
            _inputs.finite(t, "spike_times")
        for name in ("mean_isi", "jitter_fraction", "spike_amplitude", "spike_half_width",
                     "baseline", "noise_sd", "duration"):
            if getattr(self, name) is not None:
                _inputs.finite(getattr(self, name), name)
        if self.spike_amplitude <= 0:
            raise ValidationError("spike_amplitude must be > 0")
        if self.spike_half_width <= 0:
            raise ValidationError("spike_half_width must be > 0")
        try:  # the bump's variance, as synthesize_spiky_series divides by it
            variance = 2 * _bump_sigma(self.spike_half_width)**2
        except OverflowError:
            variance = math.inf
        if not math.isfinite(variance):
            raise ValidationError("spike_half_width must give a finite bump variance "
                                  f"(2 * sigma**2), got {self.spike_half_width!r}")
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
        if math.floor(self.duration) + 1 > most:
            raise ValidationError(f"duration must be below {most} s, got {self.duration!r}")
        if st and (st[0] < 0 or st[-1] > self.duration):
            raise ValidationError("spike_times must lie within [0, duration]")


def _bump_sigma(spike_half_width: float) -> float:
    """Standard deviation of a Gaussian bump with this half width at half maximum."""
    return spike_half_width / math.sqrt(2.0 * math.log(2.0))


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
    # Gaps whose sum overflows put every spike beyond any duration, which the
    # caller names; a span that overflows leaves the last time inf or nan.
    with np.errstate(over="ignore", invalid="ignore"):
        # Rescale so the realised mean ISI is exact, not just exact in expectation.
        gaps *= (spec.count - 1) * spec.mean_isi / gaps.sum()
        times = spec.mean_isi + np.concatenate(([0.0], np.cumsum(gaps)))
    if not math.isfinite(times[-1]):
        raise ValidationError(f"mean_isi {spec.mean_isi!r} places {spec.count} spikes "
                              "beyond the float range")
    return times


class SyntheticSeries:
    """The series ``spec`` makes, as a stream of (times, values) blocks of
    ``_BUMP_GRID_CELLS`` samples (the last one shorter).

    ``blocks()`` places the spikes and then makes each block: the baseline,
    the Gaussian bumps whose windows reach into it, added sample by sample
    in spike order, and the block's noise. The jitter and then the noise are
    drawn from one generator, made at the first draw, so the blocks are
    those of a whole-series draw, and a spec that draws nothing does not
    load ``numpy.random``. Each ``blocks()`` call makes the same blocks. A
    value that is not finite is a ValidationError naming its time, raised
    before its block is yielded.
    """

    unit = UNIT_MICROAMPERE

    def __init__(self, spec: SyntheticSpikeSpec):
        self.spec = spec
        self.label = spec.label
        self._samples = math.floor(spec.duration) + 1  # one a second from t = 0

    def __len__(self):
        return self._samples

    @property
    def duration(self) -> float:
        """Elapsed time between the first and last sample."""
        return float(self._samples - 1)

    def blocks(self):
        spec, n = self.spec, self._samples
        rng = functools.cache(lambda: np.random.default_rng(spec.seed))
        jittered = spec.spike_times is None and spec.count > 1
        spike_times = _placed_spike_times(spec, rng() if jittered else None)
        if spike_times.size and spike_times[-1] > spec.duration:
            raise ValidationError(f"generated spikes extend to {spike_times[-1]:.9g} s, "
                                  f"beyond duration {spec.duration}")
        sigma = _bump_sigma(spec.spike_half_width)
        # Each spike's window [lo, hi): the samples within 6 sigma, found as
        # searchsorted finds them among the times 0, 1, ..., n - 1. Neither
        # end decreases from one spike to the next.
        lo, hi = (np.clip(np.ceil(x), 0, n).astype(np.intp)
                  for x in (spike_times - 6 * sigma, spike_times + 6 * sigma))
        rules = _RowRules()
        for start in range(0, n, _BUMP_GRID_CELLS):
            times = np.arange(start, min(start + _BUMP_GRID_CELLS, n), dtype=np.float64)
            values = np.full(times.size, spec.baseline)
            # The spikes whose windows reach into the block.
            reach = slice(np.searchsorted(hi, start, "right"),
                          np.searchsorted(lo, start + times.size))
            # A sum that overflows is left to the row rules, which name its row.
            with np.errstate(over="ignore", invalid="ignore"):
                _add_bumps(values, times, spike_times[reach], lo[reach] - start,
                           hi[reach] - start, spec.spike_amplitude, sigma)
                if spec.noise_sd > 0:
                    # The generator fills a block as it fills a whole array.
                    values += rng().standard_normal(times.size) * spec.noise_sd
            # The times are finite and increasing, so a value's break is the first.
            rules.add(times, values)
            try:
                rules.check()
            except ParseError as exc:
                raise ValidationError(f"at t={times[exc.row - start]:g} s: {exc}") from None
            yield times, values


def _add_bumps(values, times, spike_times, lo, hi, amplitude, sigma):
    """Add to ``values`` at ``times`` the bump of each spike over its window
    ``[lo, hi)`` of indices into them (clipped to the block), spike by spike."""
    lo = np.maximum(lo, 0)
    widths = np.minimum(hi, times.size) - lo
    offsets = np.arange(int(widths.max(initial=0)))
    # Spikes go in row blocks, so a wide bump cannot make the grid outgrow memory.
    step = max(1, _BUMP_GRID_CELLS // max(offsets.size, 1))
    for s in range(0, spike_times.size, step):
        inside = offsets < widths[s:s + step, None]
        pos = np.minimum(lo[s:s + step, None] + offsets, times.size - 1)
        bump = amplitude * np.exp(-((times[pos] - spike_times[s:s + step, None]) ** 2)
                                  / (2 * sigma**2))
        # Unbuffered and in index order: overlapping bumps add spike by spike.
        np.add.at(values, pos[inside], bump[inside])


def synthesize_spiky_series(spec: SyntheticSpikeSpec) -> TimeSeries:
    """Deterministic surrogate trace for a spec (the seed is part of the spec):
    the blocks of ``SyntheticSeries(spec)``, joined."""
    source = SyntheticSeries(spec)
    times, values = np.empty(len(source)), np.empty(len(source))
    n = 0
    for block_times, block_values in source.blocks():
        times[n:n + block_times.size] = block_times
        values[n:n + block_values.size] = block_values
        n += block_times.size
        del block_times, block_values  # not held while the next block is made
    return TimeSeries._adopt(times, values, unit=source.unit, label=spec.label)
