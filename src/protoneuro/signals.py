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
not depend on the fast path. The row rules (finite times, finite values,
strictly increasing times) are stated once, in ``TimeSeries``, which names
the first row that breaks one; only then does the reader count that row's
line, in a second read, so a good file pays nothing for the line.

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
        """Check ``t`` and ``v`` and keep them, read-only. The first row to break
        a row rule, taken in order, is a ParseError carrying that ``row``."""
        if t.ndim != 1 or v.ndim != 1:
            raise ValidationError("times and values must be one-dimensional")
        if t.size != v.size:
            raise ValidationError(f"times ({t.size}) and values ({v.size}) differ in length")
        if t.size < 1:
            raise ValidationError("a series needs at least one sample")
        # No bool array outlives its check: a column can hold a million rows.
        for column, name in ((t, "time_s"), (v, "value")):
            if not np.isfinite(column).all():
                row = int(np.argmin(np.isfinite(column)))
                raise ParseError(f"{name} is {column[row]:.9g}, not a finite number", row=row)
        if not (t[1:] > t[:-1]).all():
            row = int(np.argmin(t[1:] > t[:-1])) + 1
            raise ParseError(f"times must be strictly increasing; {t[row]:.9g} follows "
                             f"{t[row - 1]:.9g}", row=row)
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


def _check_unit(unit, line=None):
    """Reject a ``unit`` outside ``_UNITS``; ``line`` is the line that set it."""
    if unit not in _UNITS:
        raise ParseError(f"unit must be one of {_UNITS}, got {unit!r}", line=line)


def read_timeseries_csv(path) -> TimeSeries:
    """Parse a series file, validating monotone times and finite values.

    The header must be the first line; ``#`` lines anywhere after it set
    ``unit`` and ``label`` (the last one wins), and a bad line (one that
    does not parse, an unknown unit, a non-finite number, a time not after
    the one before it) is a ParseError naming the file and the line.
    """
    meta = {"unit": UNIT_MICROAMPERE, "label": ""}

    def comment(text, line):
        text = text[1:].strip()
        for key in meta:
            if text.startswith(key + "="):
                # Interned, a unit is this module's own constant: a new string
                # made among a chunk's line strings would keep one of the
                # allocator's 1 MiB arenas resident (1 MB of detect's peak RSS).
                meta[key] = sys.intern(text[len(key) + 1:])
        _check_unit(meta["unit"], line)

    def check_header(header, line):
        if not (line == 1 and header.strip() == HEADER):
            raise ParseError(f"expected header {HEADER!r}", line=1)

    with _inputs.blamed(path):
        with _inputs.open_text(path) as fh:
            _, rows = _csvio.read_table(fh, check_header, comment)
        try:
            return TimeSeries._adopt(rows[:, 0], rows[:, 1], unit=meta["unit"],
                                     label=meta["label"])
        except ParseError as exc:
            raise ParseError(exc.args[0], line=_csvio.row_line(path, exc.row)) from None


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

    def __init__(self, series=()):
        self._base = None  # the first series' times
        self._rows = []  # each series' values
        self._agree = []  # each series' count of leading times equal to _base
        for one in series:
            self.add(one)
            del one  # so that the next series is made with this one gone

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


def stack_values(series_list, labels) -> np.ndarray:
    """The ``(len(labels), n)`` potential matrix of ``series_list`` (see ``ValueStack``)."""
    return ValueStack(series_list).matrix(labels)


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


def synthesize_spiky_series(spec: SyntheticSpikeSpec) -> TimeSeries:
    """Deterministic surrogate trace for a spec (the seed is part of the spec).

    The jitter and then the noise are drawn from one generator, made at the
    first draw: a spec that draws nothing does not load ``numpy.random``.
    """
    rng = functools.cache(lambda: np.random.default_rng(spec.seed))
    jittered = spec.spike_times is None and spec.count > 1
    spike_times = _placed_spike_times(spec, rng() if jittered else None)
    if spike_times.size and spike_times[-1] > spec.duration:
        raise ValidationError(f"generated spikes extend to {spike_times[-1]:.9g} s, "
                              f"beyond duration {spec.duration}")
    times = np.arange(math.floor(spec.duration) + 1, dtype=np.float64)
    values = np.full(times.size, spec.baseline)
    sigma = _bump_sigma(spec.spike_half_width)
    lo = np.searchsorted(times, spike_times - 6 * sigma)
    hi = np.searchsorted(times, spike_times + 6 * sigma)
    width = int((hi - lo).max(initial=0))
    offsets = np.arange(width)
    # Spikes go in row blocks, so a wide bump cannot make the grid outgrow memory.
    step = max(1, _BUMP_GRID_CELLS // max(width, 1))
    # A sum that overflows is left to TimeSeries, which names its row.
    with np.errstate(over="ignore", invalid="ignore"):
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
    try:
        return TimeSeries._adopt(times, values, unit=UNIT_MICROAMPERE, label=spec.label)
    except ParseError as exc:
        raise ValidationError(f"at t={times[exc.row]:g} s: {exc}") from None
