"""Differential pulse voltammetry excitation waveforms.

A scan walks the electrode potential from a start to an end value in small
staircase steps; a short rectangular pulse of fixed amplitude rides on the
final part of every step, and the current is sampled twice per step, once
just before the pulse and once at its end. This module builds the potential
programme from the instrument parameters and exposes the sampling schedule;
it does not model the electrochemical cell.

``_steps`` is the one step formula. It yields each step's base potential,
base-phase start, pulse start (the before-pulse sample) and end (the
after-pulse sample; the last step's end is the waveform's ``total_duration``).
The waveform, the sampling schedule and the protocol checks read it alone.
A waveform holds only its parameters and makes each segment as it is read;
``write_waveform_csv`` writes each row as it is made, so memory does not grow
with the step count and a run too long for the disk ends in an ``OSError``.

The module is standard library only, so ``waveform`` starts without numpy.
"""

from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import NamedTuple

from ._inputs import finite as _finite, max_items as _max_items
from .errors import ValidationError

PHASE_EQUILIBRIUM = "equilibrium"
PHASE_BASE = "base"
PHASE_PULSE = "pulse"

BEFORE_PULSE = "before_pulse"
AFTER_PULSE = "after_pulse"


@dataclass(frozen=True)
class DpvParameters:
    """Instrument protocol settings, all in SI units (seconds, volts, V/s).

    Defaults are the reference protocol used throughout the docs and tests:
    a 100 s equilibration followed by a -8 V to 8 V scan in 1 mV steps at
    1 mV/s, with 0.2 V / 80 ms pulses.
    """

    equilibrium_time: float = 100.0
    start_potential: float = -8.0
    end_potential: float = 8.0
    step_size: float = 0.001
    pulse_amplitude: float = 0.2
    pulse_width: float = 0.08
    scan_rate: float = 0.001

    def __post_init__(self):
        for f in fields(self):
            _finite(getattr(self, f.name), f.name)
        for name in ("step_size", "pulse_width", "scan_rate"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")
        if self.equilibrium_time < 0:
            raise ValidationError("equilibrium_time must be >= 0")
        if self.start_potential == self.end_potential:
            raise ValidationError("start_potential must differ from end_potential")
        # Finite fields can still give an infinite span, step count, time or
        # potential, which step_count could not round nor the waveform print.
        span = _finite(abs(self.end_potential - self.start_potential),
                       "the scan span (|end_potential - start_potential|)")
        steps = _finite(span / self.step_size, "the step count (span / step_size)")
        # sample_instants lists 2 * steps entries, and tuple(waveform) 2 * steps + 1.
        most = (_max_items(8) - 1) // 2
        if step_count(self) > most:
            raise ValidationError(f"the step count (span / step_size) must be at most "
                                  f"{most}, got {steps:.9g}")
        _finite(self.step_duration, "step_duration (step_size / scan_rate)")
        (first_v, *_), (last_v, *_, end) = _steps(self, (1, step_count(self)))
        _finite(end, "the waveform duration (equilibrium_time + steps * step_duration)")
        for base_v in (first_v, last_v):  # the pulse potentials' extremes
            _finite(base_v + self.pulse_amplitude, "a pulse potential (step + pulse_amplitude)")
        if not self.pulse_width < self.step_duration:
            raise ValidationError(
                "pulse_width must be smaller than step_duration "
                f"({self.pulse_width} >= {self.step_duration})"
            )
        if step_count(self) < 1:
            raise ValidationError("step_size larger than the scan span")

    @property
    def step_duration(self) -> float:
        """Seconds spent on one staircase step."""
        return self.step_size / self.scan_rate

    @property
    def direction(self) -> float:
        """+1 for an upward scan, -1 for a downward one."""
        return 1.0 if self.end_potential > self.start_potential else -1.0


class Segment(NamedTuple):
    start_time: float
    duration: float
    potential: float
    phase: str


@dataclass(frozen=True)
class PotentialWaveform:
    """Piecewise-constant potential programme, made from its parameters.

    Iterating yields each segment from ``_steps`` as it is read. Segments are
    contiguous, ordered and non-overlapping; their durations sum to
    ``total_duration`` exactly (durations are derived from the boundary
    times, so the sum telescopes).
    """

    params: DpvParameters

    def __iter__(self):
        p = self.params
        if p.equilibrium_time > 0:
            yield Segment(0.0, p.equilibrium_time, p.start_potential, PHASE_EQUILIBRIUM)
        for base_v, base_start, pulse_start, step_end in _steps(p):
            yield Segment(base_start, pulse_start - base_start, base_v, PHASE_BASE)
            yield Segment(pulse_start, step_end - pulse_start,
                          base_v + p.pulse_amplitude, PHASE_PULSE)

    @property
    def total_duration(self) -> float:
        """The last step's end."""
        return next(_steps(self.params, (step_count(self.params),)))[3]

    def potential_at(self, t: float) -> float:
        """Potential at time ``t``; each segment covers [start, end)."""
        if not 0 <= t <= self.total_duration:  # NaN included
            raise ValidationError(f"time {t} outside waveform [0, {self.total_duration}]")
        p = self.params
        k = bisect_right(range(1, step_count(p) + 1), t, key=lambda k: next(_steps(p, (k,)))[1])
        if k == 0:  # before the first step: the equilibrium hold
            return p.start_potential
        base_v, _, pulse_start, _ = next(_steps(p, (k,)))
        return base_v if t < pulse_start else base_v + p.pulse_amplitude


def step_count(params: DpvParameters) -> int:
    """Number of staircase steps: the span/step ratio, nearest-integer rounded."""
    span = abs(params.end_potential - params.start_potential)
    return int(round(span / params.step_size))


def _steps(params: DpvParameters, ks=None):
    """(base potential, base start, pulse start, step end) of each step k in
    ``ks``, by default every step from 1 to ``step_count``."""
    eq, step_duration = params.equilibrium_time, params.step_duration
    start, direction, step_size = params.start_potential, params.direction, params.step_size
    base_phase = step_duration - params.pulse_width
    for k in range(1, step_count(params) + 1) if ks is None else ks:
        base_start = eq + (k - 1) * step_duration
        yield (start + direction * k * step_size, base_start, base_start + base_phase,
               eq + k * step_duration)


def generate_waveform(params: DpvParameters) -> PotentialWaveform:
    """The potential programme for one scan, made segment by segment as it is read.

    An optional equilibrium hold at the start potential is followed by
    ``step_count`` base/pulse segment pairs, each pulse at its step's base
    potential + pulse_amplitude.
    """
    return PotentialWaveform(params)


def sample_instants(params: DpvParameters) -> list[tuple[float, str]]:
    """Current-sampling schedule: (time, kind) pairs, two per step.

    The before-pulse sample sits at the end of each base phase and the
    after-pulse sample at the end of each pulse phase; times are strictly
    increasing and offset by the equilibrium time.
    """
    out = []
    for _, _, before, after in _steps(params):
        out.append((before, BEFORE_PULSE))
        out.append((after, AFTER_PULSE))
    return out


def scan_duration(params: DpvParameters) -> float:
    """Scan time excluding the equilibrium hold."""
    return step_count(params) * params.step_duration


def write_waveform_csv(waveform: PotentialWaveform, path) -> None:
    """Export with header ``time_s,potential_V,phase``.

    One row per segment boundary: the potential sampled at the start of each
    segment plus a terminal row at the waveform end.
    """
    p = waveform.params
    last_v, *_, end = next(_steps(p, (step_count(p),)))
    with open(path, "w", newline="") as fh:
        fh.write("time_s,potential_V,phase\r\n")
        fh.writelines(f"{s.start_time:.9g},{s.potential:.9g},{s.phase}\r\n" for s in waveform)
        fh.write(f"{end:.9g},{last_v + p.pulse_amplitude:.9g},{PHASE_PULSE}\r\n")
