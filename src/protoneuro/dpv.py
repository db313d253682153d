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

The module is standard library only, so ``waveform`` starts without numpy.
"""

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import NamedTuple

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
        # 2 * steps + 1 segments: no list can index more than sys.maxsize // 8.
        most = (sys.maxsize // 8 - 1) // 2
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


def _finite(value, name):
    """``value``, which must be finite; ``name`` says what it is."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


class Segment(NamedTuple):
    start_time: float
    duration: float
    potential: float
    phase: str

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


@dataclass(frozen=True)
class PotentialWaveform:
    """Piecewise-constant potential programme.

    Segments are contiguous, ordered and non-overlapping; their durations
    sum to ``total_duration`` exactly (durations are derived from the
    boundary times, so the sum telescopes).
    """

    segments: tuple[Segment, ...]
    total_duration: float

    def potential_at(self, t: float) -> float:
        """Potential at time ``t``; each segment covers [start, end)."""
        if t < 0 or t > self.total_duration:
            raise ValidationError(f"time {t} outside waveform [0, {self.total_duration}]")
        i = bisect_right(self.segments, t, key=lambda s: s.start_time) - 1
        i = min(max(i, 0), len(self.segments) - 1)
        return self.segments[i].potential


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
    """Build the full potential programme for one scan.

    An optional equilibrium hold at the start potential is followed by
    ``step_count`` base/pulse segment pairs, each pulse at its step's base
    potential + pulse_amplitude.
    """
    eq = params.equilibrium_time
    segments = [Segment(0.0, eq, params.start_potential, PHASE_EQUILIBRIUM)] if eq > 0 else []
    for base_v, base_start, pulse_start, step_end in _steps(params):
        segments.append(Segment(base_start, pulse_start - base_start, base_v, PHASE_BASE))
        segments.append(Segment(pulse_start, step_end - pulse_start,
                                base_v + params.pulse_amplitude, PHASE_PULSE))
    return PotentialWaveform(tuple(segments), step_end)


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
    last = waveform.segments[-1]
    rows = "".join(f"{s.start_time:.9g},{s.potential:.9g},{s.phase}\r\n"
                   for s in waveform.segments)
    with open(path, "w", newline="") as fh:
        fh.write(f"time_s,potential_V,phase\r\n{rows}"
                 f"{waveform.total_duration:.9g},{last.potential:.9g},{last.phase}\r\n")
