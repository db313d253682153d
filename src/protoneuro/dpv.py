"""Differential pulse voltammetry excitation waveforms.

A scan walks the electrode potential from a start to an end value in small
staircase steps; a short rectangular pulse of fixed amplitude rides on the
final part of every step, and the current is sampled twice per step, once
just before the pulse and once at its end. This module builds the potential
programme from the instrument parameters and exposes the sampling schedule;
it does not model the electrochemical cell.

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
        _finite(self.equilibrium_time + scan_duration(self),
                "the waveform duration (equilibrium_time + steps * step_duration)")
        for k in (1, step_count(self)):  # the pulse potentials' extremes
            _finite(self.start_potential + self.direction * k * self.step_size
                    + self.pulse_amplitude, "a pulse potential (step + pulse_amplitude)")
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


def generate_waveform(params: DpvParameters) -> PotentialWaveform:
    """Build the full potential programme for one scan.

    An optional equilibrium hold at the start potential is followed by
    ``step_count`` base/pulse segment pairs. The base potential of step k is
    start + direction*k*step_size; the pulse sits on the final pulse_width
    seconds of the step at base + pulse_amplitude.
    """
    n = step_count(params)
    eq = params.equilibrium_time
    sd = params.step_duration
    pw = params.pulse_width
    sign = params.direction

    segments = []
    if eq > 0:
        segments.append(Segment(0.0, eq, params.start_potential, PHASE_EQUILIBRIUM))
    total = eq + n * sd
    for k in range(1, n + 1):
        base_v = params.start_potential + sign * k * params.step_size
        base_start = eq + (k - 1) * sd
        pulse_start = base_start + (sd - pw)
        step_end = total if k == n else eq + k * sd
        segments.append(Segment(base_start, pulse_start - base_start, base_v, PHASE_BASE))
        segments.append(Segment(pulse_start, step_end - pulse_start,
                                base_v + params.pulse_amplitude, PHASE_PULSE))
    return PotentialWaveform(tuple(segments), total)


def sample_instants(params: DpvParameters) -> list[tuple[float, str]]:
    """Current-sampling schedule: (time, kind) pairs, two per step.

    The before-pulse sample sits at the end of each base phase and the
    after-pulse sample at the end of each pulse phase; times are strictly
    increasing and offset by the equilibrium time.
    """
    n = step_count(params)
    eq = params.equilibrium_time
    sd = params.step_duration
    pw = params.pulse_width
    out = []
    for k in range(1, n + 1):
        out.append((eq + (k - 1) * sd + (sd - pw), BEFORE_PULSE))
        out.append((eq + k * sd, AFTER_PULSE))
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
