import csv
from bisect import bisect_right
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from protoneuro import dpv
from protoneuro.errors import ValidationError

REFERENCE = dpv.DpvParameters()  # 100 s hold, -8 V to 8 V, 1 mV steps at 1 mV/s


def two_step_params(equilibrium=0.0):
    return dpv.DpvParameters(equilibrium_time=equilibrium, start_potential=0.0,
                             end_potential=0.002, step_size=0.001,
                             pulse_amplitude=0.1, pulse_width=0.08, scan_rate=0.001)


def test_step_count_reference_protocol():
    assert dpv.step_count(REFERENCE) == 16000


def test_step_count_simple():
    p = dpv.DpvParameters(start_potential=0.0, end_potential=1.0, step_size=0.5,
                          pulse_width=0.08, scan_rate=0.001)
    assert dpv.step_count(p) == 2


def test_step_count_rounds_to_nearest():
    p = dpv.DpvParameters(start_potential=0.0, end_potential=0.999, step_size=0.1,
                          pulse_width=0.08, scan_rate=0.001)
    assert dpv.step_count(p) == 10  # 9.99 rounds up


@pytest.mark.parametrize("field,value", [
    ("step_size", 0.0),
    ("step_size", -0.001),
    ("pulse_width", 0.0),
    ("scan_rate", 0.0),
    ("equilibrium_time", -1.0),
    ("pulse_width", 2.0),      # >= step duration of 1 s
])
def test_invalid_parameters_rejected(field, value):
    with pytest.raises(ValidationError, match=field.split("_")[0]):
        dpv.DpvParameters(**{field: value})


_HUGE_STEPS = dict(step_size=1e307, pulse_width=0.5, scan_rate=1e307, equilibrium_time=0.0)


@pytest.mark.parametrize("params, quantity", [
    (dict(step_size=1e-320, pulse_width=1e-323), "the step count"),
    (dict(equilibrium_time=1.7e308, scan_rate=1e-306), "the waveform duration"),
    (dict(start_potential=0.0, end_potential=1.79e308, pulse_amplitude=0.1, **_HUGE_STEPS),
     "a pulse potential"),  # the last step rounds past the end potential
    (dict(start_potential=1.7e308, end_potential=0.0, pulse_amplitude=1e308, **_HUGE_STEPS),
     "a pulse potential"),  # the first pulse of a downward scan
], ids=["step-count", "duration", "last-pulse", "first-pulse"])
def test_derived_quantities_must_be_finite(params, quantity):
    with pytest.raises(ValidationError, match=f"^{quantity} .* must be finite, got inf$"):
        dpv.DpvParameters(**params)


def test_step_count_beyond_any_list_rejected():
    # 1.6e301 steps: the check comes before any segment is built.
    with pytest.raises(ValidationError, match=r"^the step count \(span / step_size\) must be "
                                              r"at most 576460752303423487, got 1\.6e\+301$"):
        dpv.DpvParameters(step_size=1e-300, pulse_width=1e-303)


def test_step_larger_than_the_scan_span_rejected():
    with pytest.raises(ValidationError, match="^step_size larger than the scan span$"):
        dpv.DpvParameters(start_potential=0.0, end_potential=0.001, step_size=0.01)


def test_equal_start_end_rejected():
    with pytest.raises(ValidationError):
        dpv.DpvParameters(start_potential=1.0, end_potential=1.0)


def test_generate_waveform_reference_protocol():
    w = dpv.generate_waveform(REFERENCE)
    bases = [s for s in w.segments if s.phase == dpv.PHASE_BASE]
    pulses = [s for s in w.segments if s.phase == dpv.PHASE_PULSE]
    assert len(bases) == len(pulses) == 16000
    assert w.segments[0].phase == dpv.PHASE_EQUILIBRIUM
    assert w.segments[0].duration == 100.0
    assert dpv.scan_duration(REFERENCE) == pytest.approx(16000.0)
    assert w.total_duration == pytest.approx(16100.0)
    for b, p in zip(bases, pulses):
        assert p.potential == pytest.approx(b.potential + 0.2)
        assert p.duration == pytest.approx(0.08)


def test_generate_waveform_two_step_enumeration():
    w = dpv.generate_waveform(two_step_params())
    got = [(s.potential, s.duration, s.phase) for s in w.segments]
    assert got[0] == (pytest.approx(0.001), pytest.approx(0.92), dpv.PHASE_BASE)
    assert got[1] == (pytest.approx(0.101), pytest.approx(0.08), dpv.PHASE_PULSE)
    assert got[2] == (pytest.approx(0.002), pytest.approx(0.92), dpv.PHASE_BASE)
    assert got[3] == (pytest.approx(0.102), pytest.approx(0.08), dpv.PHASE_PULSE)
    assert len(got) == 4


def test_zero_amplitude_gives_pure_staircase():
    p = dpv.DpvParameters(equilibrium_time=0.0, start_potential=0.0, end_potential=0.01,
                          step_size=0.001, pulse_amplitude=0.0, pulse_width=0.08,
                          scan_rate=0.001)
    w = dpv.generate_waveform(p)
    for base, pulse in zip(w.segments[0::2], w.segments[1::2]):
        assert pulse.potential == base.potential


def test_sample_instants_reference_protocol():
    assert len(dpv.sample_instants(REFERENCE)) == 32000


def test_sample_instants_single_step():
    p = dpv.DpvParameters(start_potential=0.0, end_potential=0.001, step_size=0.001,
                          pulse_width=0.08, scan_rate=0.001, equilibrium_time=0.0)
    assert len(dpv.sample_instants(p)) == 2


@pytest.mark.parametrize("equilibrium", [0.0, 100.0])
def test_sample_instants_two_step_times(equilibrium):
    instants = dpv.sample_instants(two_step_params(equilibrium))
    times = [t for t, _ in instants]
    kinds = [k for _, k in instants]
    assert times == pytest.approx([equilibrium + t for t in (0.92, 1.0, 1.92, 2.0)])
    assert kinds == [dpv.BEFORE_PULSE, dpv.AFTER_PULSE] * 2
    assert all(b > a for a, b in zip(times, times[1:]))


def _random_params(rng):
    start = rng.uniform(-8, 8)
    end = start + rng.choice([-1, 1]) * rng.uniform(0.01, 4)
    step = rng.uniform(0.001, 0.01)
    rate = rng.uniform(0.0005, 0.01)
    width = rng.uniform(0.05, 0.9) * (step / rate)
    return dpv.DpvParameters(equilibrium_time=rng.uniform(0, 50), start_potential=start,
                             end_potential=end, step_size=step, pulse_amplitude=0.2,
                             pulse_width=width, scan_rate=rate)


def test_waveform_invariants_random_params():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = _random_params(rng)
        w = dpv.generate_waveform(p)
        n = dpv.step_count(p)
        bases = [s for s in w.segments if s.phase == dpv.PHASE_BASE]
        pulses = [s for s in w.segments if s.phase == dpv.PHASE_PULSE]
        assert len(bases) == len(pulses) == n

        # contiguous, non-overlapping, durations telescope to the total
        for a, b in zip(w.segments, w.segments[1:]):
            assert b.start_time == pytest.approx(a.end_time, abs=1e-12)
        assert sum(s.duration for s in w.segments) == pytest.approx(w.total_duration)

        # base potentials strictly monotone from start toward end
        pots = [s.potential for s in bases]
        diffs = np.diff(pots)
        assert np.all(diffs > 0) if p.end_potential > p.start_potential else np.all(diffs < 0)
        assert pots[-1] == pytest.approx(p.start_potential + p.direction * n * p.step_size)

        # pulse rides on the preceding base
        for b, s in zip(bases, pulses):
            assert s.potential == pytest.approx(b.potential + p.pulse_amplitude)


@st.composite
def protocols(draw):
    """Valid protocols of 1 to 300 steps, scanning either way."""
    steps = draw(st.integers(1, 300))
    step_size = draw(st.floats(1e-4, 0.1))
    start = draw(st.floats(-8, 8))
    scan_rate = draw(st.floats(1e-4, 10))
    return dpv.DpvParameters(
        equilibrium_time=draw(st.sampled_from([0.0, 100.0]) | st.floats(0, 200)),
        start_potential=start,
        end_potential=start + draw(st.sampled_from([-1, 1])) * steps * step_size,
        step_size=step_size, pulse_amplitude=draw(st.floats(-0.5, 0.5)),
        pulse_width=draw(st.floats(0.01, 0.99)) * step_size / scan_rate, scan_rate=scan_rate)


@settings(max_examples=150, deadline=None)
@given(params=protocols())
def test_waveform_pulses_start_and_end_at_the_sampling_instants(params):
    w = dpv.generate_waveform(params)
    instants = dpv.sample_instants(params)
    ends = [s.start_time for s in w.segments[1:]] + [w.total_duration]
    pulses = [(s, end) for s, end in zip(w.segments, ends) if s.phase == dpv.PHASE_PULSE]
    assert len(instants) == 2 * len(pulses) == 2 * dpv.step_count(params)
    for (pulse, end), before, after in zip(pulses, instants[::2], instants[1::2]):
        assert (pulse.start_time, dpv.BEFORE_PULSE) == before
        assert (end, dpv.AFTER_PULSE) == after
    bases = [s.potential for s in w.segments if s.phase == dpv.PHASE_BASE]
    step = params.direction * params.step_size
    assert np.diff([params.start_potential, *bases]) == pytest.approx(step, rel=1e-9)


def test_potential_at_matches_segments():
    p = two_step_params(equilibrium=2.0)
    w = dpv.generate_waveform(p)
    for seg in w.segments:
        assert w.potential_at(seg.start_time) == seg.potential
        assert w.potential_at(seg.start_time + seg.duration / 2) == seg.potential
    assert w.potential_at(w.total_duration) == w.segments[-1].potential
    with pytest.raises(ValidationError):
        w.potential_at(-0.1)
    with pytest.raises(ValidationError):
        w.potential_at(w.total_duration + 0.1)


def segment_list_potential(w, t):
    """The lookup over the listed segments: the last one starting at or before ``t``."""
    i = bisect_right(w.segments, t, key=lambda s: s.start_time) - 1
    return w.segments[min(max(i, 0), len(w.segments) - 1)].potential


@settings(max_examples=150, deadline=None)
@given(params=protocols())
@example(params=two_step_params(equilibrium=0.0))
@example(params=two_step_params(equilibrium=2.0))
@example(params=replace(two_step_params(equilibrium=0.0), start_potential=0.002, end_potential=0))
@example(params=replace(two_step_params(equilibrium=2.0), start_potential=0.002, end_potential=0))
def test_potential_at_agrees_with_bisecting_the_segment_list(params):
    # Every segment start and midpoint, and the end, with and without an
    # equilibrium hold, scanning either way.
    w = dpv.generate_waveform(params)
    times = [w.total_duration]
    for s in w.segments:
        times += [s.start_time, s.start_time + s.duration / 2]
    for t in times:
        assert w.potential_at(t) == segment_list_potential(w, t)


def test_potential_at_nan_rejected():
    w = dpv.generate_waveform(two_step_params())
    with pytest.raises(ValidationError, match=r"^time nan outside waveform \[0, 2\.0\]$"):
        w.potential_at(float("nan"))


def test_waveform_csv_export(tmp_path):
    w = dpv.generate_waveform(two_step_params())
    path = tmp_path / "wf.csv"
    dpv.write_waveform_csv(w, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,potential_V,phase"
    assert len(lines) == len(w.segments) + 2  # header + boundaries + terminal row
    assert lines[1].endswith(",base")


def csv_writer_waveform(waveform, path):
    """Reference export: the same rows through ``csv.writer``, one call per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "potential_V", "phase"])
        for seg in waveform.segments:
            writer.writerow([f"{seg.start_time:.9g}", f"{seg.potential:.9g}", seg.phase])
        last = waveform.segments[-1]
        writer.writerow([f"{waveform.total_duration:.9g}", f"{last.potential:.9g}", last.phase])


@pytest.mark.parametrize("params, exponent", [
    (two_step_params(equilibrium=2.0), False),
    (dpv.DpvParameters(equilibrium_time=0.0, start_potential=0.5, end_potential=-0.5,
                       step_size=0.1, pulse_amplitude=0.05, pulse_width=0.04,
                       scan_rate=1.0), False),
    (dpv.DpvParameters(equilibrium_time=3.5, start_potential=0.0, end_potential=5e-5,
                       step_size=1e-5, pulse_amplitude=2e-6, pulse_width=0.08,
                       scan_rate=1e-14), True),
], ids=["upward", "downward-no-hold", "exponent-form"])
def test_waveform_csv_bytes_equal_the_csv_writer_loop(tmp_path, params, exponent):
    w = dpv.generate_waveform(params)
    dpv.write_waveform_csv(w, tmp_path / "wf.csv")
    csv_writer_waveform(w, tmp_path / "ref.csv")
    data = (tmp_path / "wf.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert (b"e-05" in data and b"e+09" in data) == exponent
    assert data.count(b"equilibrium") == (params.equilibrium_time > 0)


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(params=protocols())
def test_waveform_csv_bytes_equal_the_csv_writer_loop_on_drawn_protocols(tmp_path, params):
    w = dpv.generate_waveform(params)
    dpv.write_waveform_csv(w, tmp_path / "wf.csv")
    csv_writer_waveform(w, tmp_path / "ref.csv")
    data = (tmp_path / "wf.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    assert data.count(b"equilibrium") == (params.equilibrium_time > 0)
