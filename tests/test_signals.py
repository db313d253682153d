import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from protoneuro import _csvio, dpv, signals, spikes
from protoneuro._csvio import BLOCK_ROWS
from protoneuro.errors import ParseError, ValidationError
from protoneuro.signals import SyntheticSpikeSpec, TimeSeries


def test_timeseries_validation():
    with pytest.raises(ValidationError) as info:
        TimeSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert info.value.row == 1
    with pytest.raises(ValidationError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValidationError) as info:
        TimeSeries(np.array([0.0]), np.array([np.nan]))
    assert info.value.row == 0
    with pytest.raises(ValidationError):
        TimeSeries(np.array([]), np.array([]))
    with pytest.raises(ValidationError):
        TimeSeries(np.array([0.0]), np.array([1.0]), unit="ampere")


def test_timeseries_arrays_are_readonly():
    s = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_timeseries_constructor_copies_its_arrays():
    times, values = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])
    s = TimeSeries(times, values)
    times[0], values[0] = -5.0, 9.0
    assert s.times.tolist() == [0.0, 1.0, 2.0]
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    assert times.flags.writeable and values.flags.writeable


@pytest.mark.parametrize("body", ["0,1\n1,2\n", "0,1\n# label=late\n1,2\n"],
                         ids=["whole", "chunked"])
def test_reader_and_synthesiser_return_read_only_arrays(tmp_path, body):
    path = tmp_path / "s.csv"
    path.write_text("time_s,value\n# unit=volt\n" + body)
    read = signals.read_timeseries_csv(path)
    made = signals.synthesize_spiky_series(SyntheticSpikeSpec(duration=20, count=2, mean_isi=5.0,
                                                              noise_sd=1e-4))
    for array in (read.times, read.values, made.times, made.values):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_noise_drawn_in_blocks_is_the_one_shot_draw():
    n = 3 * signals._BUMP_GRID_CELLS + 123  # four blocks, the last one short
    spec = SyntheticSpikeSpec(duration=n - 1, count=0, baseline=0.25, noise_sd=2e-4,
                              seed=12345)
    got = signals.synthesize_spiky_series(spec).values
    values = np.full(n, 0.25)
    expected = values + 2e-4 * np.random.default_rng(12345).standard_normal(n)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_read_basic_file(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("time_s,value\n# unit=microampere\n0,0.0\n1,0.1\n")
    s = signals.read_timeseries_csv(path)
    assert len(s) == 2
    assert s.unit == signals.UNIT_MICROAMPERE
    assert np.array_equal(s.times, [0.0, 1.0])


def test_read_rejects_non_monotone(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,value\n0,0.1\n0,0.2\n")
    with pytest.raises(ValidationError, match="increasing"):
        signals.read_timeseries_csv(path)


@pytest.mark.parametrize("row, message", [
    ("2,nan", "value is nan, not a finite number"),
    ("2,inf", "value is inf, not a finite number"),
    ("-inf,1", "time_s is -inf, not a finite number"),
    ("1,2", "times must be strictly increasing; 1 follows 1"),
], ids=["nan", "inf", "-inf", "repeated-time"])
def test_read_names_the_line_of_a_row_the_series_rejects(tmp_path, row, message):
    # Blank, metadata and comment lines count in the line number; the rows
    # after the bad one parse.
    path = tmp_path / "bad.csv"
    path.write_text(f"time_s,value\n# unit=volt\n0,1\n\n  # note\n1,1\n{row}\n3,1\n")
    with pytest.raises(ParseError) as err:
        signals.read_timeseries_csv(path)
    assert err.value.line == 7
    assert str(err.value) == f"{path}: line 7: {message}"


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,value\n0,0.1\n1,zap\n")
    with pytest.raises(ParseError, match="line 3"):
        signals.read_timeseries_csv(path)
    path.write_text("wrong,header\n0,0.1\n")
    with pytest.raises(ParseError, match="line 1"):
        signals.read_timeseries_csv(path)
    path.write_text("time_s,value\n0,0.1,9\n")
    with pytest.raises(ParseError, match="line 2"):
        signals.read_timeseries_csv(path)


def test_write_empty_label_has_no_label_comment(tmp_path):
    s = TimeSeries(np.array([0.0, 1.0]), np.array([0.5, 0.25]), label="")
    path = tmp_path / "s.csv"
    signals.write_timeseries_csv(s, path)
    text = path.read_text()
    assert text.splitlines()[0] == "time_s,value"
    assert "label=" not in text
    back = signals.read_timeseries_csv(path)
    assert back.label == ""


def test_write_read_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    s = TimeSeries(np.sort(rng.uniform(0, 1e4, 200)), rng.standard_normal(200) * 1e-3,
                   unit=signals.UNIT_VOLT, label="sample-x")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    signals.write_timeseries_csv(s, a)
    signals.write_timeseries_csv(signals.read_timeseries_csv(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_round_trip_relative_error_within_stated_precision(tmp_path):
    # 9 significant digits quantise values to 5e-9 relative at worst;
    # times carry 12 digits and stay within 1e-9.
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = rng.integers(1, 300)
        times = np.cumsum(rng.uniform(0.01, 10, n))
        values = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-6, 6)
        s = TimeSeries(times, values, label=f"t{trial}")
        path = tmp_path / "rt.csv"
        signals.write_timeseries_csv(s, path)
        back = signals.read_timeseries_csv(path)
        assert back.unit == s.unit and back.label == s.label
        np.testing.assert_allclose(back.times, s.times, rtol=1e-9)
        np.testing.assert_allclose(back.values, s.values, rtol=5e-9)


def test_waveform_export_round_trips_through_series(tmp_path):
    # A full-length scan exported as a series survives write -> read -> write.
    w = dpv.generate_waveform(dpv.DpvParameters())
    times = np.array([s.start_time for s in w.segments])
    pots = np.array([s.potential for s in w.segments])
    s = TimeSeries(times, pots, unit=signals.UNIT_VOLT, label="scan")
    assert len(s) > 16000
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    signals.write_timeseries_csv(s, a)
    signals.write_timeseries_csv(signals.read_timeseries_csv(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_synthesize_flat_baseline():
    spec = SyntheticSpikeSpec(duration=20, count=0, baseline=0.25)
    s = signals.synthesize_spiky_series(spec)
    assert np.all(s.values == 0.25)
    assert np.array_equal(s.times, np.arange(21.0))


def test_synthesize_explicit_spikes_detected_downstream():
    spec = SyntheticSpikeSpec(duration=50, spike_times=(10.0, 20.0, 30.0),
                              spike_amplitude=0.001)
    s = signals.synthesize_spiky_series(spec)
    train = spikes.detect_spikes(s, spikes.SpikeDetectionConfig())
    assert np.array_equal(train.spike_times, [10.0, 20.0, 30.0])


def test_synthesize_is_deterministic():
    spec = SyntheticSpikeSpec(duration=2000, count=50, mean_isi=30.0,
                              jitter_fraction=0.3, noise_sd=1e-4, seed=99)
    s1 = signals.synthesize_spiky_series(spec)
    s2 = signals.synthesize_spiky_series(spec)
    assert np.array_equal(s1.values, s2.values)
    other = signals.synthesize_spiky_series(
        SyntheticSpikeSpec(duration=2000, count=50, mean_isi=30.0,
                           jitter_fraction=0.3, noise_sd=1e-4, seed=100))
    assert not np.array_equal(s1.values, other.values)


def test_synthesized_mean_isi_is_exact():
    spec = SyntheticSpikeSpec(duration=20000, count=100, mean_isi=42.5,
                              jitter_fraction=0.2, seed=3)
    times = signals._placed_spike_times(spec, np.random.default_rng(spec.seed))
    assert times.size == 100
    assert np.mean(np.diff(times)) == pytest.approx(42.5, rel=1e-12)
    assert np.all(np.diff(times) > 0)


def test_surrogate_reproduces_reference_frequency():
    # 726 spikes at mean ISI 22.24 s should give ~44.97 mHz downstream.
    spec = SyntheticSpikeSpec(duration=727 * 22.24, count=726, mean_isi=22.24,
                              jitter_fraction=0.2, seed=11)
    s = signals.synthesize_spiky_series(spec)
    stats = spikes.compute_stats(spikes.detect_spikes(s, spikes.SpikeDetectionConfig()))
    assert stats.count == 726
    assert stats.frequency == pytest.approx(44.97, rel=0.01)


def test_spec_validation():
    with pytest.raises(ValidationError):
        SyntheticSpikeSpec(duration=0, count=1, mean_isi=1.0)
    with pytest.raises(ValidationError):
        SyntheticSpikeSpec(duration=10, spike_times=(5.0, 2.0))
    with pytest.raises(ValidationError):
        SyntheticSpikeSpec(duration=10, spike_times=(5.0,), count=3, mean_isi=1.0)
    with pytest.raises(ValidationError):
        SyntheticSpikeSpec(duration=10, count=3, mean_isi=1.0, jitter_fraction=1.0)
    with pytest.raises(ValidationError):
        SyntheticSpikeSpec(duration=10, spike_times=(20.0,))
    with pytest.raises(ValidationError):
        SyntheticSpikeSpec(duration=10, count=2, mean_isi=1.0, spike_amplitude=0.0)


def test_spec_checks_the_placement_before_a_missing_duration():
    with pytest.raises(ValidationError, match="^mean_isi must be > 0$"):
        SyntheticSpikeSpec(duration=None, count=5)
    with pytest.raises(ValidationError, match="not both"):
        SyntheticSpikeSpec(duration=None, spike_times=(10.0,), count=5, mean_isi=3.0)
    with pytest.raises(ValidationError, match="^duration must be > 0, got None$"):
        SyntheticSpikeSpec(duration=None, count=0)


def test_stack_values_cuts_to_the_shortest_and_zero_pads():
    a = TimeSeries(np.arange(4.0), np.array([1.0, 2.0, 3.0, 4.0]))
    b = TimeSeries(np.arange(3.0), np.array([5.0, 6.0, 7.0]))
    matrix = signals.stack_values([a, b], ["a", "b", "c"])
    assert matrix.dtype == np.float64
    assert matrix.tolist() == [[1.0, 2.0, 3.0], [5.0, 6.0, 7.0], [0.0, 0.0, 0.0]]
    late = TimeSeries(np.arange(3.0) + 1000, np.zeros(3))
    with pytest.raises(ValidationError, match="^late: time base differs"):
        signals.stack_values([a, late], ["a", "late"])
    with pytest.raises(ValidationError, match="2 series for 1 labels"):
        signals.stack_values([a, b], ["a"])


def reference_synthesized_values(spec):
    # The per-spike loop that synthesize_spiky_series's bump grid stands in for.
    rng = np.random.default_rng(spec.seed)
    spike_times = signals._placed_spike_times(spec, rng)
    times = np.arange(math.floor(spec.duration) + 1, dtype=np.float64)
    values = np.full(times.size, spec.baseline)
    sigma = spec.spike_half_width / math.sqrt(2.0 * math.log(2.0))
    for ts in spike_times:
        lo = np.searchsorted(times, ts - 6 * sigma)
        hi = np.searchsorted(times, ts + 6 * sigma)
        window = times[lo:hi]
        values[lo:hi] += spec.spike_amplitude * np.exp(-((window - ts) ** 2) / (2 * sigma**2))
    if spec.noise_sd > 0:
        values = values + spec.noise_sd * rng.standard_normal(times.size)
    return values


@pytest.mark.parametrize("noise_sd", [0.0, 2e-4])
@pytest.mark.parametrize("fields", [
    # overlapping bumps: mean ISI well under the 12-sigma window
    dict(duration=1300, count=300, mean_isi=4.0, jitter_fraction=0.5, seed=5),
    dict(duration=700, count=200, mean_isi=3.0, spike_half_width=6.0, baseline=0.1, seed=6),
    # windows clipped at both ends of the array
    dict(duration=30, spike_times=(0.0, 0.4, 29.6, 30.0)),
    dict(duration=10, count=0),
    dict(duration=10, count=1, mean_isi=4.0),
    dict(duration=12, spike_times=(2.5, 3.25, 7.75)),
    dict(duration=50.7, spike_times=(1.3, 50.2, 50.7), spike_half_width=2.0),
    dict(duration=60.5, count=11, mean_isi=5.0, jitter_fraction=0.4, seed=8),
])
@pytest.mark.parametrize("grid_cells", [None, 40], ids=["one-block", "small-blocks"])
def test_synthesis_matches_per_spike_loop_bit_for_bit(monkeypatch, fields, noise_sd, grid_cells):
    if grid_cells is not None:
        monkeypatch.setattr(signals, "_BUMP_GRID_CELLS", grid_cells)
    spec = SyntheticSpikeSpec(noise_sd=noise_sd, **fields)
    got = signals.synthesize_spiky_series(spec).values
    expected = reference_synthesized_values(spec)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# --- block reader and writer parity -------------------------------------------
#
# The reference functions below are the per-row writer and the line-loop
# reader that the block code in protoneuro._csvio stands in for. Outputs and
# errors must match them exactly.

def reference_write_series(series, path):
    with open(path, "w", newline="") as fh:
        fh.write("time_s,value\n")
        fh.write(f"# unit={series.unit}\n")
        if series.label:
            fh.write(f"# label={series.label}\n")
        for t, v in zip(series.times, series.values):
            fh.write(f"{t:.12g},{v:.9g}\n")


def reference_read_series(path):
    try:
        return reference_read_series_unblamed(path)
    except ValidationError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def reference_read_series_unblamed(path):
    times, values, numbers = [], [], []
    unit, label = signals.UNIT_MICROAMPERE, ""
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "time_s,value":
        raise ParseError("expected header 'time_s,value'", line=1)
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta = line[1:].strip()
            if meta.startswith("unit="):
                unit = meta[len("unit="):]
            elif meta.startswith("label="):
                label = meta[len("label="):]
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"expected 2 fields, got {len(parts)}", line=lineno)
        try:
            times.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        numbers.append(lineno)
    # The checks of TimeSeries, in its order, each naming its first bad line.
    for column, name in ((times, "time_s"), (values, "value")):
        for x, lineno in zip(column, numbers):
            if not math.isfinite(x):
                raise ParseError(f"{name} is {x:.9g}, not a finite number", line=lineno)
    for k in range(1, len(times)):
        if not times[k] > times[k - 1]:
            raise ParseError(f"times must be strictly increasing; {times[k]:.9g} follows "
                             f"{times[k - 1]:.9g}", line=numbers[k])
    return TimeSeries(np.array(times), np.array(values), unit=unit, label=label)


def outcome(reader, path):
    """What a reader makes of a file: its series as bytes, or its error."""
    try:
        s = reader(path)
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return s.times.tobytes(), s.values.tobytes(), s.unit, s.label


#: Values that sit on a 9- or 12-significant-digit rounding boundary.
ROUNDING_BOUNDARIES = [
    123456789.5, 0.1234567895, 9.999999995, 99999999.95, 999999999.5, 1.0000000005,
    123456789012.5, 0.9999999999995, 999999999999.5, 1.23456789e-5, 2.5e-7, 1 / 3,
]
#: Those boundaries and their neighbours, signed zeros, subnormals and the
#: ends of the double range.
SPECIAL_VALUES = (
    [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e-300, -1e-300,
     1e300, -1e300, 1.7976931348623157e308]
    + ROUNDING_BOUNDARIES
    + [np.nextafter(v, np.inf) for v in ROUNDING_BOUNDARIES]
    + [np.nextafter(v, -np.inf) for v in ROUNDING_BOUNDARIES]
)


def assert_series_writers_agree(series, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    signals.write_timeseries_csv(series, new)
    reference_write_series(series, ref)
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("n", [1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_series_writer_matches_per_row_writer_across_block_edges(tmp_path, n):
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.uniform(1e-3, 10.0, n))
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    assert_series_writers_agree(TimeSeries(times, values, label="edge"), tmp_path)


def test_series_writer_matches_per_row_writer_on_special_values(tmp_path):
    values = np.array(SPECIAL_VALUES)
    times = np.unique(values)
    assert_series_writers_agree(TimeSeries(times, values[:times.size]), tmp_path)
    assert_series_writers_agree(TimeSeries(np.arange(values.size), values), tmp_path)
    assert_series_writers_agree(TimeSeries(np.array([-0.0]), np.array([-0.0])), tmp_path)
    assert (tmp_path / "new.csv").read_text().splitlines()[-1] == "-0,-0"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(times=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=40, unique=True),
       data=st.data())
def test_series_writer_matches_per_row_writer_on_any_finite_values(tmp_path, times, data):
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(times), max_size=len(times)))
    assert_series_writers_agree(TimeSeries(np.sort(times), np.array(values)), tmp_path)


def assert_series_readers_agree(text, tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    got = outcome(signals.read_timeseries_csv, path)
    assert got == outcome(reference_read_series, path)
    return got


@pytest.mark.parametrize("body", [
    "0,1\r\n1,2\r\n",                                  # CRLF
    "0,1\n\n1,2\n\n",                                  # blank lines
    "0,1\n   \n1,2\n",                                 # whitespace-only line
    "0,1\n# label=mid\n1,2\n# unit=volt\n",            # metadata between rows
    "# unit=volt\n# note\n\n0,1\n1,2\n# label=end\n",   # and around them
    " 0 ,\t1\n\t1, 2 \n",                              # spaces and tabs
    "0,1_0\n1,2\n",                                    # float accepts, loadtxt not
    "0,nan\n1,2\n",                                    # non-finite value
    "0,1\n0,2\n",                                      # non-monotone times
    "",                                                # no rows at all
    "# unit=volt\n",                                   # metadata only
    "0,1\n1,\n",                                       # empty field
    "0,1\n1,2,3\n",                                    # stray field
    "0,1,2\n1,2,3\n",                                  # every row too wide
    "0\n1\n",                                          # every row too narrow
    "0,1\n1,x\n",                                      # not a number
    "0,\x0c1\n1,2\n",            # str.splitlines splits at \x0c; loadtxt strips it
    "0\x0b,1\n1,2\n",
    "0,1\x1c\n1,2\x85\n",
    "0,1\u2028\n1,2\n",
    "# label=a\x0cb\n0,1\n",                          # ... in a metadata line
    "0\x1f,1\n1,2\n",            # loadtxt strips \x1f from a field; float does not
    "0,\x1f1\n1,2\n",
    "# label=\u00e9\n0\x1f,1\n1,2\n",   # ... in a chunk, the file not being ASCII
])
def test_series_reader_matches_line_loop(tmp_path, body):
    assert_series_readers_agree("time_s,value\n# unit=microampere\n" + body, tmp_path)


def test_series_reader_rejects_trailing_comment_at_its_line(tmp_path):
    # loadtxt(comments="#") would accept "1,2 # note"; the format does not.
    path = tmp_path / "c.csv"
    path.write_text("time_s,value\n# unit=volt\n0,1\n1,2 # note\n2,3\n")
    with pytest.raises(ParseError, match="line 4") as err:
        signals.read_timeseries_csv(path)
    assert err.value.line == 4
    assert outcome(signals.read_timeseries_csv, path) == \
        outcome(reference_read_series, path)


def test_series_reader_keeps_metadata_placed_anywhere(tmp_path):
    times, values, unit, label = assert_series_readers_agree(
        "time_s,value\n0,1\n# label=late\n1,2\r\n# unit=volt\n2,3\n", tmp_path)
    assert (unit, label) == ("volt", "late")
    assert np.frombuffer(values).tolist() == [1.0, 2.0, 3.0]


NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.9g}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "nan", "inf", "-0", "+1", ".5", "1.", "1e5", "", "x", "2 # n"]),
)
#: Every C0 byte, the line breaks \x85 and \u2028 from outside ASCII and a
#: letter from outside ASCII: where np.loadtxt and the line loop could split
#: lines or strip fields differently.
ODD = [chr(c) for c in range(32)] + ["\x85", "\u2028", "\u00e9"]
PLAIN_PAD = st.sampled_from(["", " ", "\t", "  \t"])
PAD = st.one_of(PLAIN_PAD, PLAIN_PAD, PLAIN_PAD, st.sampled_from(ODD))


@st.composite
def series_bodies(draw):
    lines = []
    for k in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["meta", "blank", "raw"]))
        if kind == "row":
            value = draw(NUMBER)
            lines.append(f"{draw(PAD)}{k}{draw(PAD)},{draw(PAD)}{value}{draw(PAD)}")
        elif kind == "meta":
            lines.append(draw(st.sampled_from(["# unit=volt", "#label=x", "  # note",
                                               "# unit=microampere"])
                              | st.sampled_from(ODD).map("# label=a{}b".format)))
        elif kind == "blank":
            lines.append(draw(PAD))
        else:
            lines.append(",".join(draw(st.lists(NUMBER, min_size=0, max_size=3))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=series_bodies())
def test_series_reader_matches_line_loop_on_generated_files(tmp_path, body):
    assert_series_readers_agree("time_s,value\n" + body, tmp_path)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_series_reader_takes_a_written_file_chunk_by_chunk(tmp_path, monkeypatch, newline):
    # A file as the writer makes it never needs the line loop, however its
    # chunks fall.
    def line_loop(*args):
        raise AssertionError("fell back to the line loop")

    monkeypatch.setattr(_csvio, "_parse_lines", line_loop)
    monkeypatch.setattr(_csvio, "_READ_CHUNK", 7)
    series = TimeSeries(np.arange(50.0), np.linspace(-1e-3, 2e-3, 50), label="x")
    path = tmp_path / "s.csv"
    signals.write_timeseries_csv(series, path)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
    got = signals.read_timeseries_csv(path)
    assert np.array_equal(got.times, series.times)
    assert np.array_equal(got.values, np.array([float(f"{v:.9g}") for v in series.values]))
    assert got.label == "x"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_series_reader_parses_a_clean_file_in_one_call(tmp_path, monkeypatch, newline):
    # Blank and metadata lines before the first row are skipped; the rows of
    # a file that fits one chunk go to one np.loadtxt call, never to the
    # line loop.
    def line_loop(*args):
        raise AssertionError("fell back to the line loop")

    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(_csvio, "_parse_lines", line_loop)
    monkeypatch.setattr(_csvio.np, "loadtxt", spy)
    text = newline.join(["time_s,value", "# unit=volt", "", "  ", "# label=x", "0,1", "",
                         "1, 2.5", "2,-3e-4", ""])
    assert assert_series_readers_agree(text, tmp_path)[2:] == ("volt", "x")
    assert len(calls) == 1
@pytest.mark.parametrize("body, chunks", [
    ("0,1\n\n\n1,2\n\n2,3\n\n", range(1, 16)),   # empty lines, wherever the cuts fall
    ("0,1\n  \n1,2\n\t\n2,3\n \n", [1]),          # whitespace-only lines, each at a cut
])
def test_series_reader_takes_blank_lines_at_chunk_edges(tmp_path, monkeypatch, body, chunks):
    # A chunk may start with blank lines, which the line loop skips; they must
    # not send the chunk to the line loop.
    path = tmp_path / "b.csv"
    path.write_text("time_s,value\n" + body)
    expected = outcome(reference_read_series, path)

    def line_loop(*args):
        raise AssertionError("fell back to the line loop")

    monkeypatch.setattr(_csvio, "_parse_lines", line_loop)
    for chunk in chunks:
        monkeypatch.setattr(_csvio, "_READ_CHUNK", chunk)
        assert outcome(signals.read_timeseries_csv, path) == expected


@pytest.mark.parametrize("late, chunks", [("# label=late", 0), ("04950,x", 1)],
                         ids=["metadata", "bad-line"])
def test_series_reader_sends_only_the_late_lines_chunk_to_the_line_loop(
        tmp_path, monkeypatch, late, chunks):
    # A bad line near the end of a many-chunk file costs the line loop one
    # chunk, not the whole file, and a metadata line costs it none. Rows are
    # 10 characters, so the late line starts 367 characters into the last of
    # 13 chunks of 4096.
    path = tmp_path / "late.csv"
    rows = [f"{k:05d},0.5" for k in range(5000)]
    rows.insert(4950, late)
    path.write_text("time_s,value\n# unit=microampere\n" + "\n".join(rows) + "\n")
    late_line = 4950 + 3
    chunk = 4096
    looped = []
    parse_lines = _csvio._parse_lines

    def line_loop(lines, width, line, *rest):
        looped.append((line, list(lines)))
        return parse_lines(lines, width, line, *rest)

    monkeypatch.setattr(_csvio, "_parse_lines", line_loop)
    monkeypatch.setattr(_csvio, "_READ_CHUNK", chunk)
    assert outcome(signals.read_timeseries_csv, path) == outcome(reference_read_series, path)
    assert len(looped) == chunks
    for first, lines in looped:
        assert first <= late_line < first + len(lines)
        assert sum(map(len, lines)) < chunk + 30


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("late", ["# label=late", "  # note"])
def test_series_reader_sends_no_late_metadata_line_to_the_line_loop(
        tmp_path, monkeypatch, late, newline):
    # The rows on either side of a # line go to np.loadtxt, and the line to
    # the metadata hook.
    def line_loop(*args):
        raise AssertionError("fell back to the line loop")

    monkeypatch.setattr(_csvio, "_parse_lines", line_loop)
    rows = [f"{k},0.5" for k in range(100)]
    rows.insert(90, late)
    text = newline.join(["time_s,value", "# unit=volt", ""] + rows + [""])
    got = assert_series_readers_agree(text, tmp_path)
    assert got[2:] == ("volt", "late" if "label" in late else "")
    assert len(np.frombuffer(got[0])) == 100


def test_series_reader_holds_the_rows_of_a_file_with_late_metadata_once(tmp_path):
    # A # line among the rows splits its chunk in two np.loadtxt calls, and
    # every chunk's rows go into the one buffer: as tests/test_memory.py
    # bounds it for a clean file, under 24 bytes a sample (16 for the
    # series).
    n = 300_000
    path = tmp_path / "late.csv"
    series = TimeSeries(np.arange(float(n)), np.sin(np.arange(n) / 7.0) * 1e-3)
    signals.write_timeseries_csv(series, path)
    lines = path.read_text().splitlines(keepends=True)
    for at in (len(lines) - 10, len(lines) // 2, 5):
        lines.insert(at, "# label=late\n")
    path.write_text("".join(lines))
    small = tmp_path / "small.csv"
    small.write_text("time_s,value\n0,1\n# label=x\n1,2\n")
    signals.read_timeseries_csv(small)
    tracemalloc.start()
    try:
        got = signals.read_timeseries_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.label == "late" and len(got) == n
    assert peak / n < 24


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=series_bodies(), chunk=st.integers(1, 40))
def test_series_reader_matches_line_loop_across_chunk_edges(tmp_path, body, chunk):
    # The body is read in chunks of _csvio._READ_CHUNK characters; small
    # chunks put the cut next to every kind of line ending and blank line.
    old = _csvio._READ_CHUNK
    _csvio._READ_CHUNK = chunk
    try:
        assert_series_readers_agree("time_s,value\n" + body, tmp_path)
    finally:
        _csvio._READ_CHUNK = old


@pytest.mark.parametrize("chunk", [1 << 20, 16], ids=["one-chunk", "many-chunks"])
def test_read_rejects_a_byte_that_is_not_utf8_naming_its_line(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(_csvio, "_READ_CHUNK", chunk)
    path = tmp_path / "bad.csv"
    path.write_bytes(b"time_s,value\n# unit=volt\n0,1\n" + b"".join(
        b"%d,1\n" % k for k in range(1, 40)) + b"\r\n40,\xff2\n41,3\n")
    message = f"{path}: line 44: byte 0xff is not valid utf-8"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        signals.read_timeseries_csv(path)
