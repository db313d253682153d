import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protoneuro import spikes
from protoneuro._csvio import BLOCK_ROWS
from protoneuro.errors import ValidationError
from protoneuro.signals import TimeSeries
from protoneuro.spikes import (
    INCONSISTENT_REFERENCE_ROWS,
    REFERENCE_SPIKE_TABLE,
    SpikeDetectionConfig,
    SpikeStats,
    SpikeTrain,
)

from oracles import detect_spikes_naive

# Rows at the edges of the writers' first block and of their fourth.
BLOCK_EDGES = [k * BLOCK_ROWS + e for k in (1, 4) for e in (-1, 0, 1)]

DEFAULT = SpikeDetectionConfig()


def bumps(spike_times, amplitudes, duration):
    spec_times = np.arange(duration + 1.0)
    values = np.zeros(spec_times.size)
    for t0, a in zip(spike_times, amplitudes):
        values += a * np.exp(-((spec_times - t0) ** 2) / (2 * 1.2**2))
    return TimeSeries(spec_times, values)


def random_series(rng):
    n = int(rng.integers(100, 10001))
    dt = rng.choice([0.5, 1.0, 2.0])
    times = np.arange(n) * dt
    base = rng.standard_normal(n).cumsum() * rng.uniform(0.01, 0.2)
    noise = rng.standard_normal(n) * rng.uniform(0.0, 0.5)
    return TimeSeries(times, base + noise)


def random_config(rng, series):
    thr = float(np.quantile(series.values, rng.uniform(0.80, 0.999)))
    return SpikeDetectionConfig(threshold=thr,
                                min_peak_distance=float(rng.uniform(0.0, 30.0)))


def test_flat_series_has_no_spikes():
    s = TimeSeries(np.arange(100.0), np.zeros(100))
    assert len(spikes.detect_spikes(s, DEFAULT)) == 0
    assert len(detect_spikes_naive(s, DEFAULT)) == 0


def test_three_bumps_detected():
    s = bumps([10, 20, 30], [0.001] * 3, 50)
    train = spikes.detect_spikes(s, DEFAULT)
    oracle = detect_spikes_naive(s, DEFAULT)
    assert np.array_equal(train.spike_times, [10, 20, 30])
    assert np.array_equal(train.spike_times, oracle.spike_times)
    assert np.array_equal(train.spike_amplitudes, oracle.spike_amplitudes)


def test_close_bumps_keep_higher_amplitude():
    # 3 s apart with a 5 s minimum distance: only the taller peak survives.
    s = bumps([10, 13], [0.002, 0.001], 40)
    train = spikes.detect_spikes(s, DEFAULT)
    assert np.array_equal(train.spike_times, [10.0])
    oracle = detect_spikes_naive(s, DEFAULT)
    assert np.array_equal(oracle.spike_times, [10.0])


def test_threshold_is_strict():
    v = np.zeros(11)
    v[5] = 0.0005  # exactly at threshold: not a spike
    s = TimeSeries(np.arange(11.0), v)
    assert len(spikes.detect_spikes(s, DEFAULT)) == 0
    v2 = v.copy()
    v2[5] = np.nextafter(0.0005, 1.0)
    assert len(spikes.detect_spikes(TimeSeries(np.arange(11.0), v2), DEFAULT)) == 1


def test_plateau_takes_first_sample():
    v = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    s = TimeSeries(np.arange(5.0), v)
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=0.0)
    train = spikes.detect_spikes(s, cfg)
    assert np.array_equal(train.spike_times, [1.0])
    assert np.array_equal(detect_spikes_naive(s, cfg).spike_times, [1.0])


def test_endpoints_are_not_peaks():
    s = TimeSeries(np.arange(4.0), np.array([2.0, 1.0, 1.5, 3.0]))
    cfg = SpikeDetectionConfig(threshold=0.0, min_peak_distance=0.0)
    assert len(spikes.detect_spikes(s, cfg)) == 0
    # plateau running into the end is not a peak either
    s2 = TimeSeries(np.arange(4.0), np.array([0.0, 2.0, 2.0, 2.0]))
    assert len(spikes.detect_spikes(s2, cfg)) == 0


def test_amplitude_tie_keeps_earlier_peak():
    v = np.zeros(12)
    v[3] = 1.0
    v[6] = 1.0  # same height, 3 s later
    s = TimeSeries(np.arange(12.0), v)
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=5.0)
    train = spikes.detect_spikes(s, cfg)
    assert np.array_equal(train.spike_times, [3.0])


def test_exact_min_distance_is_allowed():
    v = np.zeros(12)
    v[3] = 1.0
    v[8] = 0.9
    s = TimeSeries(np.arange(12.0), v)
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=5.0)
    assert np.array_equal(spikes.detect_spikes(s, cfg).spike_times, [3.0, 8.0])


def test_min_distance_is_measured_in_seconds():
    # same samples, stretched time axis: the 5 s rule prunes only the
    # tightly-sampled variant
    v = np.zeros(9)
    v[3], v[5] = 1.0, 0.9
    dense = TimeSeries(np.arange(9.0), v)            # peaks 2 s apart
    sparse = TimeSeries(np.arange(9.0) * 4.0, v)     # peaks 8 s apart
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=5.0)
    assert len(spikes.detect_spikes(dense, cfg)) == 1
    assert len(spikes.detect_spikes(sparse, cfg)) == 2
    # irregular stamps behave identically in both implementations
    rng = np.random.default_rng(20)
    times = np.cumsum(rng.uniform(0.2, 3.0, 400))
    values = rng.standard_normal(400)
    s = TimeSeries(times, values)
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=4.0)
    fast = spikes.detect_spikes(s, cfg)
    naive = detect_spikes_naive(s, cfg)
    assert np.array_equal(fast.spike_times, naive.spike_times)


def test_oracle_equivalence_on_random_signals():
    rng = np.random.default_rng(7)
    for _ in range(60):
        s = random_series(rng)
        cfg = random_config(rng, s)
        fast = spikes.detect_spikes(s, cfg)
        naive = detect_spikes_naive(s, cfg)
        assert np.array_equal(fast.spike_times, naive.spike_times)
        assert np.array_equal(fast.spike_amplitudes, naive.spike_amplitudes)



@st.composite
def plateau_series_and_config(draw):
    n = draw(st.integers(3, 300))
    # A quantised random walk: zero steps make plateaus, the grid makes ties.
    steps = draw(st.lists(st.sampled_from([-2, -1, 0, 0, 0, 1, 2]), min_size=n, max_size=n))
    k = draw(st.sampled_from([1, 2, 4]))
    values = np.round(np.cumsum(steps, dtype=np.float64) * k) / k
    gaps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 4.0]), min_size=n, max_size=n))
    times = draw(st.sampled_from([0.0, 1e6])) + np.cumsum(gaps)
    threshold = draw(st.sampled_from(sorted(set(values.tolist()))))
    lag = draw(st.integers(1, 8))
    distance = draw(st.sampled_from([0.0, *(times[lag:] - times[:-lag]).tolist()]))
    return TimeSeries(times, values), SpikeDetectionConfig(threshold, distance)


@settings(max_examples=150, deadline=None)
@given(case=plateau_series_and_config())
def test_oracle_equivalence_on_quantised_plateau_signals(case):
    series, cfg = case
    fast = spikes.detect_spikes(series, cfg)
    naive = detect_spikes_naive(series, cfg)
    assert np.array_equal(fast.spike_times, naive.spike_times)
    assert np.array_equal(fast.spike_amplitudes, naive.spike_amplitudes)


class Split:
    """A series as a stream of the blocks between ``cuts``."""

    def __init__(self, series, cuts):
        self.series, self.edges = series, [0, *cuts, len(series)]

    def blocks(self):
        return ((self.series.times[a:b], self.series.values[a:b])
                for a, b in zip(self.edges, self.edges[1:]))


@st.composite
def split_series_and_config(draw):
    n = draw(st.integers(1, 80))
    shape = draw(st.sampled_from(["walk", "plateaus", "flat"]))
    if shape == "flat":
        values = np.full(n, 1.0)
    else:
        # A quantised walk; "plateaus" repeats each level, so runs of equal
        # values span several blocks.
        steps = draw(st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=n, max_size=n))
        values = np.cumsum(steps, dtype=np.float64)
        if shape == "plateaus":
            values = np.repeat(values, draw(st.integers(2, 9)))[:n]
    times = np.cumsum(draw(st.lists(st.sampled_from([0.5, 1.0, 4.0]), min_size=n, max_size=n)))
    threshold = draw(st.sampled_from(sorted({values.min() - 1.0, *values.tolist()})))
    distance = draw(st.sampled_from([0.0, 1.0, 5.0, 20.0]))
    if n == 1 or draw(st.booleans()):
        cuts = list(range(1, n))  # blocks of one sample
    else:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    return TimeSeries(times, values), SpikeDetectionConfig(threshold, distance), cuts


@settings(max_examples=300, deadline=None)
@given(case=split_series_and_config())
def test_detection_on_any_split_into_blocks_is_detection_on_the_whole(case):
    series, cfg, cuts = case
    whole = spikes.detect_spikes(series, cfg)
    split = spikes.detect_spikes(Split(series, cuts), cfg)
    assert np.array_equal(split.spike_times, whole.spike_times)
    assert np.array_equal(split.spike_amplitudes, whole.spike_amplitudes)
    assert split.duration == whole.duration


def test_detection_finds_a_plateau_peak_that_spans_blocks():
    values = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0, 0.0])
    series = TimeSeries(np.arange(10.0), values)
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=0.0)
    for cuts in ([], [2, 4], list(range(1, 10)), [1, 8]):
        train = spikes.detect_spikes(Split(series, cuts), cfg)
        assert train.spike_times.tolist() == [1.0, 7.0]


@st.composite
def streamed_cases(draw):
    n = draw(st.integers(3, 120))
    # Integer levels make equal amplitudes common; repeated levels make
    # plateaus that straddle block edges.
    steps = draw(st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=n, max_size=n))
    values = np.cumsum(steps, dtype=np.float64)
    if draw(st.booleans()):
        values = np.repeat(values, draw(st.integers(2, 5)))[:n]
    # Gaps of half seconds put candidates exactly a minimum distance apart,
    # unless the 1e6 + 0.3 offset rounds the differences.
    gaps = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
    times = draw(st.sampled_from([0.0, 1e6 + 0.3])) + np.cumsum(gaps)
    threshold = draw(st.sampled_from(sorted({values.min() - 1.0, *values.tolist()})))
    distance = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 5.0]))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    batch = draw(st.integers(1, 4))
    return TimeSeries(times, values), SpikeDetectionConfig(threshold, distance), cuts, batch


def detect_in_batches(series, cfg, batch, cuts=()):
    """detect_spikes on ``series`` split at ``cuts``, pruning once ``batch``
    candidates are held, and the candidate times of each kernel call."""
    calls = []
    prune = spikes._kernels.prune_min_distance

    def spy(t, a, d):
        calls.append(t.tolist())
        return prune(t, a, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spikes, "_PRUNE_BATCH", batch)
        mp.setattr(spikes._kernels, "prune_min_distance", spy)
        return spikes.detect_spikes(Split(series, cuts), cfg), calls


def assert_same_train(got, want):
    assert np.array_equal(got.spike_times, want.spike_times)
    assert np.array_equal(got.spike_amplitudes, want.spike_amplitudes)


@settings(max_examples=300, deadline=None)
@given(case=streamed_cases())
def test_pruning_group_by_group_is_one_prune_over_all_candidates(case):
    series, cfg, cuts, batch = case
    streamed, calls = detect_in_batches(series, cfg, batch, cuts)
    # The whole series is one block of at most 120 samples: one prune.
    whole, whole_calls = detect_in_batches(series, cfg, spikes._PRUNE_BATCH)
    assert len(whole_calls) == 1
    assert_same_train(streamed, whole)
    assert_same_train(streamed, detect_spikes_naive(series, cfg))
    # Every candidate goes to the kernel once, in time order.
    assert sum(calls, []) == whole_calls[0]


def peaks_at(times, amplitudes, n=20):
    """A series on 0, 1, ..., n - 1 s that is 0 but for the given samples."""
    values = np.zeros(n)
    values[list(times)] = amplitudes
    return TimeSeries(np.arange(float(n)), values)


def test_a_gap_of_exactly_the_minimum_distance_closes_a_group():
    series = peaks_at([4, 9], [2.0, 1.0])
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=5.0)
    train, calls = detect_in_batches(series, cfg, 1, [7])
    assert train.spike_times.tolist() == [4.0, 9.0]
    assert [4.0] in calls and calls[-1] == [9.0]  # pruned apart


def test_zero_minimum_distance_prunes_all_but_the_last_candidate_of_each_batch():
    series = peaks_at([2, 4, 6, 8, 10, 12], [1.0, 3.0, 2.0, 2.0, 1.0, 1.0])
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=0.0)
    train, calls = detect_in_batches(series, cfg, 1, [3, 5, 7, 9, 11])
    assert train.spike_times.tolist() == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    # Each candidate ends a group, so only the last one waits for the end.
    assert sum(calls, []) == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0] and calls[-1] == [12.0]


@pytest.mark.parametrize("amplitudes, kept", [([1.0, 1.0], [4.0]), ([1.0, 2.0], [8.0])])
def test_a_group_across_a_block_edge_is_pruned_whole(amplitudes, kept):
    # Equal amplitudes 4 s apart on either side of the edge: the earlier
    # wins, where pruning each block on its own would keep both.
    series = peaks_at([4, 8], amplitudes)
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=5.0)
    train, calls = detect_in_batches(series, cfg, 1, [6])
    assert train.spike_times.tolist() == kept
    assert [4.0, 8.0] in calls


def test_a_plateau_across_a_block_edge_is_one_candidate():
    values = np.zeros(20)
    values[3:7] = 1.0  # samples 3 to 6; the block edge falls at 5
    values[12] = 1.0
    series = TimeSeries(np.arange(20.0), values)
    cfg = SpikeDetectionConfig(threshold=0.5, min_peak_distance=2.0)
    for cuts in ([5], [4, 5, 6], list(range(1, 20))):
        train, calls = detect_in_batches(series, cfg, 1, cuts)
        assert train.spike_times.tolist() == [3.0, 12.0]
        assert sum(calls, []) == [3.0, 12.0]


def test_output_invariants_on_random_signals():
    rng = np.random.default_rng(8)
    for _ in range(40):
        s = random_series(rng)
        cfg = random_config(rng, s)
        train = spikes.detect_spikes(s, cfg)
        assert np.all(train.spike_amplitudes > cfg.threshold)
        if len(train) > 1:
            assert np.all(np.diff(train.spike_times) >= cfg.min_peak_distance)
        # determinism
        again = spikes.detect_spikes(s, cfg)
        assert np.array_equal(train.spike_times, again.spike_times)


def test_raising_threshold_never_adds_spikes():
    rng = np.random.default_rng(9)
    for _ in range(25):
        s = random_series(rng)
        lo = random_config(rng, s)
        hi = SpikeDetectionConfig(threshold=lo.threshold + abs(lo.threshold) * 0.5 + 0.1,
                                  min_peak_distance=lo.min_peak_distance)
        assert len(spikes.detect_spikes(s, hi)) <= len(spikes.detect_spikes(s, lo))


def test_stats_reference_isi_values():
    train = SpikeTrain(np.arange(0, 726 * 22.24, 22.24), np.ones(726), duration=726 * 22.24)
    st = spikes.compute_stats(train)
    assert st.mean_isi == pytest.approx(22.24, rel=1e-12)
    assert st.frequency == pytest.approx(44.97, rel=1e-3)
    train2 = SpikeTrain(np.arange(0, 900 * 12.32, 12.32), np.ones(900), duration=900 * 12.32)
    assert spikes.compute_stats(train2).frequency == pytest.approx(81.15, rel=1e-3)


def test_stats_product_identity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        times = np.cumsum(rng.uniform(1, 100, rng.integers(2, 50)))
        st = spikes.compute_stats(SpikeTrain(times, np.ones(times.size), duration=times[-1]))
        assert st.frequency * st.mean_isi == pytest.approx(1000.0, rel=1e-9)


def test_single_spike_has_undefined_isi():
    st = spikes.compute_stats(SpikeTrain(np.array([5.0]), np.array([1.0]), duration=10))
    assert st.count == 1
    assert st.mean_isi is None
    assert st.frequency is None


def test_aggregate_single_element():
    st = SpikeStats(count=5, mean_isi=2.0, frequency=500.0, duration=10.0)
    assert spikes.aggregate_stats([st]) == (5.0, 2.0)


def test_aggregate_reference_table():
    stats = [SpikeStats(count=c, mean_isi=isi, frequency=f, duration=0.0)
             for _, c, isi, f in REFERENCE_SPIKE_TABLE]
    mean_count, mean_isi = spikes.aggregate_stats(stats)
    assert mean_count == pytest.approx(348.58, abs=0.005)
    assert mean_isi == pytest.approx(459.0, abs=0.005)


def test_aggregate_skips_undefined_isi():
    stats = [SpikeStats(count=1, mean_isi=None, frequency=None, duration=1.0),
             SpikeStats(count=3, mean_isi=4.0, frequency=250.0, duration=1.0)]
    assert spikes.aggregate_stats(stats) == (2.0, 4.0)
    only = [SpikeStats(count=1, mean_isi=None, frequency=None, duration=1.0)]
    assert spikes.aggregate_stats(only) == (1.0, None)


@pytest.mark.parametrize("field, value", [
    ("threshold", np.nan), ("threshold", np.inf),
    ("min_peak_distance", -1.0), ("min_peak_distance", np.nan),
])
def test_detection_config_rejects_bad_values(field, value):
    with pytest.raises(ValidationError, match=field):
        SpikeDetectionConfig(**{field: value})


def test_aggregate_empty_rejected():
    with pytest.raises(ValidationError):
        spikes.aggregate_stats([])


def test_reference_table_consistency_flags():
    for label, _, isi, freq in REFERENCE_SPIKE_TABLE:
        consistent = abs(1000.0 / isi - freq) / freq < 0.01
        assert consistent == (label not in INCONSISTENT_REFERENCE_ROWS)


def test_spiketrain_export(tmp_path):
    s = bumps([10, 20], [0.001, 0.002], 40)
    train = spikes.detect_spikes(s, DEFAULT)
    path = tmp_path / "train.csv"
    spikes.write_spiketrain_csv(train, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "spike_time_s,amplitude"
    assert len(lines) == 3


def test_stats_json(tmp_path):
    import json
    st = SpikeStats(count=3, mean_isi=10.0, frequency=100.0, duration=50.0)
    path = tmp_path / "stats.json"
    spikes.write_stats_json(st, path, label="demo")
    doc = json.loads(path.read_text())
    assert doc == {"label": "demo", "count": 3, "mean_isi_s": 10.0,
                   "frequency_mhz": 100.0, "duration_s": 50.0}


def reference_write_spiketrain(train, path):
    # The per-row writer that write_spiketrain_csv's block writer replaced.
    with open(path, "w", newline="") as fh:
        fh.write("spike_time_s,amplitude\n")
        for t, a in zip(train.spike_times, train.spike_amplitudes):
            fh.write(f"{t:.9g},{a:.9g}\n")


@pytest.mark.parametrize("n", [0, 1, *BLOCK_EDGES, -1])
def test_spiketrain_writer_matches_per_row_writer(tmp_path, n):
    if n >= 0:
        rng = np.random.default_rng(n)
        times = np.cumsum(rng.uniform(1e-3, 100.0, n))
        amplitudes = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    else:  # signed zeros, subnormals, extremes and 9-digit rounding boundaries
        amplitudes = np.array([-0.0, 0.0, 5e-324, -1e-300, 1e300, 123456789.5,
                               0.1234567895, 9.999999995, np.nextafter(9.999999995, 0.0)])
        times = np.unique(amplitudes)
        amplitudes = amplitudes[:times.size]
    train = SpikeTrain(times, amplitudes)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    spikes.write_spiketrain_csv(train, new)
    reference_write_spiketrain(train, ref)
    assert new.read_bytes() == ref.read_bytes()


def too_close_pair():
    values = np.zeros(40)
    values[[10, 12]] = [0.002, 0.001]
    return TimeSeries(np.arange(40.0), values)


def test_detect_rejects_a_kernel_that_keeps_close_peaks(monkeypatch):
    monkeypatch.setattr(spikes._kernels, "prune_min_distance",
                        lambda t, a, d: np.arange(t.size))
    with pytest.raises(ValidationError, match="spike 1: .* minimum peak distance"):
        spikes.detect_spikes(too_close_pair(), DEFAULT)


def test_train_check_names_first_spike_at_or_below_threshold():
    train = SpikeTrain([1.0, 10.0, 20.0], [0.001, 0.0005, 0.0001])
    with pytest.raises(ValidationError, match="spike 1: amplitude"):
        spikes._check_train_valid(train, DEFAULT)


def test_train_check_survives_python_optimise_flag():
    # python -O strips assert statements; the check must still raise.
    script = (
        "import numpy as np\n"
        "from protoneuro import spikes\n"
        "from protoneuro.errors import ValidationError\n"
        "from protoneuro.signals import TimeSeries\n"
        "spikes._kernels.prune_min_distance = lambda t, a, d: np.arange(t.size)\n"
        "values = np.zeros(40)\n"
        "values[[10, 12]] = [0.002, 0.001]\n"
        "try:\n"
        "    spikes.detect_spikes(TimeSeries(np.arange(40.0), values),\n"
        "                         spikes.SpikeDetectionConfig())\n"
        "except ValidationError as exc:\n"
        "    print('rejected', exc)\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = os.path.dirname(os.path.dirname(spikes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("rejected spike 1:")
