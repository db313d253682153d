"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value here is written out locally so the gate stays
independent of the package's own constants.
"""

import json
import math
import time

import numpy as np

from protoneuro import cli, coding, dpv, networks, qsar, signals, spikes

DETECTION = spikes.SpikeDetectionConfig(threshold=0.0005, min_peak_distance=5.0)

# label, spike count, mean ISI (s), frequency (mHz); the two rows whose
# frequency column contradicts 1000/mean ISI are excluded from criterion 1.
CONSISTENT_ROWS = (
    ("L-Glu:L-Asp", 726, 22.24, 44.97),
    ("L-Glu:L-Asp:L-Phe", 359, 50.48, 19.80),
    ("L-Lys:L-Phe:L-Glu", 210, 85.75, 11.66),
    ("L-Glu:L-Phe:L-His", 382, 42.21, 23.69),
    ("L-Glu:L-Phe:PLLA", 555, 32.71, 30.57),
    ("L-Lys:L-Phe:L-His:PLLA", 195, 77.29, 12.94),
    ("L-Phe:L-Lys", 28, 666.11, 1.50),
    ("L-Glu:L-Asp:L-Pro", 8, 2541.00, 0.39),
    ("L-Phe", 900, 12.32, 81.15),
    ("L-Glu:L-Phe", 12, 1412.55, 0.71),
)

FIXED_WEIGHTS = [
    [-1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0],
    [1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0],
    [1.0, -1.0, -0.4, -1.0, -0.8, -1.0, -1.0, 1.0, -1.0, -1.0],
    [-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0],
    [-1.0, -1.0, 0.2, -1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0],
    [-1.0, 1.0, 0.5, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 0.7],
    [1.0, -0.5, -0.6, 0.7, 1.0, 1.0, -0.7, 1.0, 1.0, -1.0],
    [-1.0, 1.0, 1.0, -0.9, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0],
    [1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
    [0.3, 1.0, -1.0, -1.0, -0.2, -1.0, 0.1, -1.0, 1.0, -1.0],
]


def verdict(number, name, ok, detail=""):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_spike_table_frequencies():
    started = time.perf_counter()
    worst = 0.0
    ok = True
    for row, (label, count, mean_isi, freq_mhz) in enumerate(CONSISTENT_ROWS):
        spec = signals.SyntheticSpikeSpec(
            duration=(count + 1) * mean_isi, count=count, mean_isi=mean_isi,
            jitter_fraction=0.2, spike_amplitude=0.001, noise_sd=0.00005,
            seed=1000 + row, label=label)
        series = signals.synthesize_spiky_series(spec)
        stats = spikes.compute_stats(spikes.detect_spikes(series, DETECTION))
        rel = abs(stats.frequency - freq_mhz) / freq_mhz
        worst = max(worst, rel)
        ok = ok and stats.count == count and rel < 0.01
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    verdict(1, "surrogate spike-table frequencies within 1%", ok,
            f"worst relative error {worst:.4%}, {elapsed:.1f}s")


def test_criterion_2_detector_matches_naive_oracle():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(100, 10001))
        dt = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
        values = (rng.standard_normal(n).cumsum() * rng.uniform(0.01, 0.2)
                  + rng.standard_normal(n) * rng.uniform(0.0, 0.5))
        series = signals.TimeSeries(np.arange(n) * dt, values)
        config = spikes.SpikeDetectionConfig(
            threshold=float(np.quantile(values, rng.uniform(0.80, 0.999))),
            min_peak_distance=float(rng.uniform(0.0, 30.0)))
        fast = spikes.detect_spikes(series, config)
        naive = spikes.detect_spikes_naive(series, config)
        if not (np.array_equal(fast.spike_times, naive.spike_times)
                and np.array_equal(fast.spike_amplitudes, naive.spike_amplitudes)):
            mismatches += 1
    verdict(2, "detector equals naive oracle on 200 random signals",
            mismatches == 0, f"{mismatches} mismatches")


def test_criterion_3_dpv_protocol_arithmetic():
    params = dpv.DpvParameters(equilibrium_time=100.0, start_potential=-8.0,
                               end_potential=8.0, step_size=0.001,
                               pulse_amplitude=0.2, pulse_width=0.08, scan_rate=0.001)
    steps = dpv.step_count(params)
    duration = dpv.scan_duration(params)
    instants = len(dpv.sample_instants(params))
    ok = steps == 16000 and duration == 16000.0 and instants == 32000
    verdict(3, "protocol arithmetic exact", ok,
            f"steps={steps} duration={duration} instants={instants}")


def test_criterion_4_temporal_coding():
    rng = np.random.default_rng(7)
    pots = rng.standard_normal((10, 200)) * 0.002
    theta = 0.0005
    code = coding.encode(pots, theta)
    binary = np.isin(code.entries, (0, 1)).all()

    boundary_pots = pots.copy()
    boundary_pots[0, :5] = theta  # exact threshold must code to 0
    strict = not coding.encode(boundary_pots, theta).entries[0, :5].any()

    monotone = True
    prev = coding.encode(pots, -0.004).entries
    for t in np.linspace(-0.002, 0.004, 7):
        cur = coding.encode(pots, float(t)).entries
        monotone = monotone and not np.any(cur > prev)
        prev = cur

    fixture = coding.reference_weight_matrix().entries
    cells = np.array_equal(fixture, np.array(FIXED_WEIGHTS))

    ok = binary and strict and monotone and cells
    verdict(4, "temporal coding strict/monotone + fixed matrix cell-for-cell", ok,
            f"binary={binary} strict={strict} monotone={monotone} cells={cells}")


def test_criterion_5_qsar_predict_fit_coverage():
    started = time.perf_counter()
    origin = qsar.predict(qsar.REFERENCE_COEFFICIENTS, 0.0, 0.0)
    origin_exact = origin == 2349.0

    rng = np.random.default_rng(31)
    truth = np.array([2349.0, -12.08, -1770.0, -0.1149, 48.49, -2545.0,
                      0.04667, -17.24, 1151.0])
    truth_coeffs = qsar.QsarCoefficients.from_array(truth)
    x = rng.uniform(100.0, 700.0, 30)
    y = rng.integers(1, 9, 30).astype(float)
    clean = qsar.predict(truth_coeffs, x, y)

    def observations(rates):
        return [qsar.QsarObservation(
            qsar.SamplePredictors(f"s{i}", float(x[i]), float(y[i])), float(rates[i]))
            for i in range(30)]

    fitted = qsar.fit(observations(clean)).coefficients.as_array()
    round_trip = bool(np.all(np.abs(fitted - truth) <= 1e-6 * np.abs(truth)))

    hits = np.zeros(9)
    reps = 500
    for _ in range(reps):
        noisy = clean + rng.standard_normal(30) * 40.0
        obs = observations(noisy)
        bounds = qsar.confidence_bounds(qsar.fit(obs), obs, level=0.95)
        for j, name in enumerate(qsar.COEFFICIENT_NAMES):
            lo, hi = bounds[name]
            hits[j] += lo <= truth[j] <= hi
    coverage = hits / reps
    covered = bool(np.all(coverage >= 0.90) and np.all(coverage <= 0.99))
    elapsed = time.perf_counter() - started
    ok = origin_exact and round_trip and covered and elapsed < 30.0
    verdict(5, "surface predict/fit/coverage", ok,
            f"origin={origin} round_trip={round_trip} "
            f"coverage=[{coverage.min():.3f},{coverage.max():.3f}] {elapsed:.1f}s")


def test_criterion_6_percent_deviation():
    value = qsar.percent_deviation(535.4877, 536.0542)
    ok = abs(value - 0.1058) <= 0.001
    verdict(6, "percent deviation of the closest-fit sample", ok, f"{value:+.4f}%")


def test_criterion_7_network_dynamics_match_closed_forms():
    lif = networks.LifParameters(membrane_time_constant=0.020, threshold=-0.050,
                                 reset=-0.065, rest=-0.065, refractory=0.0, dt=1e-4)
    net = networks.SpikingNetwork(n=1, recurrent_weights=[[0.0]], input_weights=[[1.0]],
                                  output_weights=[[1.0]], lif=lif)
    current = 1.5
    i_eff = lif.membrane_time_constant * current
    analytic = lif.membrane_time_constant * math.log(
        i_eff / (i_eff - (lif.threshold - lif.rest)))
    trace = networks.run_spiking(net, np.full((1, int(2.0 / lif.dt)), current))
    periods = np.diff(trace.spike_times)
    lif_err = abs(periods.mean() - analytic) / analytic
    lif_ok = lif_err < 0.01

    tau = 0.010
    rate_net = networks.RateNetwork(n=1, recurrent_weights=[[0.0]],
                                    input_weights=[[1.0]], time_constant=tau, dt=1e-5)
    c = 0.5
    rate_trace = networks.run_rate(rate_net, np.full((1, int(5 * tau / rate_net.dt)), c))
    x_final = math.atanh(rate_trace.unit_activities[0, -1])
    rate_err = abs(x_final - c) / c
    rate_ok = rate_err < 0.01

    verdict(7, "LIF period and rate-network step response within 1%",
            lif_ok and rate_ok, f"lif_err={lif_err:.4%} rate_err={rate_err:.4%}")


def test_criterion_8_pipeline_byte_determinism(tmp_path, capsys):
    rows = [("alpha", (10.0, 40.0, 70.0)), ("beta", (20.0, 60.0)), ("gamma", (15.0,))]
    files = []
    for label, st in rows:
        spec = signals.SyntheticSpikeSpec(duration=100.0, spike_times=st, label=label,
                                          noise_sd=0.00004, seed=3)
        path = tmp_path / f"{label}.csv"
        signals.write_timeseries_csv(signals.synthesize_spiky_series(spec), path)
        files.append(path.name)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "sample_labels": [r[0] for r in rows], "source_files": files, "seed": 99,
    }))
    code1 = cli.main(["pipeline", str(manifest), "--output-dir", str(tmp_path / "r1")])
    code2 = cli.main(["pipeline", str(manifest), "--output-dir", str(tmp_path / "r2")])
    capsys.readouterr()
    first = (tmp_path / "r1" / "report.json").read_bytes()
    second = (tmp_path / "r2" / "report.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and first == second
    verdict(8, "pipeline reruns are byte-identical", ok,
            f"{len(first)} bytes compared")
