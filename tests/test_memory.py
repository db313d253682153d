"""Peak memory of the series path, the simulation kernels, the block writer
and the DPV waveform: in bytes per sample (a neuron-step for the kernels, a
spike for the raster, a row for the writer), and in bytes for the waveform.

``tracemalloc`` traces NumPy's array buffers as well as Python objects, so
the peak over a call counts every copy of the data the call holds at once.
A float64 sample takes 8 bytes, and a series (times and values) 16. Each
call is made once on a tiny input first, so that first-use imports do not
count.
"""

import json
import tracemalloc

import numpy as np

from protoneuro import _csvio, cli, networks, signals
from protoneuro._kernels import pure
from protoneuro.signals import SyntheticSpikeSpec

N = 300_000


def traced_peak(call, *args):
    """The peak of traced memory over ``call(*args)``, and its result."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def peak_bytes_per_sample(call, *args):
    return traced_peak(call, *args)[0] / N


def noisy_spec(samples):
    return SyntheticSpikeSpec(duration=samples - 1, count=samples // 300, mean_isi=250.0,
                              jitter_fraction=0.3, noise_sd=3e-4, seed=5)


def test_reader_holds_the_rows_once(tmp_path):
    # One (n, 2) array of rows, grown in place, whose columns the series
    # adopts: about 17 bytes a sample, against 51 for chunks of line
    # strings, their blocks concatenated and the columns then copied.
    path = tmp_path / "s.csv"
    signals.write_timeseries_csv(signals.synthesize_spiky_series(noisy_spec(N)), path)
    small = tmp_path / "small.csv"
    small.write_text("time_s,value\n# unit=volt\n0,1\n1,2\n")
    signals.read_timeseries_csv(small)
    assert peak_bytes_per_sample(signals.read_timeseries_csv, path) < 24


def test_synthesis_with_noise_holds_the_series_once():
    # Times and values, plus one block of noise: about 20 bytes a sample,
    # against 33 for a whole noise draw, its scaled copy and their sum.
    signals.synthesize_spiky_series(noisy_spec(1000))
    assert peak_bytes_per_sample(signals.synthesize_spiky_series, noisy_spec(N)) < 24


def synth_argv(path, samples):
    return ["synth", "--out", str(path), "--count", str(samples // 300), "--mean-isi", "250",
            "--jitter", "0.3", "--noise-sd", "3e-4", "--duration", str(samples - 1), "--seed", "5"]


def test_synth_holds_one_block_not_the_series(tmp_path, capsys):
    # synth makes, checks and writes the series a block of 16,384 samples at
    # a time, so its peak does not grow with the series: 1e5 and 1e6
    # samples peak within 0.1 MB of each other (about 1.4 MB; 5.6 MB with
    # blocks of 65,536). Made whole and then written, the 1e6-sample series
    # peaked 14.5 MB higher.
    assert cli.main(synth_argv(tmp_path / "tiny.csv", 1000)) == 0
    small, code = traced_peak(cli.main, synth_argv(tmp_path / "small.csv", 100_000))
    assert code == 0
    large, code = traced_peak(cli.main, synth_argv(tmp_path / "large.csv", 1_000_000))
    assert code == 0
    assert "samples=1000000 " in capsys.readouterr().out
    assert abs(large - small) < 2e6


def test_detect_holds_a_chunk_of_the_file_not_the_series(tmp_path, capsys):
    # detect reads the file in blocks of rows and prunes the candidates a
    # batch of 8,192 at a time, so what grows with the series is the kept
    # train, 16 bytes a spike: 1e5 and 1e6 samples peak about 1.0 and 2.3
    # MB (4,216 and 42,232 spikes). The 1 MB slack covers the larger run's
    # full batches, where the smaller prunes its 4,938 candidates once
    # (about 110 bytes a candidate in the kernel), and its kept buffers,
    # grown by a quarter. Pruning every candidate at the end, 1e6 samples
    # peaked 6.1 MB above 1e5 (7.1 MB).
    small = tmp_path / "small.csv"
    small.write_text("time_s,value\n0,0\n1,1\n2,0\n")
    assert cli.main(["detect", str(small)]) == 0
    capsys.readouterr()
    peaks, counts = [], []
    for samples in (100_000, 1_000_000):
        path = tmp_path / f"s{samples}.csv"
        signals.write_timeseries_csv(signals.synthesize_spiky_series(noisy_spec(samples)), path)
        peak, code = traced_peak(cli.main, ["detect", str(path), "--threshold", "5e-4",
                                            "--min-distance", "5"])
        assert code == 0
        peaks.append(peak)
        counts.append(int(capsys.readouterr().out.split("count=")[1].split()[0]))
    assert counts[1] > 40_000
    assert peaks[1] - peaks[0] < 16 * (counts[1] - counts[0]) + 1e6


def test_pipeline_reads_one_file_at_a_time(tmp_path, capsys):
    # Six files of 100,000 samples on a 10-neuron network. The pipeline holds
    # one file's rows while it reads, plus a copy of 8 bytes a sample of each
    # file read before; its peak, about 23 bytes a sample of all files, is
    # the code it encodes and writes. Every series held until the report
    # was written, with the int64 temporaries of an isin check as large as
    # the potential matrix, took about 51.
    files, samples = 6, 100_000
    for k in range(files):
        spec = SyntheticSpikeSpec(duration=samples - 1, count=samples // 300, mean_isi=250.0,
                                  jitter_fraction=0.3, noise_sd=3e-4, seed=k, label=f"s{k}")
        signals.write_timeseries_csv(signals.synthesize_spiky_series(spec), tmp_path / f"s{k}.csv")
    labels = [f"s{k}" for k in range(files)]
    for name, count in (("small.json", 1), ("m.json", files)):
        (tmp_path / name).write_text(json.dumps({
            "sample_labels": labels[:count], "source_files": [f"{x}.csv" for x in labels[:count]],
            "coding": {"neuron_count": 10, "threshold": 5e-4}, "seed": 7}))
    assert cli.main(["pipeline", str(tmp_path / "small.json"), "--output-dir",
                     str(tmp_path / "small")]) == 0
    peak, code = traced_peak(cli.main, ["pipeline", str(tmp_path / "m.json"), "--output-dir",
                                        str(tmp_path / "out")])
    assert code == 0
    assert f"samples_ok={files} samples_failed=0" in capsys.readouterr().out
    assert peak / (files * samples) < 36


def test_waveform_holds_no_segment_list(tmp_path, capsys):
    # 32,000 steps: each segment is made from its step and written as it is
    # made, so the peak is the file buffer and a few rows, about 0.13 MB.
    # A tuple of two segments a step and the whole CSV as one string took
    # 16.7 MB.
    argv = ["waveform", "--out", str(tmp_path / "w.csv"), "--step-size", "0.0005"]
    assert cli.main([*argv[:3], "--step-size", "4"]) == 0
    peak, code = traced_peak(cli.main, argv)
    assert code == 0
    assert "steps=32000 " in capsys.readouterr().out
    assert peak < 1e6


def test_local_maxima_of_a_noisy_trace_needs_no_run_index():
    # Boolean masks and the peak indices: about 5 bytes a sample, against
    # 22 for the int64 run starts and the run values.
    values = np.random.default_rng(1).standard_normal(N)
    pure.local_maxima(values[:10])
    assert peak_bytes_per_sample(pure.local_maxima, values) < 8


def lif_drive(n, steps):
    return np.random.default_rng(2).uniform(0.0, 3.0, (n, steps))


def lif_run(drive):
    n = drive.shape[0]
    weights = np.full((n, n), 0.002)
    return pure.lif_run(np.full(n, -0.065), drive, weights, 0.020, -0.065, -0.050, -0.065,
                        0.002, 1e-4, 0.005)


def test_lif_run_holds_two_step_buffers():
    # The potentials and the filtered trace: 16 bytes a neuron-step, plus one
    # block of dt * drive; dt * drive for every step (24 bytes in all) fails.
    drive = lif_drive(10, N // 10)
    lif_run(drive[:, :10])
    assert peak_bytes_per_sample(lif_run, drive) < 19


def rate_weights(rng, n):
    return rng.normal(0, 1.2 / np.sqrt(n), (n, n))


def test_rate_run_holds_one_step_buffer():
    # The activities: 8 bytes a unit-step, plus one block of states; the
    # states of every step (16 bytes in all) fail.
    rng = np.random.default_rng(3)
    drive = rng.uniform(-1, 1, (50, N // 50))
    weights = rate_weights(rng, 50)
    pure.rate_run(np.zeros(50), drive[:, :10], weights, 0.01, 1e-4)
    assert peak_bytes_per_sample(pure.rate_run, np.zeros(50), drive, weights, 0.01, 1e-4) < 11


def test_rate_network_with_feedback_holds_two_step_buffers():
    # The drive with the feedback projection (16 bytes a unit-step at once,
    # the sum of the two), then the drive and the activities; the
    # kernel's states of every step (24 bytes in all) fail.
    rng = np.random.default_rng(4)
    net = networks.RateNetwork(50, rate_weights(rng, 50), rng.uniform(-1, 1, (50, 2)),
                               feedback_weights=rng.uniform(-1, 1, (50, 1)))
    inputs = rng.uniform(-1, 1, (2, N // 50))
    feedback = rng.uniform(-1, 1, (1, N // 50))
    networks.run_rate(net, inputs[:, :10], feedback[:, :10])
    assert peak_bytes_per_sample(networks.run_rate, net, inputs, feedback) < 20


def test_spike_raster_holds_two_arrays():
    # All 100,000 neuron-steps of the dense run spike; its peak over that of
    # a silent run of the same size is the raster's: the kernel's int64 step
    # and neuron buffers (doubled when full) and then the neurons and float64
    # times, about 21 bytes a spike. Held as a list of (int, float) tuples,
    # with the kernel's lists of ints, it took about 87.
    spikes = 100_000
    net = networks.SpikingNetwork(10, np.zeros((10, 10)), np.ones((10, 1)), np.ones((1, 10)),
                                  lif=networks.LifParameters(refractory=0.0))
    networks.run_spiking(net, np.full((1, 10), 1e4))
    silent, _ = traced_peak(networks.run_spiking, net, np.zeros((1, spikes // 10)))
    dense, trace = traced_peak(networks.run_spiking, net, np.full((1, spikes // 10), 1e4))
    assert trace.spike_neurons.size == spikes
    assert (dense - silent) / spikes < 40


def test_field_slots_hold_the_digit_chunks_as_int32():
    # One block of %.12g fields: the slot matrix (23 bytes a row here), the
    # masks and the int32 digit chunks, about 62 bytes a row at the peak.
    # int64 chunks, every mask kept to the end and (4, n) digit takes took
    # about 81.
    values = np.random.default_rng(6).standard_normal(_csvio.BLOCK_ROWS) * 3e-4
    _csvio._field_slots(values[:10], 12)
    peak, slots = traced_peak(_csvio._field_slots, values, 12)
    assert slots.shape == (23, _csvio.BLOCK_ROWS)
    assert peak / _csvio.BLOCK_ROWS < 70
