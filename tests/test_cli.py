import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from protoneuro import _csvio, cli, networks, signals
from protoneuro.errors import ValidationError
from protoneuro.signals import SyntheticSpikeSpec, TimeSeries


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_series(path, times, values, label=""):
    signals.write_timeseries_csv(TimeSeries(np.asarray(times, float),
                                            np.asarray(values, float), label=label), path)


def test_waveform_reference_protocol(tmp_path, capsys):
    out = tmp_path / "wf.csv"
    code, stdout, _ = run(capsys, "waveform", "--out", str(out))
    assert code == 0
    assert "steps=16000 scan_duration_s=16000" in stdout
    assert out.read_text().splitlines()[0] == "time_s,potential_V,phase"


def test_waveform_invalid_step_size_names_field(tmp_path, capsys):
    code, _, stderr = run(capsys, "waveform", "--out", str(tmp_path / "x.csv"),
                          "--step-size", "0")
    assert code == 2
    assert "step_size" in stderr


def test_waveform_two_step_matches_schedule(tmp_path, capsys):
    out = tmp_path / "wf.csv"
    code, _, _ = run(capsys, "waveform", "--out", str(out), "--start", "0",
                     "--end", "0.002", "--equilibrium-time", "0")
    assert code == 0
    lines = out.read_text().splitlines()
    # 4 segments + terminal row; pulse boundaries at 0.92/1.0/1.92/2.0
    assert len(lines) == 6
    assert lines[2].startswith("0.92,")
    assert lines[4].startswith("1.92,")


def test_detect_flat_signal(tmp_path, capsys):
    src = tmp_path / "flat.csv"
    write_series(src, np.arange(100.0), np.zeros(100))
    code, stdout, _ = run(capsys, "detect", str(src))
    assert code == 0
    assert "count=0" in stdout


def test_detect_missing_file_is_io_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "detect", str(tmp_path / "nope.csv"))
    assert code == 1
    assert "error" in stderr


def test_detect_malformed_file_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,value\n0,zap\n")
    code, _, _ = run(capsys, "detect", str(bad))
    assert code == 2


def test_detect_file_that_is_not_utf8_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"time_s,value\n# unit=volt\n0,1\n1,\xff2\n")
    code, _, stderr = run(capsys, "detect", str(bad))
    assert code == 2
    assert stderr == f"error: {bad}: line 4: byte 0xff is not valid utf-8\n"


@pytest.mark.parametrize("distance", ["-1", "nan"])
def test_detect_bad_min_distance_names_the_field(tmp_path, capsys, distance):
    src = tmp_path / "s.csv"
    write_series(src, np.arange(30.0), np.concatenate([np.zeros(10), [1.0], np.zeros(19)]))
    code, _, stderr = run(capsys, "detect", str(src), "--min-distance", distance)
    assert code == 2
    assert "min_peak_distance must be >= 0" in stderr


def test_synth_detect_reference_row(tmp_path, capsys):
    src = tmp_path / "row.csv"
    code, _, _ = run(capsys, "synth", "--out", str(src), "--count", "726",
                     "--mean-isi", "22.24", "--jitter", "0.2", "--seed", "5")
    assert code == 0
    code, stdout, _ = run(capsys, "detect", str(src),
                          "--train-out", str(tmp_path / "train.csv"),
                          "--stats-out", str(tmp_path / "stats.json"))
    assert code == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["count"] == 726
    assert stats["frequency_mhz"] == pytest.approx(44.97, rel=0.01)


def test_detect_three_bump_fixture(tmp_path, capsys):
    src = tmp_path / "bumps.csv"
    run(capsys, "synth", "--out", str(src), "--spike-times", "10", "20", "30",
        "--duration", "50")
    code, _, _ = run(capsys, "detect", str(src), "--train-out", str(tmp_path / "t.csv"))
    assert code == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert len(lines) == 4  # header + three spikes


def test_synth_is_seed_deterministic(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    run(capsys, "synth", "--out", str(a), "--count", "20", "--mean-isi", "10",
        "--jitter", "0.3", "--noise-sd", "1e-4", "--seed", "9")
    run(capsys, "synth", "--out", str(b), "--count", "20", "--mean-isi", "10",
        "--jitter", "0.3", "--noise-sd", "1e-4", "--seed", "9")
    run(capsys, "synth", "--out", str(c), "--count", "20", "--mean-isi", "10",
        "--jitter", "0.3", "--noise-sd", "1e-4", "--seed", "10")
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_seed_env_override_and_flag_priority(tmp_path, capsys, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    args = ["synth", "--count", "15", "--mean-isi", "8", "--jitter", "0.4"]
    monkeypatch.setenv("PROTONEURO_SEED", "77")
    run(capsys, *args, "--out", str(a))
    monkeypatch.delenv("PROTONEURO_SEED")
    run(capsys, *args, "--out", str(b), "--seed", "77")
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("PROTONEURO_SEED", "1")
    run(capsys, *args, "--out", str(c), "--seed", "77")  # flag beats env
    assert c.read_bytes() == b.read_bytes()


def test_encode_command(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series(a, [0, 1, 2], [0.9, 0.1, 0.6], label="a")
    write_series(b, [0, 1, 2], [0.2, 0.8, 0.0], label="b")
    out = tmp_path / "code.csv"
    code, stdout, _ = run(capsys, "encode", str(a), str(b), "--threshold", "0.5",
                          "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines() == ["a,b", "1,0", "0,1", "1,0"]


def test_encode_rejects_mismatched_time_base(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series(a, [0, 1, 2], [1, 2, 3], label="a")
    write_series(b, [0, 2, 4], [1, 2, 3], label="b")
    code, _, stderr = run(capsys, "encode", str(a), str(b), "--out",
                          str(tmp_path / "c.csv"))
    assert code == 2
    assert "time base" in stderr


def test_synth_rejects_spike_times_with_count_and_mean_isi(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, stderr = run(capsys, "synth", "--spike-times", "10", "20", "--count", "5",
                               "--mean-isi", "3", "--duration", "40", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == "error: give either spike_times or (count, mean_isi), not both\n"
    assert not out.exists()


def test_weights_seeded_and_fixed(tmp_path, capsys):
    seeded = tmp_path / "w1.csv"
    code, _, _ = run(capsys, "weights", "--seed", "3", "--n", "4", "--out", str(seeded))
    assert code == 0
    rows = [r.split(",") for r in seeded.read_text().splitlines()]
    assert len(rows) == 4 and len(rows[0]) == 4
    again = tmp_path / "w2.csv"
    run(capsys, "weights", "--seed", "3", "--n", "4", "--out", str(again))
    assert seeded.read_bytes() == again.read_bytes()

    fixed = tmp_path / "wt.csv"
    code, stdout, _ = run(capsys, "weights", "--table1", "--out", str(fixed))
    assert code == 0
    first = fixed.read_text().splitlines()[0]
    assert first == "-1,1,1,1,-1,1,-1,1,-1,1"


def test_weights_size_comes_from_the_config_unless_n_is_given(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PROTONEURO_SEED", raising=False)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"coding": {"neuron_count": 5}}))
    out = tmp_path / "w.csv"
    code, stdout, _ = run(capsys, "weights", "--config", str(config), "--out", str(out))
    assert (code, stdout) == (0, "n=5 source=seeded(0)\n")
    assert [len(r.split(",")) for r in out.read_text().splitlines()] == [5] * 5
    code, stdout, _ = run(capsys, "weights", "--config", str(config), "--n", "3",
                          "--out", str(out))
    assert (code, stdout) == (0, "n=3 source=seeded(0)\n")


def test_weights_table1_needs_ten_neurons(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"coding": {"neuron_count": 5}}))
    out = tmp_path / "w.csv"
    for argv in (["--n", "5"], ["--config", str(config)]):
        code, stdout, stderr = run(capsys, "weights", "--table1", *argv, "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == "error: the reference weight matrix is 10x10, not 5x5\n"
        assert not out.exists()


def test_weights_table1_rejects_a_seed(tmp_path, capsys, monkeypatch):
    # The fixed matrix draws nothing; PROTONEURO_SEED is ambient and stays allowed.
    out = tmp_path / "w.csv"
    code, stdout, stderr = run(capsys, "weights", "--table1", "--seed", "5", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == "error: --seed goes with seeded weights, not with --table1\n"
    assert not out.exists()
    monkeypatch.setenv("PROTONEURO_SEED", "5")
    assert run(capsys, "weights", "--table1", "--out", str(out))[:2] == \
        (0, "n=10 source=table1\n")


def test_weights_too_large_for_memory_exits_2(tmp_path, capsys):
    # 8e18 bytes: the allocation is refused at once, touching no memory.
    code, stdout, stderr = run(capsys, "weights", "--n", "1000000000",
                               "--out", str(tmp_path / "w.csv"))
    assert (code, stdout) == (2, "")
    [line] = stderr.splitlines()
    assert line.startswith("error: out of memory: ")


def test_weights_csv_bytes_equal_the_per_row_loop(tmp_path, capsys, monkeypatch):
    from protoneuro import coding
    entries = np.array([[-0.0, 0.0, 1.0], [-1.0, 0.123456789012, -3.5e-7],
                        [1e-5, -0.999999999, 2.0 / 3.0]])
    monkeypatch.setattr(coding, "reference_weight_matrix",
                        lambda: coding.WeightMatrix(entries))
    out = tmp_path / "w.csv"
    assert run(capsys, "weights", "--table1", "--out", str(out))[0] == 0
    loop = "".join(",".join(f"{x:.9g}" for x in row) + "\n" for row in entries)
    assert out.read_bytes() == loop.encode()
    assert out.read_text().startswith("-0,0,1\n")


def make_manifest(tmp_path, rows, seed=7, weights="seeded", coding=None):
    labels = []
    files = []
    for label, spike_times in rows:
        path = tmp_path / f"{label}.csv"
        spec = SyntheticSpikeSpec(duration=100.0, spike_times=tuple(spike_times),
                                  label=label)
        signals.write_timeseries_csv(signals.synthesize_spiky_series(spec), path)
        labels.append(label)
        files.append(path.name)
    doc = {"sample_labels": labels, "source_files": files, "seed": seed,
           "weights": weights}
    if coding:
        doc["coding"] = coding
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    return manifest


def test_pipeline_flat_sample(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    write_series(flat, np.arange(50.0), np.zeros(50), label="flat")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"sample_labels": ["flat"],
                                    "source_files": ["flat.csv"], "seed": 1}))
    code, _, _ = run(capsys, "pipeline", str(manifest), "--output-dir",
                     str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["samples"][0]["count"] == 0
    assert all(v == 0.0 for v in report["psi"])
    assert all(v == 0.0 for row in report["grid"] for v in row)
    assert (tmp_path / "out" / "psi_ppi.svg").exists()


def test_pipeline_is_byte_deterministic(tmp_path, capsys):
    manifest = make_manifest(tmp_path, [("a", [10, 40, 70]), ("b", [20, 60])])
    run(capsys, "pipeline", str(manifest), "--output-dir", str(tmp_path / "o1"))
    run(capsys, "pipeline", str(manifest), "--output-dir", str(tmp_path / "o2"))
    assert (tmp_path / "o1" / "report.json").read_bytes() == \
        (tmp_path / "o2" / "report.json").read_bytes()
    assert (tmp_path / "o1" / "psi_ppi.svg").read_bytes() == \
        (tmp_path / "o2" / "psi_ppi.svg").read_bytes()


def test_pipeline_reference_weights(tmp_path, capsys):
    manifest = make_manifest(tmp_path, [("a", [10, 40])], weights="reference")
    code, _, _ = run(capsys, "pipeline", str(manifest), "--output-dir",
                     str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["weight_matrix"][0][0] == -1.0
    assert report["weights_source"] == "reference"


def test_pipeline_too_many_samples(tmp_path, capsys):
    rows = [(f"s{i}", [10 + i]) for i in range(3)]
    manifest = make_manifest(tmp_path, rows, coding={"neuron_count": 2})
    code, _, stderr = run(capsys, "pipeline", str(manifest))
    assert code == 2
    assert "neurons" in stderr


def test_pipeline_missing_source_file(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"sample_labels": ["x"],
                                    "source_files": ["ghost.csv"], "seed": 0}))
    code, _, stderr = run(capsys, "pipeline", str(manifest))
    assert code == 2
    assert "ghost.csv" in stderr


def test_pipeline_partial_failure_reported(tmp_path, capsys):
    good = tmp_path / "good.csv"
    write_series(good, np.arange(30.0), np.zeros(30), label="good")
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,value\n0,zap\n")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"sample_labels": ["good", "bad"],
                                    "source_files": ["good.csv", "bad.csv"], "seed": 0}))
    code, stdout, stderr = run(capsys, "pipeline", str(manifest), "--output-dir",
                               str(tmp_path / "out"))
    assert code == 2
    assert stderr == f"error: {bad}: line 2: could not convert string to float: 'zap'\n"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "bad" in report["errors"]
    assert len(report["samples"]) == 1


def test_pipeline_sample_that_cannot_be_read_exits_1(tmp_path, capsys):
    write_series(tmp_path / "good.csv", np.arange(30.0), np.zeros(30), label="good")
    (tmp_path / "dir.csv").mkdir()
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"sample_labels": ["good", "dir"],
                                    "source_files": ["good.csv", "dir.csv"], "seed": 0}))
    code, stdout, stderr = run(capsys, "pipeline", str(manifest), "--output-dir",
                               str(tmp_path / "out"))
    assert code == 1
    assert stderr.startswith("i/o error: ") and stderr.count("\n") == 1
    assert "samples_ok=1 samples_failed=1" in stdout
    assert json.loads((tmp_path / "out" / "report.json").read_text())["errors"].keys() == {"dir"}


def test_pipeline_rejects_mismatched_time_base(tmp_path, capsys):
    write_series(tmp_path / "a.csv", np.arange(81.0), np.zeros(81), label="a")
    write_series(tmp_path / "b.csv", np.arange(81.0) + 1000, np.zeros(81), label="b")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"sample_labels": ["first", "second"],
                                    "source_files": ["a.csv", "b.csv"], "seed": 0}))
    out = tmp_path / "out"
    code, stdout, stderr = run(capsys, "pipeline", str(manifest), "--output-dir", str(out))
    assert (code, stdout) == (2, "")
    assert stderr == "error: second: time base differs from the first input\n"
    assert not out.exists()


def test_encode_rows_equal_the_pipeline_code_matrix(tmp_path, capsys):
    manifest = make_manifest(tmp_path, [("a", [10, 40, 70]), ("b", [20, 60]), ("c", [])],
                             coding={"neuron_count": 5, "threshold": 2e-4})
    assert run(capsys, "pipeline", str(manifest), "--output-dir", str(tmp_path / "out"))[0] == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    out = tmp_path / "code.csv"
    code, _, _ = run(capsys, "encode", *(str(tmp_path / f"{x}.csv") for x in "abc"),
                     "--threshold", "2e-4", "--out", str(out))
    assert code == 0
    header, *rows = out.read_text().splitlines()
    assert header == "a,b,c"
    columns = [[int(v) for v in row.split(",")] for row in rows]
    assert [list(r) for r in zip(*columns)] == report["code_matrix"][:3]
    assert report["code_matrix"][3:] == [[0] * len(rows)] * 2
    assert any(1 in r for r in report["code_matrix"])


def test_pipeline_reference_surrogates_aggregate(tmp_path, capsys):
    from protoneuro.spikes import REFERENCE_SPIKE_TABLE
    labels, files = [], []
    for row, (label, count, mean_isi, _) in enumerate(REFERENCE_SPIKE_TABLE):
        spec = SyntheticSpikeSpec(duration=(count + 1) * mean_isi, count=count,
                                  mean_isi=mean_isi, jitter_fraction=0.2,
                                  spike_amplitude=0.001, seed=row, label=label)
        path = tmp_path / f"s{row}.csv"
        signals.write_timeseries_csv(signals.synthesize_spiky_series(spec), path)
        labels.append(label)
        files.append(path.name)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"sample_labels": labels, "source_files": files,
                                    "seed": 4, "coding": {"neuron_count": 12}}))
    code, _, _ = run(capsys, "pipeline", str(manifest), "--output-dir",
                     str(tmp_path / "out"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(report["samples"]) == 12
    assert report["aggregate"]["mean_count"] == pytest.approx(348.58, rel=0.02)


def test_report_summary(tmp_path, capsys):
    manifest = make_manifest(tmp_path, [("a", [10, 40, 70]), ("b", [20, 60])])
    run(capsys, "pipeline", str(manifest), "--output-dir", str(tmp_path / "out"))
    code, stdout, _ = run(capsys, "report", str(tmp_path / "out" / "report.json"))
    assert code == 0
    assert stdout == (
        "sample                     count  mean ISI (s)  freq (mHz)\n"
        "a                              3         30.00       33.33\n"
        "b                              2         40.00       25.00\n"
        "mean                        2.50         35.00\n"
        "top PSI: unassigned8=0.143, unassigned3=0.092, unassigned7=0.055\n")


def test_sim_spiking_command(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "n": 1, "recurrent_weights": [[0.0]], "input_weights": [[1.0]],
        "output_weights": [[1.0]], "lif": {"refractory": 0.0},
    }))
    prefix = str(tmp_path / "run")
    code, stdout, _ = run(capsys, "sim-spiking", "--net", str(net),
                          "--steps", "20000", "--drive", "1.5",
                          "--out-prefix", prefix)
    assert code == 0
    raster = (tmp_path / "run_raster.csv").read_text().splitlines()
    assert len(raster) > 100
    assert os.path.exists(prefix + "_trace.csv")
    assert os.path.exists(prefix + "_output.csv")


def test_sim_rate_command(tmp_path, capsys):
    net = tmp_path / "rnet.json"
    net.write_text(json.dumps({
        "n": 1, "recurrent_weights": [[0.0]], "input_weights": [[1.0]],
        "time_constant": 0.01, "dt": 1e-4,
    }))
    prefix = str(tmp_path / "rate")
    code, _, _ = run(capsys, "sim-rate", "--net", str(net), "--steps", "5000",
                     "--drive", "0.5", "--out-prefix", prefix)
    assert code == 0
    lines = (tmp_path / "rate_trace.csv").read_text().splitlines()
    final = float(lines[-1].split(",")[2])
    assert final == pytest.approx(np.tanh(0.5), rel=0.01)


def test_sim_spiking_input_csv(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"n": 1, "recurrent_weights": [[0.0]],
                               "input_weights": [[1.0]], "output_weights": [[1.0]]}))
    stream = tmp_path / "fin.csv"
    # one row per step of the default LIF dt, 1e-4 s
    stream.write_text("time_s,ch0\n" + "".join(f"{(k + 1) * 1e-4:.9g},2.0\n" for k in range(500)))
    code, stdout, _ = run(capsys, "sim-spiking", "--net", str(net), "--input",
                          str(stream), "--out-prefix", str(tmp_path / "r"))
    assert code == 0
    assert "steps=500" in stdout


# sha256 of each artefact, written by the code before the LIF/rate kernels
# and the long-format writer were rewritten; a change of bytes shows here.
SIMULATION_DIGESTS = {
    "lif_trace.csv": "ba8414257a880f502555df0e136a36656328c97bc729d3578039a9d13dea31a4",
    "lif_raster.csv": "bd203cd26d0c5f60769dc36ab44865d85af469f218b027bdf4ba6e1eb49feb56",
    "lif_output.csv": "97b448013c94fac9c687c60dbcf9f662dac1a4d0d52c85a5aed891c89d74db2a",
    "rate_trace.csv": "f27e582f78e25ae017d1d8c2a032e79918516dcae689e23080b1e9652a5b45a4",
}


def test_simulation_artefacts_are_pinned(tmp_path, capsys):
    (tmp_path / "lif.json").write_text(json.dumps({"n": 6, "output_dim": 2, "seed": 4}))
    (tmp_path / "rate.json").write_text(json.dumps({"n": 8, "input_dim": 2, "seed": 5}))
    code, stdout, _ = run(capsys, "sim-spiking", "--net", str(tmp_path / "lif.json"),
                          "--steps", "3000", "--drive", "6",
                          "--out-prefix", str(tmp_path / "lif"))
    assert (code, stdout) == (0, "steps=3000 spikes=64\n")
    code, _, _ = run(capsys, "sim-rate", "--net", str(tmp_path / "rate.json"),
                     "--steps", "2000", "--drive", "0.7", "--out-prefix", str(tmp_path / "rate"))
    assert code == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SIMULATION_DIGESTS}
    assert digests == SIMULATION_DIGESTS


@pytest.mark.parametrize("command, spec, message", [
    ("sim-spiking", {"n": 2, "outptu_dim": 3}, "unknown keys ['outptu_dim']"),
    ("sim-rate", {"n": 2, "output_dim": 3}, "unknown keys ['output_dim']"),
    ("sim-spiking", {"n": 2, "lif": {"bogus": 1}}, "\"lif\": unknown keys ['bogus']"),
    ("sim-spiking", {"n": 2.5}, '"n" must be an integer >= 1, got 2.5'),
    ("sim-spiking", {"n": 2, "seed": "x"}, "\"seed\" must be an integer >= 0, got 'x'"),
    ("sim-rate", {"n": 2, "feedback_dim": 1.5}, '"feedback_dim" must be an integer'),
    ("sim-spiking", {"n": 2, "input_dim": 0}, '"input_dim" must be an integer >= 1'),
    ("sim-spiking", {"n": 2, "tau_syn": "fast"}, '"tau_syn" must be a finite number'),
    ("sim-spiking", {"n": 2, "lif": {"threshold": None}}, '"lif.threshold" must be a finite'),
    ("sim-rate", {"n": 2, "dt": True}, '"dt" must be a finite number, got True'),
    ("sim-rate", {"n": 2, "time_constant": math.inf}, '"time_constant" must be a finite'),
    ("sim-spiking", {"n": 2, "input_weights": [["a"], [1]]}, '"input_weights": could not'),
], ids=["unknown-key", "unknown-rate-key", "unknown-lif-key", "fractional-n", "string-seed",
        "fractional-dim", "zero-dim", "string-constant", "null-lif-constant", "bool-constant",
        "infinite-constant", "non-numeric-array"])
def test_network_spec_errors_name_the_key(tmp_path, capsys, command, spec, message):
    net = tmp_path / "net.json"
    net.write_text(json.dumps(spec))
    code, _, stderr = run(capsys, command, "--net", str(net), "--steps", "10",
                          "--drive", "1", "--out-prefix", str(tmp_path / "r"))
    assert code == 2
    assert message in stderr


def test_sim_spiking_overflow_names_step_and_neuron(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"n": 2, "recurrent_weights": [[0, 0], [0, 0]],
                               "input_weights": [[2, 0], [0, 2]], "output_weights": [[1, 1]]}))
    stream = tmp_path / "fin.csv"
    # finite inputs whose projections overflow: neuron 0's from step 150, neuron 1's from 100
    stream.write_text("time_s,ch0,ch1\n" + "".join(
        f"{(k + 1) * 1e-4:.9g},{0 if k < 150 else -1e308},{0 if k < 100 else -1e308}\n"
        for k in range(200)))
    code, _, stderr = run(capsys, "sim-spiking", "--net", str(net), "--input",
                          str(stream), "--out-prefix", str(tmp_path / "r"))
    assert code == 3
    assert "non-finite membrane potentials: first at step 100 (t=0.0101 s), neuron 1" \
        in stderr


def test_qsar_fit_and_predict_round_trip(tmp_path, capsys):
    from protoneuro import qsar
    rng = np.random.default_rng(11)
    x = rng.uniform(100, 600, 14)
    y = rng.integers(1, 6, 14).astype(float)
    rates = qsar.predict(qsar.REFERENCE_COEFFICIENTS, x, y)
    obs = tmp_path / "obs.csv"
    with open(obs, "w") as fh:
        fh.write("label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz\n")
        for i in range(14):
            fh.write(f"s{i},{x[i]:.6f},{y[i]:.0f},{rates[i]:.9g}\n")
    model = tmp_path / "model.json"
    code, stdout, _ = run(capsys, "qsar-fit", str(obs), "--out", str(model))
    assert code == 0
    doc = json.loads(model.read_text())
    assert doc["coefficients"]["p00"] == pytest.approx(2349.0, rel=1e-4)
    assert "bounds" in doc

    code, stdout, _ = run(capsys, "qsar-predict", "--model", str(model),
                          "--x", "0", "--y", "0")
    assert code == 0
    assert "predicted_rate_hz=2349" in stdout


def test_qsar_fit_rank_deficient_is_numeric_failure(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    with open(obs, "w") as fh:
        fh.write("label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz\n")
        for i in range(9):
            fh.write(f"s{i},{100 + i * 50},3,{500 + i}\n")
    code, _, stderr = run(capsys, "qsar-fit", str(obs), "--out", str(tmp_path / "m.json"))
    assert code == 3
    assert "rank" in stderr


@pytest.mark.parametrize("rows", [9, 10])
@pytest.mark.parametrize("level", ["7", "nan", "0", "1"])
def test_qsar_fit_rejects_a_level_outside_0_1(tmp_path, capsys, rows, level):
    # Whether or not the fit has enough observations for confidence bounds.
    x, y = np.random.default_rng(rows).uniform((100, 1), (600, 6), (rows, 2)).T
    obs = tmp_path / "obs.csv"
    with open(obs, "w") as fh:
        fh.write("label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz\n")
        for i in range(rows):
            fh.write(f"s{i},{x[i]:.6f},{y[i]:.6f},{500 + i}\n")
    model = tmp_path / "m.json"
    code, stdout, stderr = run(capsys, "qsar-fit", str(obs), "--out", str(model),
                               "--level", level)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: --level must be in (0, 1), got {float(level)!r}\n"
    assert not model.exists()
    assert run(capsys, "qsar-fit", str(obs), "--out", str(model), "--level", "0.9")[0] == 0


def test_qsar_predict_with_builtin_model_and_deviation(capsys):
    code, stdout, _ = run(capsys, "qsar-predict", "--x", "100", "--y", "3",
                          "--mean", "3000")
    assert code == 0
    assert "predicted_rate_hz=3285.1" in stdout
    assert "percent_deviation=+9.5033%" in stdout


def test_config_file_sections(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"detection": {"threshold": 0.5},
                               "dpv": {"start_potential": 0.0, "end_potential": 1.0,
                                       "step_size": 0.5}}))
    src = tmp_path / "s.csv"
    write_series(src, np.arange(30.0), np.concatenate([np.zeros(10), [0.4], np.zeros(19)]))
    code, stdout, _ = run(capsys, "detect", str(src), "--config", str(cfg))
    assert code == 0
    assert "count=0" in stdout  # 0.4 below the configured 0.5 threshold
    # flag overrides config
    code, stdout, _ = run(capsys, "detect", str(src), "--config", str(cfg),
                          "--threshold", "0.3")
    assert "count=1" in stdout
    out = tmp_path / "w.csv"
    code, stdout, _ = run(capsys, "waveform", "--config", str(cfg), "--out", str(out))
    assert "steps=2 " in stdout


def test_bad_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    code, _, stderr = run(capsys, "waveform", "--config", str(cfg),
                          "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "mystery" in stderr


@pytest.mark.parametrize("doc, key", [
    ({"lif": {"membrane_time_constant": 0.01}}, "lif"),
    ({"output_dir": "zzz"}, "output_dir"),
    ({"coding": {"sample_count": 3}}, "sample_count"),
], ids=["lif", "output_dir", "coding.sample_count"])
def test_config_keys_no_subcommand_reads_are_rejected(tmp_path, capsys, doc, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    src = tmp_path / "s.csv"
    write_series(src, np.arange(30.0), np.zeros(30))
    code, _, stderr = run(capsys, "detect", str(src), "--config", str(cfg))
    assert code == 2
    assert key in stderr


def test_every_subcommand_has_help(capsys):
    parser = cli.build_parser()
    subparsers = parser._subparsers._group_actions[0].choices
    expected = {"waveform", "synth", "detect", "encode", "weights", "pipeline",
                "sim-spiking", "sim-rate", "qsar-fit", "qsar-predict", "report"}
    assert expected == set(subparsers)
    for name, sub in subparsers.items():
        with pytest.raises(SystemExit) as exc:
            sub.parse_args(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for action in sub._actions:
            for opt in action.option_strings:
                assert opt in help_text


OBSERVATIONS_12 = """label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz
s0,505.50,6,18109.6321
s1,228.59,1,-21.4487
s2,285.67,3,1068.2165
s3,579.68,4,-2177.9956
s4,697.48,5,-8579.0746
s5,185.34,1,399.1185
s6,147.24,2,-303.4611
s7,208.49,3,1756.0875
s8,315.79,1,-1572.0839
s9,201.77,6,86498.8158
s10,453.26,4,358.5681
s11,470.08,5,5619.5306
"""


def src_env():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.mark.parametrize("argv, stdout", [
    (["--x", "147.13", "--y", "2", "--mean", "535.4877"],
     "predicted_rate_hz=-284.462\npercent_deviation=-153.1221%\n"),
    (["--x", "623.7", "--y", "5"], "predicted_rate_hz=-5306.68\n"),
    (["--model", "MODEL", "--x", "333.3", "--y", "4", "--mean", "600"],
     "predicted_rate_hz=4888.13\npercent_deviation=+714.6884%\n"),
], ids=["reference-with-mean", "reference", "fitted-with-mean"])
def test_qsar_predict_stdout_is_pinned(tmp_path, capsys, argv, stdout):
    obs = tmp_path / "obs.csv"
    obs.write_text(OBSERVATIONS_12)
    model = tmp_path / "model.json"
    assert run(capsys, "qsar-fit", str(obs), "--out", str(model))[1] == \
        "observations=12 residual_ss=1460.72\n"
    argv = [str(model) if a == "MODEL" else a for a in argv]
    assert run(capsys, "qsar-predict", *argv) == (0, stdout, "")


@pytest.mark.parametrize("argv, rate_scale, stderr", [
    (["qsar-fit", "OBS", "--out", "MODEL"], 1e157,
     "error: rates too large: the residual sum of squares overflows\n"),
    (["qsar-fit", "OBS", "--out", "MODEL", "--level", "0.9999999999999999"], 1.0,
     "error: confidence bounds at level 0.9999999999999999 are not finite\n"),
    (["qsar-predict", "--x", "1e200", "--y", "1e200"], 1.0,
     "error: predictors too large: the surface overflows\n"),
], ids=["fit-rates-overflow", "fit-infinite-quantile", "predict-surface-overflows"])
def test_qsar_overflows_exit_2_and_write_no_model(tmp_path, capsys, argv, rate_scale, stderr):
    # A RuntimeWarning would fail the test (warnings are errors here).
    header, *rows = OBSERVATIONS_12.splitlines()
    obs = tmp_path / "obs.csv"
    obs.write_text("\n".join([header, *(
        f"{row.rsplit(',', 1)[0]},{float(row.rsplit(',', 1)[1]) * rate_scale!r}"
        for row in rows)]) + "\n")
    model = tmp_path / "model.json"
    argv = [{"OBS": str(obs), "MODEL": str(model)}.get(a, a) for a in argv]
    assert run(capsys, *argv) == (2, "", stderr)
    assert not model.exists()


def session_argv(name, tmp_path, capsys):
    """Argv of one ``session`` subcommand on tiny inputs made in ``tmp_path``."""
    manifest = make_manifest(tmp_path, [("a", [10, 40, 70])])
    out = tmp_path / "out"
    obs = tmp_path / "obs.csv"
    obs.write_text(OBSERVATIONS_12)
    model = tmp_path / "model.json"
    if name == "report":
        assert run(capsys, "pipeline", str(manifest), "--output-dir", str(out))[0] == 0
    if name == "qsar-predict":
        assert run(capsys, "qsar-fit", str(obs), "--out", str(model))[0] == 0
    return {
        "waveform": ["waveform", "--out", str(tmp_path / "wf.csv"), "--start", "0",
                     "--end", "0.002", "--equilibrium-time", "0"],
        "pipeline": ["pipeline", str(manifest), "--output-dir", str(out)],
        "report": ["report", str(out / "report.json")],
        "qsar-fit": ["qsar-fit", str(obs), "--out", str(model)],
        "qsar-predict": ["qsar-predict", "--model", str(model), "--x", "333.3", "--y", "4"],
    }[name]


def modules_loaded_by(argv):
    """Run ``cli.main(argv)`` in a fresh interpreter; the names of the modules it loaded."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\nfrom protoneuro import cli\ncode = cli.main(sys.argv[1:])\n"
         "print(json.dumps([code, sorted(sys.modules)]))", *argv],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    return modules


@pytest.mark.parametrize("name", ["waveform", "pipeline", "report", "qsar-fit",
                                  "qsar-predict"])
def test_session_subcommands_import_only_what_they_compute_with(tmp_path, capsys, name):
    # waveform, report and qsar-predict start without numpy, and no
    # subcommand loads scipy.
    modules = modules_loaded_by(session_argv(name, tmp_path, capsys))

    def loaded(package):
        return [m for m in modules if m == package or m.startswith(package + ".")]

    assert loaded("protoneuro")
    if name in ("waveform", "report", "qsar-predict"):
        assert loaded("numpy") == []
    assert [m for m in modules if m.startswith("scipy")] == []


@pytest.mark.parametrize("command", ["detect", "sim-spiking", "synth"])
def test_commands_that_draw_nothing_leave_numpy_random_unloaded(tmp_path, command):
    write_series(tmp_path / "s.csv", np.arange(50.0), np.sin(np.arange(50.0)))
    (tmp_path / "net.json").write_text(json.dumps({
        "n": 2, "recurrent_weights": [[0, 0.5], [0.5, 0]], "input_weights": [[1], [1]],
        "output_weights": [[1, -1]]}))
    argv = {"detect": ["detect", str(tmp_path / "s.csv")],
            "sim-spiking": ["sim-spiking", "--net", str(tmp_path / "net.json"), "--steps", "20",
                            "--drive", "1", "--out-prefix", str(tmp_path / "r")],
            "synth": ["synth", "--out", str(tmp_path / "t.csv"), "--spike-times", "10", "20",
                      "--duration", "40"]}[command]
    modules = modules_loaded_by(argv)
    assert "numpy" in modules
    assert "numpy.random" not in modules


@pytest.mark.parametrize("command, net, what", [
    ("sim-spiking", {"output_weights": [[1, 1]]}, "membrane potentials"),
    ("sim-rate", {}, "unit state"),
], ids=["sim-spiking", "sim-rate"])
def test_simulation_overflow_prints_only_the_numeric_error(tmp_path, command, net, what):
    spec = tmp_path / "net.json"
    spec.write_text(json.dumps({"n": 2, "recurrent_weights": [[0, 0], [0, 0]],
                                "input_weights": [[2, 0], [0, 2]], **net}))
    stream = tmp_path / "fin.csv"
    stream.write_text("time_s,ch0,ch1\n" + "".join(
        f"{(k + 1) * 1e-4:.9g},{0 if k < 150 else -1e308},{0 if k < 100 else -1e308}\n"
        for k in range(200)))
    done = subprocess.run(
        [sys.executable, "-m", "protoneuro.cli", command, "--net", str(spec), "--input",
         str(stream), "--out-prefix", str(tmp_path / "r")],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 3
    assert done.stderr == (f"numeric error: simulation produced non-finite {what}: "
                           "first at step 100 (t=0.0101 s), neuron 1\n")


def test_readme_sim_spiking_example_fires(tmp_path, capsys, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    [command] = [line for line in readme.read_text().splitlines()
                 if line.startswith("protoneuro sim-spiking")]
    (tmp_path / "net.json").write_text(json.dumps({"n": 10}))
    (tmp_path / "out").mkdir()
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(capsys, *shlex.split(command, comments=True)[1:])
    assert code == 0
    spikes = int(stdout.split("spikes=")[1])
    assert spikes > 0
    neurons = {line.split(",")[0] for line in
               (tmp_path / "out" / "run_raster.csv").read_text().splitlines()[1:]}
    assert neurons == {str(j) for j in range(10)}


def reference_read_stream(path, dt, expected_rows=None):
    # The line loop that read_stream_csv's block parse stands in for.
    with open(path, "r", newline="") as fh:
        numbered = [(n, ln) for n, ln in enumerate(fh.read().splitlines(), start=1)
                    if ln.strip()]
    if not numbered or not numbered[0][1].startswith("time_s"):
        raise ValidationError(f"{path}: expected a header starting with time_s")
    width = len(numbered[0][1].split(",")) - 1
    if width < 1:
        raise ValidationError(f"{path}: header lists no channels")
    linenos, times, rows = [], [], []
    for lineno, ln in numbered[1:]:
        parts = ln.strip().split(",")
        if len(parts) != width + 1:
            raise ValidationError(f"{path}: line {lineno}: expected {width + 1} fields, "
                                  f"got {len(parts)}")
        try:
            times.append(float(parts[0]))
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: {exc}") from None
        linenos.append(lineno)
    names = [name.strip() for name in numbered[0][1].split(",")[1:]]
    for lineno, row in zip(linenos, rows):
        for name, x in zip(names, row):
            if not math.isfinite(x):
                raise ValidationError(f"{path}: line {lineno}: {name} is {x:.9g}, "
                                      "not a finite number")
    for lineno, before, after in zip(linenos[1:], times, times[1:]):
        if not abs(after - before - dt) <= 1e-6 * dt:
            raise ValidationError(
                f"{path}: line {lineno}: time step {after - before:.9g} s, "
                f"expected the network's dt {dt:.9g} s")
    arr = np.asarray(rows, dtype=np.float64).T if rows else np.empty((width, 0))
    if expected_rows is not None and arr.shape[0] != expected_rows:
        raise ValidationError(f"{path}: {arr.shape[0]} channels, expected {expected_rows}")
    return arr


def stream_outcome(reader, path, dt):
    try:
        arr = reader(path, dt)
    except ValidationError as exc:
        return str(exc)
    return arr.shape, arr.tobytes("A"), arr.strides


@pytest.mark.parametrize("body", [
    "0,1,2\n1,3,4\n",
    "0,1,2\r\n1,3,4\r\n\r\n",      # CRLF and a blank line
    " 0 ,\t1, 2\n1,3 ,4 \n",       # spaces and tabs
    "7,1,2\n8,3,4\n",              # the start time is free
    "0,1,2\n1.0000009,3,4\n",      # within a relative 1e-6 of dt
    "0,1,2\n1.000002,3,4\n",       # not within it
    "0,1,2\n1,3,4\n3,5,6\n",       # a skipped step, named at its line
    "0,1,2\n\n2,3,4\n1,5,6\n",     # time going back
    "t0,1,2\nt1,3,4\n",            # a time that is not a number
    "0,1,2\n5,3,4\n2,x,6\n",       # a parse error wins over an earlier bad step
    "0,1,2\n1,3, x \n",            # the message quotes the field of the stripped line
    "0,1,2\nnan,3,4\n",
    "0,1,2\n1,nan,4\n",            # a channel value that is not finite
    "0,1,2\n1,3,-inf\n",
    "0,1,2\n5,3,4\n6,inf,4\n",     # ... wins over an earlier bad step
    "0,1,2\n1,inf,4\n2,x,4\n",     # a parse error wins over an earlier non-finite value
    "0,1,2\n1,3,4,5\n",            # stray field
    "0,1,2,9\n1,3,4,9\n",          # every row too wide
    "0,1_0,2\n1,3,4\n",            # float accepts, loadtxt not
    "0,1,2\n# note\n1,3,4\n",      # no comments in streams
    "0,1,2 # note\n",
    "0,1,\n",
    "",
    "0.0001\x1f,1,2\n",            # loadtxt strips \x1f from a field; float does not
    "0,1,2\n1,3,\x1f4\n",
    "\u00a0\n0.0001\x1f,1,2\n",    # ... in a chunk, the file not being ASCII
    "inf,1,2\ninf,3,4\n",          # two infinite times: a NaN step, and no warning
])
def test_stream_reader_matches_line_loop(tmp_path, body):
    path = tmp_path / "stream.csv"
    path.write_text("time_s,ch0,ch1\n" + body, newline="", encoding="utf-8")
    assert stream_outcome(networks.read_stream_csv, path, 1.0) == \
        stream_outcome(reference_read_stream, path, 1.0)


#: Every C0 byte, the line breaks \x85 and \u2028 from outside ASCII and a
#: letter from outside ASCII: where np.loadtxt and the line loop could split
#: lines or strip fields differently.
ODD = [chr(c) for c in range(32)] + ["\x85", "\u2028", "\u00e9"]
PLAIN_PAD = st.sampled_from(["", " ", "\t"])
PAD = st.one_of(PLAIN_PAD, PLAIN_PAD, PLAIN_PAD, st.sampled_from(ODD))
STREAM_FIELD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(["1_0", "nan", "inf", "", "x", " 2 ", "\t-0", "# n", "1e5", "2 # n"]),
    st.tuples(PAD, st.sampled_from(["0.5", "1"]), PAD).map("".join),
)


@st.composite
def stream_files(draw):
    """Stream files around the header ``time_s,ch0,ch1`` at dt = 1: mostly
    rows on the step, with blank, comment and malformed lines and bad steps."""
    lines = [draw(st.sampled_from(["", " "])) for _ in range(draw(st.integers(0, 2)))]
    lines.append("time_s,ch0,ch1")
    t = 0.0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 8 + ["step", "blank", "comment", "raw"]))
        if kind in ("row", "step"):
            t += 1.0 if kind == "row" else draw(st.sampled_from([0.0, 2.0, -1.0, 1.0000005]))
            pad = draw(PAD)
            values = [draw(STREAM_FIELD) if draw(st.booleans()) else "0.5" for _ in range(2)]
            lines.append(",".join([f"{pad}{t!r}{pad}", *values]))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "]) | PAD))
        elif kind == "comment":
            lines.append("# note")
        else:
            lines.append(",".join(draw(st.lists(STREAM_FIELD, min_size=0, max_size=4))))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=stream_files(), chunk=st.integers(1, 40))
def test_stream_reader_matches_line_loop_across_chunk_edges(tmp_path, text, chunk):
    # Small chunks put the cut next to every kind of line ending, blank line
    # and bad line, the header included.
    path = tmp_path / "stream.csv"
    path.write_text(text, newline="")
    old = _csvio._READ_CHUNK
    _csvio._READ_CHUNK = chunk
    try:
        assert stream_outcome(networks.read_stream_csv, path, 1.0) == \
            stream_outcome(reference_read_stream, path, 1.0)
    finally:
        _csvio._READ_CHUNK = old


@pytest.mark.parametrize("body, line", [
    ("0,1,2\n1,3,4\n3,5,6\n", 4),
    ("0,1,2\nt1,3,4\n", 3),
    ("0,1,2\n\n1,3,4\n\n3,5,6\n", 6),  # blank lines count in the numbering
    ("0,1,2\n\nt1,3,4\n", 4),
    ("0,1,2\n \n1,3\n", 4),
    pytest.param("".join(f"{k},1,2\n" for k in range(50)) + "# note\n50,1,2\n", 52,
                 id="late-comment"),  # a stream has no comments
])
def test_stream_reader_names_the_offending_line(tmp_path, body, line):
    path = tmp_path / "stream.csv"
    path.write_text("time_s,ch0,ch1\n" + body, newline="")
    with pytest.raises(ValidationError, match=f"line {line}: "):
        networks.read_stream_csv(path, 1.0)


@pytest.mark.parametrize("dt, ok", [(1e-4, True), (1e-3, False)])
def test_sim_spiking_checks_input_stream_against_network_dt(tmp_path, capsys, dt, ok):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"n": 1, "recurrent_weights": [[0.0]],
                               "input_weights": [[1.0]], "output_weights": [[1.0]]}))
    stream = tmp_path / "fin.csv"
    stream.write_text("time_s,ch0\n" + "".join(f"{(k + 1) * dt:.9g},2.0\n" for k in range(50)))
    code, _, stderr = run(capsys, "sim-spiking", "--net", str(net), "--input",
                          str(stream), "--out-prefix", str(tmp_path / "r"))
    assert code == (0 if ok else 2)
    if not ok:
        assert "line 3: time step 0.001 s, expected the network's dt 0.0001 s" in stderr


def test_sim_rate_checks_feedback_stream_against_network_dt(tmp_path, capsys):
    net = tmp_path / "rnet.json"
    net.write_text(json.dumps({"n": 1, "recurrent_weights": [[0.0]], "input_weights": [[1.0]],
                               "feedback_weights": [[1.0]], "dt": 1e-3}))
    fin, fb = tmp_path / "fin.csv", tmp_path / "fb.csv"
    fin.write_text("time_s,ch0\n" + "".join(f"{(k + 1) * 1e-3:.9g},0.5\n" for k in range(20)))
    fb.write_text("time_s,ch0\n" + "".join(f"{(k + 1) * 1e-4:.9g},0.5\n" for k in range(20)))
    args = ("sim-rate", "--net", str(net), "--input", str(fin),
            "--out-prefix", str(tmp_path / "rate"))
    assert run(capsys, *args)[0] == 0
    code, _, stderr = run(capsys, *args, "--feedback", str(fb))
    assert code == 2
    assert f"{fb}: line 3: time step" in stderr


def test_sim_rate_feedback_shorter_or_longer_than_input_exits_2(tmp_path, capsys):
    net = tmp_path / "rnet.json"
    net.write_text(json.dumps({"n": 1, "feedback_weights": [[1.0]]}))
    fin, fb = tmp_path / "fin.csv", tmp_path / "fb.csv"
    fin.write_text("time_s,ch0\n1e-4,0.5\n2e-4,0.5\n")
    fb.write_text("time_s,ch0\n1e-4,0.5\n2e-4,0.5\n3e-4,0.5\n")
    code, stdout, stderr = run(capsys, "sim-rate", "--net", str(net), "--input", str(fin),
                               "--feedback", str(fb), "--out-prefix", str(tmp_path / "r"))
    assert (code, stdout) == (2, "")
    assert stderr == "error: feedback must have shape (1, 2), got (1, 3)\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, stream", [
    ("sim-spiking", "--input"), ("sim-rate", "--input"), ("sim-rate", "--feedback")])
def test_sim_stream_with_a_non_finite_value_names_its_file_and_line(tmp_path, capsys,
                                                                   command, stream, value):
    # Rejected as it is read (exit 2), not as a non-finite state of the run (exit 3).
    net = tmp_path / "net.json"
    net.write_text(json.dumps({"n": 1, "feedback_weights": [[1.0]]} if command == "sim-rate"
                              else {"n": 1}))
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("time_s,ch0\n1e-4,0.5\n2e-4,0.5\n3e-4,0.5\n")
    bad.write_text(f"time_s,ch0\n1e-4,0.5\n\n2e-4,{value}\n3e-4,0.5\n")
    streams = {"--input": good, "--feedback": good} if command == "sim-rate" \
        else {"--input": good}
    streams[stream] = bad
    argv = [command, "--net", str(net), "--out-prefix", str(tmp_path / "r")]
    for flag, path in streams.items():
        argv += [flag, str(path)]
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {bad}: line 4: ch0 is {value}, not a finite number\n"
    assert not list(tmp_path.glob("r_*"))


@pytest.mark.parametrize("command", ["sim-spiking", "sim-rate"])
@pytest.mark.parametrize("flags, message", [
    (["--input", "@fin.csv", "--steps", "50"],
     "argument --steps: not allowed with argument --input"),
    ([], "one of the arguments --input --steps is required"),
    (["--input", "@fin.csv", "--drive", "3"],
     "error: --drive goes with --steps, not with --input"),
], ids=["input-and-steps", "neither", "input-and-drive"])
def test_sim_input_is_a_stream_or_constant_drive_not_both(tmp_path, command, flags, message):
    (tmp_path / "net.json").write_text(json.dumps({"n": 1}))
    (tmp_path / "fin.csv").write_text("time_s,ch0\n1e-4,1\n2e-4,1\n")
    argv = [command, "--net", str(tmp_path / "net.json"), "--out-prefix", str(tmp_path / "r"),
            *(str(tmp_path / f[1:]) if f.startswith("@") else f for f in flags)]
    done = subprocess.run([sys.executable, "-m", "protoneuro.cli", *argv],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1].endswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fin.csv", "net.json"]


def _model_with_bounds(bounds):
    from protoneuro import qsar
    doc = qsar.model_to_dict(qsar.REFERENCE_COEFFICIENTS)
    doc["bounds"] = bounds
    return json.dumps(doc).encode()


_NET = json.dumps({"n": 1}).encode()
_MANIFEST = {"sample_labels": ["a"], "source_files": ["a.csv"]}

# Each case: (files to write, argv with @name for a path in the test's
# directory, the file the error must name, the line or key it must name).
BAD_INPUTS = {
    "observations-not-utf8": (
        {"obs.csv": b"label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz\n"
                    b"s0,1\xff,2,3\n"},
        ["qsar-fit", "@obs.csv", "--out", "@model.json"], "obs.csv", "line 2: byte 0xff"),
    "net-not-utf8": (
        {"net.json": b'{"n": 1,\n "seed": "\xff"}'},
        ["sim-spiking", "--net", "@net.json", "--steps", "5", "--out-prefix", "@r"],
        "net.json", "line 2: byte 0xff"),
    "config-not-utf8": (
        {"cfg.json": b'{\n\n"seed": 1}\xfe'},
        ["waveform", "--config", "@cfg.json", "--out", "@w.csv"], "cfg.json", "line 3: byte 0xfe"),
    "manifest-not-utf8": (
        {"m.json": b'{"sample_labels": ["\xe9"]}'},
        ["pipeline", "@m.json", "--output-dir", "@out"], "m.json", "line 1: byte 0xe9"),
    "report-not-utf8": (
        {"report.json": b'{"samples": []}\r\n\xff'},
        ["report", "@report.json"], "report.json", "line 2: byte 0xff"),
    "series-not-utf8": (
        {"s.csv": b"time_s,value\n# unit=volt\n0,1\n1,\xff2\n"},
        ["detect", "@s.csv"], "s.csv", "line 4: byte 0xff"),
    "series-wrong-header": (
        {"s.csv": b"time,value\n0,1\n"}, ["detect", "@s.csv"], "s.csv",
        "line 1: expected header 'time_s,value'"),
    "series-bad-unit": (
        {"s.csv": b"time_s,value\n# unit=bogus\n0,1\n"}, ["detect", "@s.csv"], "s.csv",
        "line 2: unit must be one of"),
    "series-bad-row": (
        {"s.csv": b"time_s,value\n0,1\n1,x\n"}, ["detect", "@s.csv"], "s.csv",
        "line 3: could not convert string to float: 'x'"),
    "stream-not-utf8": (
        {"net.json": _NET, "fin.csv": b"time_s,ch0\n0.0001,1\n0.0002,\x80\n"},
        ["sim-spiking", "--net", "@net.json", "--input", "@fin.csv", "--out-prefix", "@r"],
        "fin.csv", "line 3: byte 0x80"),
    "model-bound-not-a-number": (
        {"model.json": _model_with_bounds({"p00": ["ab", 1e4]})},
        ["qsar-predict", "--model", "@model.json", "--x", "1", "--y", "1"],
        "model.json", 'bounds "p00" must be a finite number'),
    "model-bound-of-three": (
        {"model.json": _model_with_bounds({"p00": [-1e4, 0, 1e4]})},
        ["qsar-predict", "--model", "@model.json", "--x", "1", "--y", "1"],
        "model.json", 'bounds "p00" must be a [low, high] pair'),
    "model-bounds-a-list": (
        {"model.json": _model_with_bounds([[-1e4, 1e4]])},
        ["qsar-predict", "--model", "@model.json", "--x", "1", "--y", "1"],
        "model.json", '"bounds" must be a JSON object'),
    "config-string-seed": (
        {"cfg.json": b'{"seed": "x"}'},
        ["waveform", "--config", "@cfg.json", "--out", "@w.csv"],
        "cfg.json", "config \"seed\" must be an integer >= 0, got 'x'"),
    "config-fractional-seed": (
        {"cfg.json": b'{"seed": 1.5}'},
        ["synth", "--config", "@cfg.json", "--out", "@s.csv", "--count", "2",
         "--mean-isi", "10"],
        "cfg.json", 'config "seed" must be an integer >= 0, got 1.5'),
    "manifest-string-seed": (
        {"m.json": json.dumps({**_MANIFEST, "seed": "x"}).encode(), "a.csv": b"time_s,value\n0,0\n"},
        ["pipeline", "@m.json", "--output-dir", "@out"], "m.json", 'manifest "seed"'),
    "config-nan-in-a-section": (
        {"cfg.json": b'{"dpv": {"start_potential": NaN}}'},
        ["waveform", "--config", "@cfg.json", "--out", "@w.csv"],
        "cfg.json", 'config "dpv.start_potential" must be a finite number, got nan'),
    "manifest-fractional-neuron-count": (
        {"m.json": json.dumps({**_MANIFEST, "coding": {"neuron_count": 2.5}}).encode(),
         "a.csv": b"time_s,value\n0,0\n"},
        ["pipeline", "@m.json", "--output-dir", "@out"], "m.json",
        "neuron_count must be an integer >= 1"),
    "manifest-an-array": (
        {"m.json": b"[]"},
        ["pipeline", "@m.json", "--output-dir", "@out"], "m.json", "must be a JSON object"),
    "manifest-labels-a-number": (
        {"m.json": json.dumps({**_MANIFEST, "sample_labels": 5}).encode()},
        ["pipeline", "@m.json", "--output-dir", "@out"], "m.json",
        'manifest "sample_labels" must be a list'),
    **{f"manifest-{case}": ({"m.json": json.dumps({**_MANIFEST, **doc}).encode()},
                            ["pipeline", "@m.json", "--output-dir", "@out"], "m.json", place)
       for case, doc, place in [
        ("lengths-differ", {"sample_labels": ["a", "b"]},
         "sample_labels and source_files differ in length"),
        ("no-samples", {"sample_labels": [], "source_files": []}, "manifest lists no samples"),
        ("duplicate-labels", {"sample_labels": ["a", "a"], "source_files": ["a.csv", "a.csv"]},
         "sample labels must be unique"),
        ("weights-bogus", {"weights": "bogus"}, 'weights must be "seeded" or "reference"'),
    ]},
    **{f"observations-{case}": (
        {"obs.csv": b"label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz\n" + row},
        ["qsar-fit", "@obs.csv", "--out", "@model.json"], "obs.csv", place)
       for case, row, place in [
        ("three-fields", b"s0,100,2\n", "line 2: expected 4 fields, got 3"),
        ("fractional-length", b"s0,100,0.5,3\n", "line 2: peptide_length must be >= 1"),
        ("nan-rate", b"s0,100,2,nan\n", "line 2: mean_firing_rate must be finite"),
    ]},
    "report-an-array": (
        {"report.json": b"[]"}, ["report", "@report.json"], "report.json",
        "must be a JSON object"),
    "report-sample-not-an-object": (
        {"report.json": b'{"samples": [5]}'}, ["report", "@report.json"], "report.json",
        'report "samples" must be a list of objects'),
    **{f"report-{case}": ({"report.json": doc}, ["report", "@report.json"], "report.json",
                          place) for case, doc, place in [
        ("isi-a-string", b'{"samples": [{"mean_isi_s": "x"}]}',
         'report "samples[0].mean_isi_s" must be a finite number'),
        ("label-a-list", b'{"samples": [{"label": ["a"]}]}',
         'report "samples[0].label" must be a string'),
        ("aggregate-a-number", b'{"aggregate": 3}', 'report "aggregate" must be a JSON object'),
        ("errors-a-number", b'{"errors": 5}', 'report "errors" must be a JSON object'),
        ("error-not-a-string", b'{"errors": {"a": 1}}', 'report "errors.a" must be a string'),
        ("psi-not-numbers", b'{"psi": [1, "a"]}', 'report "psi[1]" must be a finite number'),
        ("labels-short-of-psi", b'{"psi": [1, 2], "neuron_labels": ["a"]}',
         'report "neuron_labels" lists 1 labels for 2 psi entries'),
    ]},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_files_exit_2_naming_path_and_place(tmp_path, case):
    files, argv, culprit, place = BAD_INPUTS[case]
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    done = subprocess.run([sys.executable, "-m", "protoneuro.cli", *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith(f"error: {tmp_path / culprit}: ")
    assert place in line


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], {}),
                                       ([], {"PROTONEURO_SEED": "-1"})],
                         ids=["flag", "environment"])
def test_negative_seed_names_its_source(tmp_path, flag, env):
    done = subprocess.run(
        [sys.executable, "-m", "protoneuro.cli", "synth", "--out", str(tmp_path / "s.csv"),
         "--count", "2", "--mean-isi", "10", *flag], env={**src_env(), **env},
        capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    assert done.returncode == 2
    name = flag[0] if flag else "PROTONEURO_SEED"
    assert done.stderr == f"error: {name} must be an integer >= 0, got -1\n"


BAD_FLAGS = [
    (["synth", "--count", "2", "--mean-isi", "10", "--duration", "nan"], "duration"),
    (["synth", "--count", "2", "--mean-isi", "10", "--duration", "inf"], "duration"),
    (["synth", "--count", "3", "--mean-isi", "nan"], "mean_isi"),
    (["synth", "--count", "3", "--mean-isi", "nan", "--duration", "100"], "mean_isi"),
    (["synth", "--spike-times", "nan"], "spike_times"),
    (["synth", "--spike-times", "10", "nan", "--duration", "40"], "spike_times"),
    (["synth", "--spike-times", "10", "--half-width", "inf"], "spike_half_width"),
    (["synth", "--count", "2", "--mean-isi", "10", "--noise-sd", "nan"], "noise_sd"),
    (["waveform", "--start", "nan"], "start_potential"),
    (["waveform", "--end", "inf"], "end_potential"),
    (["waveform", "--pulse-amplitude", "nan"], "pulse_amplitude"),
    (["waveform", "--equilibrium-time", "nan"], "equilibrium_time"),
    (["sim-spiking", "--steps", "-1"], "--steps"),
    (["sim-rate", "--steps", "-1"], "--steps"),
    (["sim-spiking", "--steps", "5", "--drive", "nan"], "--drive"),
    (["sim-rate", "--steps", "5", "--drive", "inf"], "--drive"),
    (["qsar-predict", "--x", "300", "--y", "4", "--mean", "nan"], "--mean"),
    (["qsar-predict", "--x", "300", "--y", "4", "--mean", "inf"], "--mean"),
    (["synth", "--count", "5"], "mean_isi"),
    (["weights", "--n", "0"], "--n"),
]


@pytest.mark.parametrize("argv, field", BAD_FLAGS, ids=[" ".join(argv) for argv, _ in BAD_FLAGS])
def test_non_finite_and_negative_flags_exit_2_naming_the_field(tmp_path, argv, field):
    (tmp_path / "net.json").write_text(json.dumps({"n": 2}))
    out = {"synth": ["--out", str(tmp_path / "s.csv")],
           "waveform": ["--out", str(tmp_path / "w.csv")],
           "weights": ["--out", str(tmp_path / "w.csv")],
           "qsar-predict": []}.get(
        argv[0], ["--net", str(tmp_path / "net.json"), "--out-prefix", str(tmp_path / "r")])
    done = subprocess.run([sys.executable, "-m", "protoneuro.cli", *argv, *out],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    assert done.returncode == 2, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith(f"error: {field} must be ")
    assert done.stdout == ""
    assert list(tmp_path.iterdir()) == [tmp_path / "net.json"]


# Finite flags whose derived size or sum is out of range: each once ended in
# a traceback (exit 1), a RuntimeWarning or a waveform of infinite times.
OUT_OF_RANGE = [
    (["synth", "--spike-times", "1", "--duration", "1e300"], None, "duration must be below"),
    (["synth", "--spike-times", "1", "--duration", "10", "--baseline", "1e308",
      "--amplitude", "1e308"], None, "at t=1 s: value is inf, not a finite number"),
    (["weights", "--n", "1000000000000"], None, "n must be at most 1073741823"),
    (["waveform"], {"start_potential": -1e308, "end_potential": 1e308},
     "the scan span (|end_potential - start_potential|) must be finite"),
    (["waveform"], {"scan_rate": 1e-320}, "step_duration (step_size / scan_rate) must be finite"),
    (["waveform", "--step-size", "1e-300", "--pulse-width", "1e-303"], None,
     "the step count (span / step_size) must be at most 576460752303423487, got 1.6e+301"),
    (["sim-spiking", "--steps", "10000000000000000000"], None,
     "--steps must be at most 1152921504606846975"),
    (["sim-rate", "--steps", "10000000000000000000"], None,
     "--steps must be at most 1152921504606846975"),
    (["synth", "--spike-times", "1", "--half-width", "1e200", "--duration", "3"], None,
     "spike_half_width must give a finite bump variance (2 * sigma**2), got 1e+200"),
    (["synth", "--count", "3", "--mean-isi", "1e308", "--duration", "3"], None,
     "mean_isi 1e+308 places 3 spikes beyond the float range"),
]


@pytest.mark.parametrize("argv, dpv, message", OUT_OF_RANGE,
                         ids=["synth-duration", "synth-overflow", "weights-n",
                              "waveform-span", "waveform-scan-rate", "waveform-step-count",
                              "sim-spiking-steps", "sim-rate-steps", "synth-half-width",
                              "synth-mean-isi"])
def test_out_of_range_sizes_and_sums_exit_2_naming_the_field(tmp_path, argv, dpv, message):
    config = []
    if dpv is not None:
        (tmp_path / "cfg.json").write_text(json.dumps({"dpv": dpv}))
        config = ["--config", str(tmp_path / "cfg.json")]
    out = ["--out", str(tmp_path / "out.csv")]
    if argv[0].startswith("sim-"):
        (tmp_path / "net.json").write_text(json.dumps({"n": 2}))
        out = ["--net", str(tmp_path / "net.json"), "--out-prefix", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, "-m", "protoneuro.cli", *argv, *config, *out],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and message in line
    assert {path.name for path in tmp_path.iterdir()} <= {"cfg.json", "net.json"}


@pytest.mark.parametrize("mean, deviation", [("1e308", "-inf"), ("1e-320", "inf")])
def test_percent_deviation_out_of_range_exits_2_naming_the_mean(mean, deviation):
    done = subprocess.run([sys.executable, "-m", "protoneuro.cli", "qsar-predict",
                           "--x", "300", "--y", "2", "--mean", mean],
                          env=src_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr == (f"error: mean firing rate {float(mean)!r} gives a percent "
                           f"deviation of {deviation}, not a finite number\n")


@pytest.mark.parametrize("command", ["sim-spiking", "sim-rate"])
def test_zero_steps_of_constant_drive_run(tmp_path, capsys, command):
    (tmp_path / "net.json").write_text(json.dumps({"n": 2}))
    code, stdout, _ = run(capsys, command, "--net", str(tmp_path / "net.json"), "--steps", "0",
                          "--out-prefix", str(tmp_path / "r"))
    assert code == 0
    assert stdout.startswith("steps=0 ")
