"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench/test_perfbench.py``.

The two real-run tests run the benchmark briefly (under a minute together).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import workloads
from tracer import Span, covered_length, parse_importtime, self_time_by_name, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2
    assert covered_length([(0, 2), (1, 3), (5, 6), (2.5, 4)]) == 5


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span(0, "parent", 0.0, None, 10.0),
        Span(1, "child", 1.0, 0, 3.0),
        Span(2, "child", 2.0, 0, 5.0),    # overlaps the first child
        Span(3, "late", 8.0, 0, 12.0),    # runs past the parent's end
        Span(4, "grandchild", 1.5, 1, 2.5),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10 - (4 + 2))
    assert got[1] == pytest.approx(2 - 1)
    assert got[2] == pytest.approx(3)
    assert got[4] == pytest.approx(1)
    assert self_time_by_name(spans)["child"] == pytest.approx(4)


def test_parse_importtime_reads_cumulative_microseconds():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        120 |   _io\n"
              "import time:       300 |    1240000 |     protoneuro.qsar\n"
              "import time:       900 |    1500000 | protoneuro\n")
    got = parse_importtime(stderr)
    assert got == {"_io": 120e-6, "protoneuro.qsar": 1.24, "protoneuro": 1.5}


def test_high_percentile_keeps_ten_samples_beyond():
    assert run.high_percentile(list(range(1, 101))) == (90.0, 90)
    assert run.high_percentile(list(range(11, 0, -1))) == (100 / 11, 1)
    assert run.high_percentile(list(range(10))) is None
    values = list(range(1, 31))
    p, v = run.high_percentile(values)
    assert sum(x > v for x in values) == 10 and p == pytest.approx(100 * 20 / 30)


class _Workload:
    name = "fake"

    @staticmethod
    def check(call, stdout, work):
        return None if stdout == "ok" else "no activity"


def test_fail_frac_counts_corrupt_artefact_and_nonzero_exit(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("1,2\n")
    call = workloads.Call("fake", (), (str(out),))
    checker = run.Checker(_Workload, None, str(tmp_path))
    runner = run.Runner(str(tmp_path), deadline=time.monotonic() + 60)
    runner.record("good", checker(call, 0, "ok", ""))
    out.write_text("1,3\n")
    runner.record("corrupt", checker(call, 0, "ok", ""))
    runner.record("crash", checker(call, 1, "ok", "boom"))
    out.write_text("1,2\n")
    runner.record("silent", checker(call, 0, "quiet", ""))
    assert (runner.failed, runner.attempted) == (3, 4)
    assert run.fail_frac(runner.failed, runner.attempted) == 0.75
    assert "differ from the reference" in runner.failures[0]


def test_reference_digests_take_precedence(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("x\n")
    call = workloads.Call("fake", (), (str(out),))
    checker = run.Checker(_Workload, {"fake": {"out.csv": "0" * 64}}, str(tmp_path))
    assert "differ" in checker(call, 0, "ok", "")


class _ScriptedRunner(run.Runner):
    """Every process takes 1 s; the deadline passes during the fifth program call."""

    def __init__(self, work):
        super().__init__(work, deadline=float("inf"))
        self.program_calls = 0

    def remaining(self):
        return 0.0 if self.program_calls >= 5 else 100.0

    def spawn(self, args):
        if args[:2] == ["-m", "protoneuro.cli"]:
            self.program_calls += 1
            if self.program_calls == 5:
                return -9, 0.0, 0.0, "", "killed"
        return 0, 1.0, 20.0, "ok", ""


def test_iteration_cut_by_the_deadline_is_not_a_sample(tmp_path):
    calls = [workloads.Call("a", (), ()), workloads.Call("b", (), ())]
    runner = _ScriptedRunner(str(tmp_path))
    checker = run.Checker(_Workload, None, str(tmp_path))
    samples = run.run_untraced(calls, runner, checker, seconds=1000)
    assert samples["wall_s"] == [2.0, 2.0]
    assert samples["calls"] == {"a": [1.0, 1.0], "b": [1.0, 1.0]}
    assert (runner.failed, runner.attempted) == (1, 8)  # 3 setup probes, 5 calls


def test_observed_digests_are_recorded_even_when_wrong(tmp_path):
    out = tmp_path / "out.csv"
    out.write_text("x\n")
    call = workloads.Call("fake", (), (str(out),))
    checker = run.Checker(_Workload, {"fake": {"out.csv": "0" * 64}}, str(tmp_path))
    checker(call, 0, "ok", "")
    assert checker.seen == {"fake": {"out.csv": run.sha256(str(out))}}


def test_spawn_reports_exit_code_and_rss(tmp_path):
    runner = run.Runner(str(tmp_path), deadline=time.monotonic() + 60)
    code, wall, rss, stdout, _ = runner.spawn(["-c", "print('hi'); raise SystemExit(3)"])
    assert (code, stdout) == (3, "hi\n")
    assert wall > 0 and rss > 1


def test_spawned_rss_excludes_the_harness_peak(tmp_path):
    ballast = b"x" * (300 << 20)  # touched pages: the harness peak exceeds 300 MB
    runner = run.Runner(str(tmp_path), deadline=time.monotonic() + 60)
    code, _, rss, _, _ = runner.spawn(["-c", "pass"])
    del ballast
    assert code == 0 and rss < 100


def test_spawn_kills_the_program_at_the_deadline(tmp_path):
    runner = run.Runner(str(tmp_path), deadline=time.monotonic() + 1)
    began = time.monotonic()
    code, _, _, _, _ = runner.spawn(["-c", "import time; time.sleep(60)"])
    assert code != 0 and time.monotonic() - began < 10


def test_validate_result_rejects_malformed_lines():
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    run.validate_result(good)
    bad = [
        {**good, "extra": 1},
        {**good, "attempted": 0},
        {**good, "failed": 4},
        {**good, "correct": 1},
        {**good, "metrics": {"wall_s": {"value": None, "unit": "s"}}},
        {**good, "metrics": {"wall_s": {"value": float("nan"), "unit": "s"}}},
        {**good, "metrics": {"wall_s": {"value": 1.0}}},
    ]
    for doc in bad:
        with pytest.raises(ValueError):
            run.validate_result(doc)
    zero = {**good, "metrics": {"kernels.lif_run.self_s": {"value": 0, "unit": "s"}}}
    run.validate_result(zero)  # a per-layer metric of a layer the workload skips
    with pytest.raises(ValueError):
        run.validate_result(zero, positive=True)


def test_same_seed_gives_same_inputs(tmp_path):
    for name, workload in workloads.WORKLOADS.items():
        a, b = tmp_path / f"{name}a", tmp_path / f"{name}b"
        a.mkdir()
        b.mkdir()
        workload.prepare(str(a), 3)
        workload.prepare(str(b), 3)
        for f in sorted(os.listdir(a)):
            assert (a / f).read_bytes() == (b / f).read_bytes(), f


@pytest.mark.parametrize("seed", [1, 42, 319916915, 2**31 - 1])
def test_every_lif_neuron_is_driven_above_threshold(tmp_path, seed):
    # Drive alone lifts each neuron's steady state past threshold and no
    # recurrent weight inhibits, so the "every neuron spikes" check holds on
    # any seed. Defaults: rest -65 mV, threshold -50 mV, tau_m 20 ms.
    workloads.prepare_simulate(str(tmp_path), seed)
    spec = json.loads((tmp_path / "lif.json").read_text())
    drive = np.asarray(spec["input_weights"])[:, 0] * workloads.LIF_DRIVE
    assert np.all(-0.065 + 0.020 * drive > -0.050)
    assert np.min(spec["recurrent_weights"]) >= 0


def test_detection_funnel_counts_plateaus_once():
    values = np.array([0, 2, 2, 1, 3, 1, 1, 0.5, 0.7, 0.7, 0.2, 0.9, 0.9])
    # runs 0, 2, 1, 3, 1, 0.5, 0.7, 0.2, 0.9: peaks 2, 3, 0.7; the last run touches the end
    assert workloads.detection_funnel(values, 1.5) == (3, 2)


def test_spec_names_and_units_are_well_formed():
    spec = run.load_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in spec["workloads"] + metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_real_run_prints_a_valid_result(trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "session", "--seed", "2", "--seconds", "0.1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=180, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = _result_line(proc.stdout)
    run.validate_result(doc, positive=not trace)
    spec = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert [(n, m["unit"]) for n, m in doc["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in spec]
    assert doc["correct"] and doc["failed"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
