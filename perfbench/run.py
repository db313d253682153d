"""Benchmark of the protoneuro command line, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload all --seconds 160  # end-to-end table
    python3 perfbench/run.py --workload all --trace 1      # traced per-layer table
    python3 perfbench/run.py --workload series --seed 3 --seconds 20 --trace 0

A run of ``run_seconds`` (``BENCHMARK.json``) holds 3 to 5 iterations, too
few for the high percentile, which needs 11 samples and lies above the
median only from 21; 160 s gave every workload 17 iterations on a 2-vCPU
machine. Without ``--seconds`` a run lasts ``run_seconds``.

Workloads (inputs generated from ``--seed`` by ``workloads.py``; the
program only receives files):

- ``series``: ``synth`` a 1,000,001-sample noisy surrogate, then ``detect``.
- ``simulate``: ``sim-spiking`` 10 LIF neurons x 50,000 steps, then
  ``sim-rate`` 50 units x 20,000 steps with input and feedback streams.
- ``session``: ``waveform``, ``pipeline`` over ten reference surrogates,
  ``report``, ``qsar-fit`` on 60 observations, ``qsar-predict``.

Each iteration runs the workload's calls in order, each as a fresh
``python -m protoneuro.cli`` process against ``src/`` of the checkout, so
imports, argument parsing and file I/O count. Iterations repeat until
``--seconds`` have passed (at least one). Calls run one at a time.

End-to-end metrics (``--trace 0``), one value per run:

=============  =====  ==================================================
name           unit   meaning
=============  =====  ==================================================
wall_s         s      median over iterations of the summed wall time of
                      the workload's calls, process start to exit
setup_s        s      median wall time of fresh interpreters that import
                      ``protoneuro.cli``, build the parser and exit; one
                      before each iteration, at least 3 per run
peak_rss_mb    MB     median over iterations of the largest child
                      ``ru_maxrss`` (``os.wait4`` in a small launcher)
=============  =====  ==================================================

``fail_frac`` (failed / attempted program processes) is printed in the
table; in the result line it is the ``failed`` and ``attempted`` counts.
A call fails when it exits non-zero, fails its workload's activity check
(``series``: 0 < kept < above threshold; ``simulate``: every LIF neuron
spikes and the rate trace is finite; ``session``: samples_ok=10,
samples_failed=0 and finite residual_ss), or writes an artefact whose
sha256 differs from the reference: ``digests.json`` for seed
``DEFAULT_SEED``, otherwise the first iteration of the same run. An
iteration cut by the run's deadline is dropped from the samples; its
killed call counts as failed.

Per-layer metrics (``--trace 1``): the run measures the untraced calls for
half of ``--seconds``, then replays the same argv in-process through
``protoneuro.cli.main`` with the wrappers of ``tracer.py`` for the other
half. Values are medians over traced iterations, zero for layers the
workload does not reach. The result line carries the ``per_layer`` names
of ``BENCHMARK.json``; the record line carries every wrapped function:

- ``cli.import_s``, ``qsar.import_s`` (s): cumulative import time of
  ``protoneuro`` + ``protoneuro.cli``, and of ``protoneuro.qsar``, from
  ``python -X importtime`` (median of 3).
- ``cli.<subcommand>.wall_s`` (s): untraced per-call process wall time.
- ``cli.<subcommand>.self_s`` and ``<module>.<function>.self_s`` (s): span
  self time, i.e. duration minus the time covered by child spans; module
  is one of signals, spikes, networks, coding, dpv, qsar, and kernels for
  ``protoneuro._kernels`` (metric names start with a letter).
- counts (count): ``signals.read_timeseries_csv.rows``,
  ``signals.write_timeseries_csv.rows``, the detection funnel
  ``spikes.maxima`` -> ``spikes.above_threshold`` -> ``spikes.kept``,
  ``kernels.local_maxima.samples``, ``kernels.lif_run.neuron_steps``,
  ``kernels.lif_run.spikes``, ``kernels.rate_run.unit_steps``,
  ``networks.write_trace_csv.rows``; ``spikes.kept_ratio`` (ratio) is
  kept / above threshold.
- ``trace.overhead_s`` (s): traced in-process total minus (untraced
  wall_s - calls x setup_s).
- With the compiled kernels active, the record line also carries
  ``kernels.<fn>.pure_self_s``: the pure backend timed on the same inputs.

Output: tables for a reader, then a ``record:`` line holding the full
result as JSON (every metric with its samples, median, highest percentile
with at least ten samples beyond it and sample count; digests; failures;
the environment: CPU count and model, Python, numpy and scipy versions,
numpy's BLAS config, the OMP/OPENBLAS/MKL thread variables, the kernel
backend and whether ``protoneuro._kernels._native`` imports, with its
ImportError if not), then the result line ``{"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}``. With ``--workload all``
the metric names are prefixed with the workload. Inputs and artefacts live
in ``.perfbench_work/`` of the checkout and are removed at exit.
The record line's ``digests`` are the ones this run observed (the first
iteration of each call): when the program's output changes on purpose,
copy them from a seed-``DEFAULT_SEED`` run into ``digests.json``.

End-to-end values are always positive (``validate_result`` checks it);
per-layer values are zero for layers a workload does not reach, because
every traced result line carries every ``per_layer`` name, and
``trace.overhead_s`` may be negative when tracing costs less than the noise.

Self-tests: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import signal
import subprocess
import sys
import time

import workloads
from tracer import Tracer, parse_importtime, self_time_by_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s; stop starting work here
SETUP_CODE = "from protoneuro.cli import build_parser; build_parser()"
#: Starts one program process and reports on it. A child inherits its
#: parent's peak resident set across exec on Linux, so the program is
#: spawned from this small interpreter, not from the harness, whose own
#: peak would otherwise floor every ``ru_maxrss`` it reads.
LAUNCHER = """
import json, os, sys, time
report, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(report, "w") as fh:
    json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
               "maxrss_kb": usage.ru_maxrss}, fh)
"""
ENV_CODE = """
import json, protoneuro
info = {"kernel_backend": protoneuro.kernel_backend(), "protoneuro": protoneuro.__version__}
try:
    import protoneuro._kernels._native
    info["native_import"] = "ok"
except ImportError as exc:
    info["native_import"] = f"ImportError: {exc}"
print(json.dumps(info))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken interpreter)."""


def high_percentile(values, beyond=10):
    """(percentile, value) of the highest percentile with at least ``beyond``
    samples above it, by nearest rank; None with too few samples."""
    xs = sorted(values)
    rank = len(xs) - beyond
    if rank < 1:
        return None
    return 100.0 * rank / len(xs), xs[rank - 1]


def summary(values, unit):
    """Median, high percentile and sample count of a metric's samples."""
    hp = high_percentile(values)
    return {"unit": unit, "median": statistics.median(values) if values else None,
            "n": len(values), "samples": list(values),
            "high_percentile": None if hp is None else {"p": hp[0], "value": hp[1]}}


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fail_frac(failed, attempted):
    return failed / attempted if attempted else 0.0


class Runner:
    """Runs program processes under a deadline and accounts for each of them."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def remaining(self):
        return self.deadline - time.monotonic()

    def spawn(self, args):
        """Run ``python <args>``; returns (exit code, wall s, maxrss MB, stdout, stderr).

        A fresh LAUNCHER process starts the program and reports the wall
        time from just before the spawn to the reaping of the child, and the
        child's peak resident set from ``os.wait4``. The whole session is
        killed when the run's deadline passes.
        """
        out_path = os.path.join(self.work, "stdout.txt")
        err_path = os.path.join(self.work, "stderr.txt")
        report = os.path.join(self.work, "launch.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(report)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-I", "-S", "-c", LAUNCHER, report, sys.executable, *args],
                cwd=self.work, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                start_new_session=True)
            try:
                proc.wait(timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        try:
            with open(report) as fh:
                got = json.load(fh)
        except (OSError, ValueError):  # killed at the deadline
            code = proc.returncode or -signal.SIGKILL
            return code, 0.0, 0.0, stdout, stderr + "\nno launch report"
        return got["code"], got["wall_s"], got["maxrss_kb"] / 1024.0, stdout, stderr

    def record(self, what, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.failures.append(f"{what}: {problem}")
        return not problem

    def probe(self, args, what):
        """A helper process that must succeed; returns (wall s, stdout, stderr)."""
        code, wall, _, stdout, stderr = self.spawn(args)
        if not self.record(what, f"exit {code}: {stderr.strip()[-400:]}" if code else None):
            return None
        return wall, stdout, stderr


class Checker:
    """Decides whether one call's outcome counts as failed."""

    def __init__(self, workload, reference, work):
        self.workload = workload
        self.work = work
        self.from_reference = reference is not None
        self.reference = reference or {}
        self.seen = {}  # digests of the first run of each call that wrote them all
        self._checked = {}

    def __call__(self, call, code, stdout, stderr):
        if code != 0:
            return f"exit {code}: {stderr.strip()[-400:]}"
        try:
            digests = {os.path.relpath(p, self.work): sha256(p) for p in call.artefacts}
        except OSError as exc:
            return f"artefact missing: {exc}"
        first = self.seen.setdefault(call.name, digests)
        expected = self.reference.get(call.name, first)
        if digests != expected:
            return f"artefact digests {digests} differ from the reference {expected}"
        key = (call.name, stdout, tuple(sorted(digests.items())))
        if key not in self._checked:
            try:
                self._checked[key] = self.workload.check(call, stdout, self.work)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                self._checked[key] = f"activity check cannot read the output: {exc!r}"
        return self._checked[key]


def load_reference_digests(workload):
    try:
        with open(DIGESTS) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    return doc["workloads"].get(workload) if doc.get("seed") == DEFAULT_SEED else None


def environment(runner):
    import numpy

    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "threads_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        from importlib.metadata import version
        info["scipy"] = version("scipy")
    except Exception as exc:  # record, do not fail: the program run will tell
        info["scipy"] = f"unknown ({exc})"
    try:
        info["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info["blas"] = "unavailable"
    got = runner.probe(["-c", ENV_CODE], "environment probe")
    if got is None:
        raise BenchError("cannot import protoneuro from src/: " + runner.failures[-1])
    info.update(json.loads(got[1].strip().splitlines()[-1]))
    return info


def run_untraced(calls, runner, checker, seconds):
    """Repeat [setup probe, calls...] as processes until ``seconds`` pass.

    Setup probes are interleaved with the iterations, so both metrics see
    the same stretch of machine time; more are added at the end if fewer
    than SETUP_PROBES iterations fit.
    """
    samples = {"wall_s": [], "peak_rss_mb": [], "setup_s": [],
               "calls": {c.name: [] for c in calls}}

    def setup_probe():
        got = runner.probe(["-c", SETUP_CODE], "setup probe")
        if got:
            samples["setup_s"].append(got[0])

    start = time.monotonic()
    while True:
        began = time.monotonic()
        setup_probe()
        took = {}
        peak = 0.0
        for call in calls:
            if runner.remaining() <= 0:
                break
            code, took[call.name], rss, stdout, stderr = runner.spawn(
                ["-m", "protoneuro.cli", *call.argv])
            problem = checker(call, code, stdout, stderr)
            runner.record(f"{call.name} (iteration {len(samples['wall_s']) + 1})", problem)
            peak = max(peak, rss)
        if len(took) < len(calls) or runner.remaining() <= 0:
            break  # cut by the deadline: not a whole sample
        samples["wall_s"].append(sum(took.values()))
        samples["peak_rss_mb"].append(peak)
        for name, t in took.items():
            samples["calls"][name].append(t)
        # Start another iteration only if at least half of it fits in the time.
        last = time.monotonic() - began
        elapsed = time.monotonic() - start
        if elapsed + last / 2 >= seconds or runner.remaining() < last:
            break
    while len(samples["setup_s"]) < SETUP_PROBES and runner.remaining() > 0:
        setup_probe()
    return samples


def run_traced(calls, runner, checker, seconds, native):
    """Replay the argv in-process with the layer wrappers; per-iteration values."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from protoneuro import cli
    from protoneuro._kernels import pure

    tracer = Tracer()
    tracer.record_kernel_args = native
    iterations = []
    start = time.monotonic()
    with tracer.patched():
        while True:
            tracer.reset()
            gc.collect()
            for call in calls:
                out, err = io.StringIO(), io.StringIO()
                try:
                    with tracer.span(f"cli.{call.name}"), contextlib.redirect_stdout(out), \
                            contextlib.redirect_stderr(err):
                        code = cli.main(list(call.argv))
                    problem = checker(call, code, out.getvalue(), err.getvalue())
                except Exception as exc:  # a crashing call is a failed call, not a dead run
                    problem = f"raised {exc!r}"
                runner.record(f"traced {call.name}", problem)
            values = {f"{name}.self_s": t for name, t in self_time_by_name(tracer.spans).items()}
            values.update(tracer.counts)
            values["trace.total_s"] = sum(s.end - s.start for s in tracer.spans
                                          if s.parent is None)
            for name, args, kwargs in tracer.kernel_calls:
                began = time.perf_counter()
                getattr(pure, name)(*args, **kwargs)
                key = f"kernels.{name}.pure_self_s"
                values[key] = values.get(key, 0.0) + time.perf_counter() - began
            iterations.append(values)
            if time.monotonic() - start >= seconds or runner.remaining() < 0:
                break
    return iterations, tracer.span_names


def run_workload(name, seed, seconds, trace):
    """One benchmark run of one workload; returns (record, result metrics)."""
    workload = workloads.WORKLOADS[name]
    spec = load_spec()
    work = os.path.join(ROOT, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
        env = environment(runner)  # also compiles the .pyc files before timing
        calls = workload.prepare(work, seed)
        reference = load_reference_digests(name) if seed == DEFAULT_SEED else None
        checker = Checker(workload, reference, work)

        untraced = run_untraced(calls, runner, checker, seconds / 2 if trace else seconds)
        metrics = {"wall_s": summary(untraced["wall_s"], "s"),
                   "setup_s": summary(untraced["setup_s"], "s"),
                   "peak_rss_mb": summary(untraced["peak_rss_mb"], "MB")}
        per_call = {c: summary(v, "s") for c, v in untraced["calls"].items()}
        layers = None
        if trace:
            layers = traced_layers(calls, runner, checker, seconds / 2, env, metrics, per_call)
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": env, "metrics": metrics, "calls": per_call,
                  "layers": layers, "digests": checker.seen,
                  "digests_from_reference": checker.from_reference,
                  "attempted": runner.attempted, "failed": runner.failed,
                  "fail_frac": fail_frac(runner.failed, runner.attempted),
                  "failures": runner.failures}
        if trace:
            wanted = spec["per_layer"]
            source = layers
        else:
            wanted = spec["end_to_end"]
            source = {k: v["median"] for k, v in metrics.items()}
        result = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
        return record, result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run is using it


def traced_layers(calls, runner, checker, seconds, env, metrics, per_call):
    """Per-layer values: import probes, untraced per-call walls, traced medians."""
    imports = {"cli.import_s": [], "qsar.import_s": []}
    for _ in range(IMPORTTIME_PROBES):
        got = runner.probe(["-X", "importtime", "-c", "import protoneuro.cli"],
                           "importtime probe")
        if got:
            cumulative = parse_importtime(got[2])
            imports["cli.import_s"].append(cumulative.get("protoneuro", 0.0)
                                           + cumulative.get("protoneuro.cli", 0.0))
            imports["qsar.import_s"].append(cumulative.get("protoneuro.qsar", 0.0))
    iterations, span_names = run_traced(calls, runner, checker, seconds,
                                        env["kernel_backend"] == "native")
    layers = {k: statistics.median(v) if v else 0.0 for k, v in imports.items()}
    for sub in workloads.SUBCOMMANDS:
        layers[f"cli.{sub}.wall_s"] = per_call[sub]["median"] if sub in per_call else 0.0
    keys = {f"{n}.self_s" for n in span_names}
    keys |= {f"cli.{sub}.self_s" for sub in workloads.SUBCOMMANDS}
    keys |= {k for values in iterations for k in values}
    for key in sorted(keys):
        layers[key] = statistics.median(values.get(key, 0.0) for values in iterations)
    above = layers["spikes.above_threshold"]
    layers["spikes.kept_ratio"] = layers["spikes.kept"] / above if above else 0.0
    setup = metrics["setup_s"]["median"] or 0.0
    untraced_inprocess = metrics["wall_s"]["median"] - len(calls) * setup
    layers["trace.overhead_s"] = layers.pop("trace.total_s") - untraced_inprocess
    layers["trace.iterations"] = len(iterations)
    return layers


def validate_result(doc, positive=False):
    """Raise ValueError unless ``doc`` is a well-formed result line; with
    ``positive`` (end-to-end metrics) every value must also be above zero."""
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(doc)}")
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise ValueError(f"{key} must be a non-negative integer")
    if doc["attempted"] < 1 or doc["failed"] > doc["attempted"]:
        raise ValueError("need 1 <= attempted and failed <= attempted")
    for name, metric in doc["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["unit"], str):
            raise ValueError(f"metric {name}: {metric}")
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"metric {name}: value {value!r} is not a finite number")
        if positive and value <= 0:
            raise ValueError(f"metric {name}: value {value!r} is not positive")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_table(record):
    print(f"\n== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}  "
          f"backend={record['environment']['kernel_backend']}")
    print(f"{'metric':<34}{'unit':<7}{'median':>12}  {'high percentile':<22}{'n':>5}")

    def row(name, m):
        hp = m["high_percentile"]
        high = "n/a (n < 11)" if hp is None else f"p{hp['p']:.4g} = {hp['value']:.6g}"
        print(f"{name:<34}{m['unit']:<7}{_fmt(m['median']):>12}  {high:<22}{m['n']:>5}")

    for name, m in record["metrics"].items():
        row(name, m)
    counts = f"{record['failed']}/{record['attempted']} processes"
    print(f"{'fail_frac':<34}{'1':<7}{record['fail_frac']:>12.6g}  {counts:<22}"
          f"{record['attempted']:>5}")
    for name, m in record["calls"].items():
        row(f"  call {name}", m)
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    if record["layers"]:
        print(f"{'layer metric':<44}{'value':>14}")
        for name, value in sorted(record["layers"].items()):
            print(f"{name:<44}{value:>14.6g}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "protoneuro", "cli.py")):
            raise BenchError(f"no protoneuro sources under {os.path.join(ROOT, 'src')}")
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        for name in names:
            record, result = run_workload(name, args.seed, seconds, args.trace)
            print_table(record)
            print("record: " + json.dumps(record, sort_keys=True))
            attempted += record["attempted"]
            failed += record["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in result.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    try:
        validate_result(result, positive=not args.trace)
    except ValueError as exc:
        print(f"perfbench: no valid result: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
