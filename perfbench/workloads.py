"""Seeded inputs, call sequences and activity checks of the three workloads.

Every input a workload needs is generated here from the benchmark seed and
written as a file; the program under test only ever sees those files and
the command lines below. The same seed always yields the same bytes.

A workload is ``prepare(work_dir, seed) -> [Call, ...]``: the CLI calls run
in order, once per iteration. ``check(call, stdout, work_dir)`` returns a
problem string when a call's output shows no real activity, else None.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

DETECT_THRESHOLD = 5e-4
DETECT_DISTANCE_S = 5.0


@dataclass(frozen=True)
class Call:
    """One CLI call: ``python -m protoneuro.cli <argv...>``."""

    name: str  # the subcommand; names the per-call metrics
    argv: tuple
    artefacts: tuple  # files the call writes, all absolute paths


def _rng(seed, stream):
    """Independent generator per input, so adding one never shifts another."""
    return np.random.default_rng([seed, *stream.encode()])


def _stdout_fields(stdout):
    """``key=value`` pairs of a CLI summary line."""
    return dict(kv.split("=", 1) for kv in stdout.split() if "=" in kv)


def _write_lines(path, lines):
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# --- series ---------------------------------------------------------------
# Why: the heaviest `signals` read/write and detection-kernel work. A
# 1,000,001-sample noisy surrogate is written by `synth` and read back by
# `detect`; the noise gives pruning real work (about 3/4 of the candidates
# above threshold survive the 5 s distance rule, 1/3 of all maxima exceed
# the threshold).

def prepare_series(work, seed):
    series = os.path.join(work, "series.csv")
    train = os.path.join(work, "train.csv")
    stats = os.path.join(work, "stats.json")
    synth_seed = int(_rng(seed, "synth").integers(2**31))
    return [
        Call("synth", ("synth", "--out", series, "--count", "40000", "--mean-isi", "24",
                       "--jitter", "0.3", "--noise-sd", "3e-4", "--duration", "1000000",
                       "--seed", str(synth_seed)), (series,)),
        Call("detect", ("detect", series, "--threshold", repr(DETECT_THRESHOLD),
                        "--min-distance", repr(DETECT_DISTANCE_S),
                        "--train-out", train, "--stats-out", stats), (train, stats)),
    ]


def read_series_values(path):
    """Values column of a series CSV (header, then ``#`` lines anywhere)."""
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=1, usecols=1, ndmin=1)


def detection_funnel(values, threshold):
    """(strict local maxima, of them above threshold), plateaus counted once.

    An independent count for the activity check; it does not call the
    program's kernels.
    """
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    runs = values[starts]
    peaks = runs[1:-1][(runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])]
    return int(peaks.size), int(np.count_nonzero(peaks > threshold))


def check_series(call, stdout, work):
    if call.name != "detect":
        return None
    kept = int(_stdout_fields(stdout)["count"])
    _, above = detection_funnel(read_series_values(call.argv[1]), DETECT_THRESHOLD)
    if not 0 < kept < above:
        return f"expected 0 < kept < above_threshold, got kept={kept} above={above}"
    return None


# --- simulate -------------------------------------------------------------
# Why: the only workload for `lif_run`, `rate_run` and the `networks` trace
# writers; it never touches `signals` or detection. Input weights U(0.5, 1)
# under a constant drive of 2 V/s put every LIF neuron above threshold on
# its own (rest + tau_m * 1 V/s = -45 mV > -50 mV), and the recurrent
# weights are excitatory, so no seed can silence a neuron: with signed
# weights, inhibition held a weakly driven neuron below threshold on some
# seeds. README's `--drive 1.5` example on a default spec fires no spike.

LIF_N, LIF_STEPS, LIF_DRIVE = 10, 50_000, 2.0
RATE_N, RATE_STEPS, RATE_DT = 50, 20_000, 1e-4


def _stream_lines(times, channels):
    head = "time_s," + ",".join(f"ch{c}" for c in range(channels.shape[0]))
    rows = (f"{t:.9g}," + ",".join(f"{x:.9g}" for x in col)
            for t, col in zip(times, channels.T))
    return [head, *rows]


def prepare_simulate(work, seed):
    rng = _rng(seed, "lif")
    lif_net = os.path.join(work, "lif.json")
    with open(lif_net, "w") as fh:
        json.dump({
            "n": LIF_N, "input_dim": 1, "output_dim": 2,
            "recurrent_weights": (rng.uniform(0, 1, (LIF_N, LIF_N)) * 0.002).tolist(),
            "input_weights": rng.uniform(0.5, 1.0, (LIF_N, 1)).tolist(),
            "output_weights": (rng.uniform(-1, 1, (2, LIF_N)) / math.sqrt(LIF_N)).tolist(),
        }, fh)

    rng = _rng(seed, "rate")
    rate_net = os.path.join(work, "rate.json")
    with open(rate_net, "w") as fh:
        json.dump({
            "n": RATE_N, "input_dim": 2, "feedback_dim": 1, "dt": RATE_DT,
            "recurrent_weights": (rng.normal(0, 1.2 / math.sqrt(RATE_N),
                                             (RATE_N, RATE_N))).tolist(),
            "input_weights": rng.uniform(-1, 1, (RATE_N, 2)).tolist(),
            "feedback_weights": rng.uniform(-1, 1, (RATE_N, 1)).tolist(),
        }, fh)
    times = (np.arange(RATE_STEPS) + 1) * RATE_DT
    freq = rng.uniform(2, 20, (3, 1))
    phase = rng.uniform(0, 2 * math.pi, (3, 1))
    waves = np.sin(2 * math.pi * freq * times + phase)
    waves += 0.1 * rng.standard_normal((3, RATE_STEPS))
    rate_in = os.path.join(work, "rate_in.csv")
    rate_fb = os.path.join(work, "rate_fb.csv")
    _write_lines(rate_in, _stream_lines(times, waves[:2]))
    _write_lines(rate_fb, _stream_lines(times, waves[2:]))

    lif = os.path.join(work, "lif")
    rate = os.path.join(work, "rate")
    return [
        Call("sim-spiking", ("sim-spiking", "--net", lif_net, "--steps", str(LIF_STEPS),
                             "--drive", repr(LIF_DRIVE), "--out-prefix", lif),
             (lif + "_trace.csv", lif + "_raster.csv", lif + "_output.csv")),
        Call("sim-rate", ("sim-rate", "--net", rate_net, "--input", rate_in,
                          "--feedback", rate_fb, "--out-prefix", rate),
             (rate + "_trace.csv",)),
    ]


def _has_nonfinite(path):
    with open(path, "rb") as fh:
        text = fh.read().lower()
    return b"nan" in text or b"inf" in text


def check_simulate(call, stdout, work):
    if call.name == "sim-spiking":
        raster = np.loadtxt(call.artefacts[1], delimiter=",", skiprows=1, ndmin=2)
        silent = sorted(set(range(LIF_N)) - set(raster[:, 0].astype(int).tolist()))
        if silent:
            return f"LIF neurons {silent} never spiked"
    elif _has_nonfinite(call.artefacts[0]):
        return "rate trace holds non-finite values"
    return None


# --- session --------------------------------------------------------------
# Why: five short calls, so process start-up dominates the wall time; the
# only workload for `dpv`, `coding`, `qsar` and the pipeline's JSON/SVG
# output, with light kernel use on clean surrogates.

#: The ten reference-table rows whose frequency matches 1000 / mean ISI:
#: label, spike count, mean ISI (s).
REFERENCE_ROWS = (
    ("L-Glu:L-Asp", 726, 22.24),
    ("L-Glu:L-Asp:L-Phe", 359, 50.48),
    ("L-Lys:L-Phe:L-Glu", 210, 85.75),
    ("L-Glu:L-Phe:L-His", 382, 42.21),
    ("L-Glu:L-Phe:PLLA", 555, 32.71),
    ("L-Lys:L-Phe:L-His:PLLA", 195, 77.29),
    ("L-Phe:L-Lys", 28, 666.11),
    ("L-Glu:L-Asp:L-Pro", 8, 2541.00),
    ("L-Phe", 900, 12.32),
    ("L-Glu:L-Phe", 12, 1412.55),
)

#: The firing-rate surface bundled with protoneuro, p00 ... p03, over
#: [1, x, y, x^2, xy, y^2, x^2 y, x y^2, y^3]; observations are drawn from it.
SURFACE = (2349.0, -12.08, -1770.0, -0.1149, 48.49, -2545.0, 0.04667, -17.24, 1151.0)
QSAR_OBSERVATIONS = 60


def _surrogate_lines(label, count, mean_isi, rng):
    """A series CSV: Gaussian bumps (1e-3 high, 1.5 s HWHM) on N(0, 5e-5) noise."""
    gaps = mean_isi * (1.0 + 0.2 * rng.uniform(-1, 1, count - 1))
    gaps *= (count - 1) * mean_isi / gaps.sum()
    spikes = mean_isi + np.concatenate(([0.0], np.cumsum(gaps)))
    times = np.arange(math.floor((count + 1) * mean_isi) + 1, dtype=np.float64)
    sigma = 1.5 / math.sqrt(2.0 * math.log(2.0))
    values = 5e-5 * rng.standard_normal(times.size)
    for ts in spikes:
        lo, hi = np.searchsorted(times, (ts - 6 * sigma, ts + 6 * sigma))
        values[lo:hi] += 1e-3 * np.exp(-((times[lo:hi] - ts) ** 2) / (2 * sigma**2))
    return ["time_s,value", "# unit=microampere", f"# label={label}",
            *(f"{t:.12g},{v:.9g}" for t, v in zip(times, values))]


def _surface(x, y):
    basis = (np.ones_like(x), x, y, x**2, x * y, y**2, x**2 * y, x * y**2, y**3)
    return sum(c * b for c, b in zip(SURFACE, basis))


def prepare_session(work, seed):
    rng = _rng(seed, "surrogates")
    files = []
    for i, (label, count, mean_isi) in enumerate(REFERENCE_ROWS):
        path = os.path.join(work, f"sample{i}.csv")
        _write_lines(path, _surrogate_lines(label, count, mean_isi, rng))
        files.append(os.path.basename(path))
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"sample_labels": [r[0] for r in REFERENCE_ROWS], "source_files": files,
                   "detection": {"threshold": DETECT_THRESHOLD,
                                 "min_peak_distance": DETECT_DISTANCE_S},
                   "seed": seed, "weights": "reference"}, fh)

    rng = _rng(seed, "qsar")
    x = rng.uniform(100, 600, QSAR_OBSERVATIONS)
    y = rng.integers(1, 6, QSAR_OBSERVATIONS).astype(float)
    rates = _surface(x, y) + rng.normal(0, 20, QSAR_OBSERVATIONS)
    observations = os.path.join(work, "observations.csv")
    _write_lines(observations, [
        "label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz",
        *(f"s{i},{x[i]:.6f},{y[i]:.0f},{rates[i]:.9g}" for i in range(QSAR_OBSERVATIONS))])

    out = os.path.join(work, "pipeline")
    waveform = os.path.join(work, "waveform.csv")
    model = os.path.join(work, "model.json")
    return [
        Call("waveform", ("waveform", "--out", waveform), (waveform,)),
        Call("pipeline", ("pipeline", manifest, "--output-dir", out),
             (os.path.join(out, "report.json"), os.path.join(out, "psi_ppi.svg"))),
        Call("report", ("report", os.path.join(out, "report.json")), ()),
        Call("qsar-fit", ("qsar-fit", observations, "--out", model), (model,)),
        Call("qsar-predict", ("qsar-predict", "--model", model, "--x", f"{x[0]:.6f}",
                              "--y", f"{y[0]:.0f}", "--mean", f"{rates[0]:.9g}"), ()),
    ]


def check_session(call, stdout, work):
    fields = _stdout_fields(stdout)
    if call.name == "pipeline":
        if fields.get("samples_ok") != "10" or fields.get("samples_failed") != "0":
            return f"expected samples_ok=10 samples_failed=0, got {stdout.strip()!r}"
    elif call.name == "qsar-fit":
        if not math.isfinite(float(fields.get("residual_ss", "nan"))):
            return f"residual_ss is not finite: {stdout.strip()!r}"
    elif call.name == "qsar-predict":
        if not math.isfinite(float(fields.get("predicted_rate_hz", "nan"))):
            return f"prediction is not finite: {stdout.strip()!r}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object
    check: object


WORKLOADS = {
    "series": Workload("series", prepare_series, check_series),
    "simulate": Workload("simulate", prepare_simulate, check_simulate),
    "session": Workload("session", prepare_session, check_session),
}

#: Every subcommand some workload calls, in workload order.
SUBCOMMANDS = ("synth", "detect", "sim-spiking", "sim-rate", "waveform", "pipeline",
               "report", "qsar-fit", "qsar-predict")
