"""Command-line entry point.

    protoneuro <subcommand> [--config FILE] [flags]

Subcommands: waveform, synth, detect, encode, weights, pipeline,
sim-spiking, sim-rate, qsar-fit, qsar-predict, report.

Exit codes: 0 success, 1 I/O failure, 2 validation failure (also a size
too large to allocate), 3 numeric failure (rank deficiency, non-finite
state). Config file values can be overridden per flag; explicit flags always
win. The environment variable PROTONEURO_SEED overrides the config seed and
is itself overridden by --seed.

Each subcommand imports the modules it computes with, so ``waveform``,
``report`` and ``qsar-predict`` start without numpy. The module defines no file parser: series, network specs
and streams, QSAR files, configs and manifests are read by ``signals``,
``networks``, ``qsar`` and ``config``, and a report by ``_inputs``, which
also checks the flags no dataclass checks (``--seed``, ``--steps``,
``--drive``, ``--n``, ``--mean``). Each analysis stage is built once,
outside this module: ``signals.stack_values`` for the potential matrix and
``coding.weight_matrix`` for the weights, shared by ``encode``, ``weights``
and ``pipeline``; ``networks`` makes every simulation decision.
"""

import argparse
import contextlib
import json
import os
import sys

from . import _inputs
from .errors import NumericError, ValidationError

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


def _resolve_seed(args, config) -> int:
    if getattr(args, "seed", None) is not None:
        return _inputs.integer(args.seed, 0, "--seed")
    env = os.environ.get("PROTONEURO_SEED")
    if env is None:
        return config.seed
    with contextlib.suppress(ValueError):
        env = int(env)
    return _inputs.integer(env, 0, "PROTONEURO_SEED")


def cmd_waveform(args) -> int:
    import dataclasses

    from . import dpv
    from .config import load_config
    config = load_config(args.config)
    flags = dict(start_potential=args.start, end_potential=args.end, step_size=args.step_size,
                 pulse_amplitude=args.pulse_amplitude, pulse_width=args.pulse_width,
                 scan_rate=args.scan_rate, equilibrium_time=args.equilibrium_time)
    params = dataclasses.replace(config.dpv, **{k: v for k, v in flags.items() if v is not None})
    waveform = dpv.generate_waveform(params)
    dpv.write_waveform_csv(waveform, args.out)
    print(f"steps={dpv.step_count(params)} scan_duration_s={dpv.scan_duration(params):g}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import signals
    from .config import load_config
    config = load_config(args.config)
    seed = _resolve_seed(args, config)
    # The spec checks the flags; a missing duration comes only from flags that were given.
    duration = args.duration
    if duration is None and args.spike_times:
        duration = args.spike_times[-1] + 5 * args.half_width
    elif duration is None and args.count is not None and args.mean_isi is not None:
        duration = (args.count + 1) * args.mean_isi
    spec = signals.SyntheticSpikeSpec(
        duration=duration, spike_times=args.spike_times, count=args.count,
        mean_isi=args.mean_isi, jitter_fraction=args.jitter, spike_amplitude=args.amplitude,
        spike_half_width=args.half_width, baseline=args.baseline,
        noise_sd=args.noise_sd, seed=seed, label=args.label,
    )
    series = signals.synthesize_spiky_series(spec)
    signals.write_timeseries_csv(series, args.out)
    print(f"samples={len(series)} duration_s={series.duration:g}")
    return EXIT_OK


def cmd_detect(args) -> int:
    import dataclasses

    from . import signals, spikes
    from .config import load_config
    config = load_config(args.config)
    detcfg = dataclasses.replace(config.detection, **{k: v for k, v in dict(
        threshold=args.threshold, min_peak_distance=args.min_distance).items() if v is not None})
    series = signals.read_timeseries_csv(args.input)
    train = spikes.detect_spikes(series, detcfg)
    stats = spikes.compute_stats(train)
    if args.train_out:
        spikes.write_spiketrain_csv(train, args.train_out)
    if args.stats_out:
        spikes.write_stats_json(stats, args.stats_out, label=series.label)
    isi = "n/a" if stats.mean_isi is None else f"{stats.mean_isi:g}"
    freq = "n/a" if stats.frequency is None else f"{stats.frequency:g}"
    print(f"count={stats.count} mean_isi_s={isi} frequency_mhz={freq}")
    return EXIT_OK


def cmd_encode(args) -> int:
    from . import coding, signals
    from .config import load_config
    config = load_config(args.config)
    threshold = args.threshold if args.threshold is not None else config.coding.threshold
    series_list = [signals.read_timeseries_csv(p) for p in args.inputs]
    labels = [s.label or f"n{i + 1}" for i, s in enumerate(series_list)]
    code = coding.encode(signals.stack_values(series_list, labels), threshold, labels=labels)
    coding.write_code_csv(code, args.out)
    print(f"neurons={code.neuron_count} samples={code.sample_count} "
          f"active_fraction={code.entries.mean():.6g}")
    return EXIT_OK


def cmd_weights(args) -> int:
    from . import _csvio, coding
    from .config import load_config
    config = load_config(args.config)
    n = config.coding.neuron_count if args.n is None else _inputs.integer(args.n, 1, "--n")
    if args.table1 and args.seed is not None:
        raise ValidationError("--seed goes with seeded weights, not with --table1")
    seed = None if args.table1 else _resolve_seed(args, config)
    matrix = coding.weight_matrix("reference" if args.table1 else "seeded", n, seed)
    with open(args.out, "wb") as fh:
        _csvio.write_rows(fh, ",".join(["%.9g"] * matrix.size) + "\n", *matrix.entries.T)
    print(f"n={matrix.size} source={'table1' if args.table1 else f'seeded({seed})'}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    from . import coding, signals, spikes
    from .config import load_manifest
    manifest = load_manifest(args.manifest)
    n_neurons = manifest.coding.neuron_count
    if len(manifest.sample_labels) > n_neurons:
        raise ValidationError(
            f"manifest lists {len(manifest.sample_labels)} samples "
            f"but the coding network has {n_neurons} neurons"
        )

    samples = {}  # label -> (series, stats), in manifest order
    errors = {}
    invalid = False  # whether a sample failed validation, not only I/O
    for label, path in zip(manifest.sample_labels, manifest.source_files):
        try:
            series = signals.read_timeseries_csv(path)
            train = spikes.detect_spikes(series, manifest.detection)
            samples[label] = series, spikes.compute_stats(train)
        except (ValidationError, OSError) as exc:
            errors[label] = str(exc)
            invalid |= isinstance(exc, ValidationError)
            print(f"{'error' if isinstance(exc, ValidationError) else 'i/o error'}: {exc}",
                  file=sys.stderr)

    report = {
        "aggregate": None,
        "detection": {"threshold": manifest.detection.threshold,
                      "min_peak_distance_s": manifest.detection.min_peak_distance},
        "coding": {"neuron_count": n_neurons, "threshold": manifest.coding.threshold,
                   "time_window_s": manifest.coding.time_window},
        "errors": errors,
        "samples": [spikes.stats_to_dict(stats, label) for label, (_, stats) in samples.items()],
        "seed": manifest.seed,
        "weights_source": manifest.weights,
    }

    if samples:
        mean_count, mean_isi = spikes.aggregate_stats([stats for _, stats in samples.values()])
        report["aggregate"] = {"mean_count": mean_count, "mean_isi_of_means_s": mean_isi}
        labels = list(samples) + [f"unassigned{j + 1}" for j in range(n_neurons - len(samples))]
        potentials = signals.stack_values([series for series, _ in samples.values()], labels)
        code = coding.encode(potentials, manifest.coding.threshold, labels=labels)
        weights = coding.weight_matrix(manifest.weights, n_neurons, manifest.seed)
        grid = coding.psi_ppi(weights, code)
        report.update({
            "code_matrix": code.entries.tolist(),
            "neuron_labels": labels,
            "weight_matrix": weights.entries.tolist(),
            "psi": grid.psi.tolist(),
            "ppi": grid.ppi.tolist(),
            "grid": grid.grid.tolist(),
        })

    # Made only now, so that a run that exits 2 leaves no empty directory.
    out_dir = args.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    if samples:
        coding.write_heatmap_svg(grid, os.path.join(out_dir, "psi_ppi.svg"), labels=labels)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report={report_path} samples_ok={len(samples)} samples_failed={len(errors)}")
    if not errors:
        return EXIT_OK
    return EXIT_VALIDATION if invalid else EXIT_IO


def _input_stream(args, dt, rows):
    """A ``sim-*`` input: the ``--input`` stream or ``--steps`` columns of ``--drive``."""
    from . import networks
    if args.input is not None:
        if args.drive is not None:
            raise ValidationError("--drive goes with --steps, not with --input")
        return networks.read_stream_csv(args.input, dt, rows)
    import numpy as np
    drive = _inputs.number(args.drive or 0.0, "--drive")
    steps = _inputs.integer(args.steps, 0, "--steps")
    # A (rows, steps) float64 drive: more bytes than this no array can index.
    if rows * steps * 8 > sys.maxsize:
        raise ValidationError(f"--steps must be at most {sys.maxsize // (8 * rows)}, got {steps}")
    return np.full((rows, steps), drive)


def cmd_sim_spiking(args) -> int:
    from . import networks
    net = networks.load_network_json(args.net, "spiking")
    trace = networks.run_spiking(net, _input_stream(args, net.lif.dt, net.input_dim))
    networks.write_trace_csv(trace, args.out_prefix + "_trace.csv")
    networks.write_raster_csv(trace, args.out_prefix + "_raster.csv")
    networks.write_outputs_csv(trace, args.out_prefix + "_output.csv")
    print(f"steps={trace.times.size} spikes={trace.spike_neurons.size}")
    return EXIT_OK


def cmd_sim_rate(args) -> int:
    from . import networks
    net = networks.load_network_json(args.net, "rate")
    fin = _input_stream(args, net.dt, net.input_dim)
    feedback = None
    if args.feedback:
        if net.feedback_weights is None:
            raise ValidationError("network spec has no feedback weights")
        feedback = networks.read_stream_csv(args.feedback, net.dt, net.feedback_weights.shape[1])
    trace = networks.run_rate(net, fin, output_feedback=feedback)
    networks.write_trace_csv(trace, args.out_prefix + "_trace.csv")
    print(f"steps={trace.times.size} units={net.n}")
    return EXIT_OK


def cmd_qsar_fit(args) -> int:
    import dataclasses

    from . import qsar
    # Checked before the file is read: only 10 or more observations use it.
    if not 0 < args.level < 1:
        raise ValidationError(f"--level must be in (0, 1), got {args.level!r}")
    observations = qsar.read_observations_csv(args.observations)
    result = qsar.fit(observations)
    coeffs = result.coefficients
    if len(observations) > 9:
        bounds = qsar.confidence_bounds(result, observations, level=args.level)
        coeffs = dataclasses.replace(coeffs, bounds=bounds)
    qsar.write_model_json(coeffs, args.out, residual_sum_squares=result.residual_sum_squares)
    print(f"observations={len(observations)} residual_ss={result.residual_sum_squares:.6g}")
    return EXIT_OK


def cmd_qsar_predict(args) -> int:
    from . import qsar
    mean = None if args.mean is None else _inputs.number(args.mean, "--mean")
    coeffs = qsar.read_model_json(args.model) if args.model else qsar.REFERENCE_COEFFICIENTS
    rate = qsar.predict(coeffs, args.x, args.y)
    deviation = None if mean is None else qsar.percent_deviation(mean, rate)
    print(f"predicted_rate_hz={rate:.6g}")
    if deviation is not None:
        print(f"percent_deviation={deviation:+.4f}%")
    return EXIT_OK


def cmd_report(args) -> int:
    doc = _inputs.read_json_object(args.report, "report")
    with _inputs.blamed(args.report):
        lines = _report_lines(doc)
    print("\n".join(lines))
    return EXIT_OK


def _report_lines(doc):
    """What ``report`` prints; a field of the wrong type is a ValidationError naming it."""
    field = 'report "{}"'.format

    def number_or_na(value, name):
        return "n/a" if value is None else f"{_inputs.number(value, field(name)):.2f}"

    samples = doc.get("samples", [])
    if not isinstance(samples, list) or not all(isinstance(s, dict) for s in samples):
        raise ValidationError('report "samples" must be a list of objects')
    lines = [f"{'sample':<24} {'count':>7} {'mean ISI (s)':>13} {'freq (mHz)':>11}"]
    for i, s in enumerate(samples):
        label = _inputs.string(s.get("label", "?"), field(f"samples[{i}].label"))
        count = _inputs.integer(s.get("count", 0), 0, field(f"samples[{i}].count"))
        isi, freq = (number_or_na(s.get(key), f"samples[{i}].{key}")
                     for key in ("mean_isi_s", "frequency_mhz"))
        lines.append(f"{label:<24} {count:>7} {isi:>13} {freq:>11}")
    agg = doc.get("aggregate")
    if agg is not None and not isinstance(agg, dict):
        raise ValidationError(f'{field("aggregate")} must be a JSON object or null, '
                              f"got {agg!r}")
    if agg:
        mean_count = _inputs.number(agg.get("mean_count", 0), field("aggregate.mean_count"))
        isi = number_or_na(agg.get("mean_isi_of_means_s"), "aggregate.mean_isi_of_means_s")
        lines.append(f"{'mean':<24} {mean_count:>7.2f} {isi:>13}")
    errors = doc.get("errors") or {}
    if not isinstance(errors, dict):
        raise ValidationError(f'{field("errors")} must be a JSON object, got {errors!r}')
    for label, msg in sorted(errors.items()):
        lines.append(f"failed: {label}: {_inputs.string(msg, field(f'errors.{label}'))}")
    psi = doc.get("psi")
    if psi is not None:
        psi = [_inputs.number(v, field(f"psi[{j}]"))
               for j, v in enumerate(_inputs.array(psi, field("psi")))]
        labels = doc.get("neuron_labels", [str(j) for j in range(len(psi))])
        labels = [_inputs.string(x, field(f"neuron_labels[{j}]"))
                  for j, x in enumerate(_inputs.array(labels, field("neuron_labels")))]
        if len(labels) < len(psi):
            raise ValidationError(f'{field("neuron_labels")} lists {len(labels)} labels '
                                  f"for {len(psi)} psi entries")
        ranked = sorted(enumerate(psi), key=lambda kv: -kv[1])
        top = ", ".join(f"{labels[j]}={v:.3f}" for j, v in ranked[:3])
        lines.append(f"top PSI: {top}")
    return lines


def _add_config(p):
    p.add_argument("--config", help="JSON run configuration file")


def _add_seed(p):
    p.add_argument("--seed", type=int, help="override the config / PROTONEURO_SEED seed")


def _add_sim(sub, name, func, outputs):
    p = sub.add_parser(name, help=f"run the {name[4:]} network")
    p.add_argument("--net", required=True, help="network spec JSON")
    stream = p.add_mutually_exclusive_group(required=True)
    stream.add_argument("--input", help="input stream CSV (time_s,ch0,...), one row per dt")
    stream.add_argument("--steps", type=int, help="steps of constant drive (with --drive)")
    p.add_argument("--drive", type=float, help="constant drive value (default 0)")
    p.add_argument("--out-prefix", required=True, help=f"prefix for {outputs}")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoneuro",
        description="Voltammetry waveforms, spike statistics, temporal coding "
                    "and proto-neural network simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("waveform", help="generate the excitation waveform CSV")
    _add_config(p)
    p.add_argument("--out", required=True, help="output CSV (time_s,potential_V,phase)")
    p.add_argument("--start", type=float, help="start potential (V)")
    p.add_argument("--end", type=float, help="end potential (V)")
    p.add_argument("--step-size", type=float, help="staircase step (V)")
    p.add_argument("--pulse-amplitude", type=float, help="pulse height (V)")
    p.add_argument("--pulse-width", type=float, help="pulse duration (s)")
    p.add_argument("--scan-rate", type=float, help="scan rate (V/s)")
    p.add_argument("--equilibrium-time", type=float, help="initial hold (s)")
    p.set_defaults(func=cmd_waveform)

    p = sub.add_parser("synth", help="synthesise a spiky time series CSV")
    _add_config(p)
    _add_seed(p)
    p.add_argument("--out", required=True, help="output series CSV")
    p.add_argument("--count", type=int, help="number of spikes to place")
    p.add_argument("--mean-isi", type=float, help="mean inter-spike interval (s)")
    p.add_argument("--jitter", type=float, default=0.0, help="ISI jitter fraction in [0,1)")
    p.add_argument("--spike-times", type=float, nargs="+", help="explicit spike times (s)")
    p.add_argument("--duration", type=float, help="series duration (s)")
    p.add_argument("--amplitude", type=float, default=0.001, help="bump height (uA)")
    p.add_argument("--half-width", type=float, default=1.5, help="bump half width (s)")
    p.add_argument("--baseline", type=float, default=0.0, help="baseline level (uA)")
    p.add_argument("--noise-sd", type=float, default=0.0, help="white noise SD (uA)")
    p.add_argument("--label", default="", help="sample label stored in the CSV")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("detect", help="detect spikes and write train/stats")
    _add_config(p)
    p.add_argument("input", help="input series CSV")
    p.add_argument("--threshold", type=float, help="detection threshold")
    p.add_argument("--min-distance", type=float, help="minimum peak distance (s)")
    p.add_argument("--train-out", help="spike train CSV (spike_time_s,amplitude)")
    p.add_argument("--stats-out", help="statistics JSON")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("encode", help="threshold series into a binary code matrix")
    _add_config(p)
    p.add_argument("inputs", nargs="+", help="one series CSV per neuron row")
    p.add_argument("--threshold", type=float, help="coding threshold")
    p.add_argument("--out", required=True, help="output code CSV")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("weights", help="emit a synaptic weight matrix CSV")
    _add_config(p)
    _add_seed(p)
    p.add_argument("--n", type=int,
                   help="network size for seeded weights (default: config coding.neuron_count)")
    p.add_argument("--table1", action="store_true",
                   help="use the bundled fixed 10x10 matrix instead of seeded weights")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("pipeline", help="detect/stats/encode/psi-ppi over a manifest")
    p.add_argument("manifest", help="experiment manifest JSON")
    p.add_argument("--output-dir", help="directory for report.json and psi_ppi.svg")
    p.set_defaults(func=cmd_pipeline)

    _add_sim(sub, "sim-spiking", cmd_sim_spiking, "_trace.csv, _raster.csv and _output.csv")
    p = _add_sim(sub, "sim-rate", cmd_sim_rate, "_trace.csv")
    p.add_argument("--feedback", help="output-feedback stream CSV, one row per dt")

    p = sub.add_parser("qsar-fit", help="fit the firing-rate surface to observations")
    p.add_argument("observations",
                   help="CSV: label,molecular_weight_gmol,peptide_length,mean_firing_rate_hz")
    p.add_argument("--out", required=True, help="fitted model JSON")
    p.add_argument("--level", type=float, default=0.95, help="confidence level")
    p.set_defaults(func=cmd_qsar_fit)

    p = sub.add_parser("qsar-predict", help="evaluate the firing-rate surface")
    p.add_argument("--model", help="model JSON; defaults to the bundled coefficients")
    p.add_argument("--x", type=float, required=True, help="molecular weight (g/mol)")
    p.add_argument("--y", type=float, required=True, help="peptide length (residues)")
    p.add_argument("--mean", type=float, help="observed rate, to also print %% deviation")
    p.set_defaults(func=cmd_qsar_predict)

    p = sub.add_parser("report", help="summarise a pipeline report JSON")
    p.add_argument("report", help="report.json produced by the pipeline")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
