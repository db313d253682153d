"""protoneuro: voltammetry waveforms, spike statistics, temporal coding and
proto-neural network simulation.

The public surface is re-exported here; see the module docstrings for the
exact file formats and numeric conventions.

The names load on first access (PEP 562): ``import protoneuro`` imports no
submodule, so a command that does not need numpy does not pay for it.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> (defining submodule, attribute there).
_EXPORTS = {"kernel_backend": ("_kernels", "backend")}
for _module, _names in (
    ("coding", "CodeMatrix PsiPpiGrid WeightMatrix encode fire_step init_weights psi_ppi "
               "reference_weight_matrix"),
    ("config", "CodingConfig ExperimentManifest RunConfig SpikeDetectionConfig derive_seed "
               "load_config load_manifest"),
    ("dpv", "DpvParameters PotentialWaveform generate_waveform sample_instants "
            "scan_duration step_count"),
    ("errors", "NonFiniteStateError NumericError ParseError ProtoneuroError "
               "RankDeficiencyError ShapeError ValidationError"),
    ("networks", "LifParameters RateNetwork SimulationTrace SpikingNetwork run_rate "
                 "run_spiking"),
    ("qsar", "REFERENCE_COEFFICIENTS REFERENCE_RATES FitResult QsarCoefficients "
             "QsarObservation SamplePredictors confidence_bounds fit percent_deviation "
             "predict"),
    ("signals", "SyntheticSpikeSpec TimeSeries read_timeseries_csv "
                "synthesize_spiky_series write_timeseries_csv"),
    ("spikes", "INCONSISTENT_REFERENCE_ROWS REFERENCE_SPIKE_TABLE SpikeStats SpikeTrain "
               "aggregate_stats compute_stats detect_spikes"),
):
    _EXPORTS.update((name, (_module, name)) for name in _names.split())
del _module, _names

#: Submodules reachable as attributes without an explicit import.
_SUBMODULES = ("coding", "config", "dpv", "errors", "networks", "qsar", "signals", "spikes")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
