import importlib

import pytest

import protoneuro

#: The names the package re-exported when it imported every submodule eagerly.
PUBLIC_NAMES = {
    "coding": ["CodeMatrix", "CodingConfig", "PsiPpiGrid", "WeightMatrix", "encode",
               "fire_step", "init_weights", "psi_ppi", "reference_weight_matrix"],
    "config": ["ExperimentManifest", "RunConfig", "derive_seed", "load_config",
               "load_manifest"],
    "dpv": ["DpvParameters", "PotentialWaveform", "generate_waveform", "sample_instants",
            "scan_duration", "step_count"],
    "errors": ["NonFiniteStateError", "NumericError", "ParseError", "ProtoneuroError",
               "RankDeficiencyError", "ShapeError", "ValidationError"],
    "networks": ["LifParameters", "RateNetwork", "SimulationTrace", "SpikingNetwork",
                 "run_rate", "run_spiking", "step_lif"],
    "qsar": ["REFERENCE_COEFFICIENTS", "REFERENCE_RATES", "FitResult", "QsarCoefficients",
             "QsarObservation", "SamplePredictors", "confidence_bounds", "fit",
             "percent_deviation", "predict"],
    "signals": ["SyntheticSpikeSpec", "TimeSeries", "read_timeseries_csv",
                "synthesize_spiky_series", "write_timeseries_csv"],
    "spikes": ["INCONSISTENT_REFERENCE_ROWS", "REFERENCE_SPIKE_TABLE", "SpikeDetectionConfig",
               "SpikeStats", "SpikeTrain", "aggregate_stats", "compute_stats",
               "detect_spikes", "detect_spikes_naive"],
}
EXPORTS = [(module, name) for module, names in PUBLIC_NAMES.items() for name in names]


@pytest.mark.parametrize("module, name", EXPORTS, ids=[name for _, name in EXPORTS])
def test_public_name_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"protoneuro.{module}")
    assert getattr(protoneuro, name) is getattr(defining, name)


def test_config_sections_are_reexported_as_the_same_objects():
    from protoneuro import coding, config, spikes

    assert coding.CodingConfig is config.CodingConfig
    assert spikes.SpikeDetectionConfig is config.SpikeDetectionConfig


def test_kernel_backend_and_version_resolve():
    from protoneuro import _kernels

    assert protoneuro.kernel_backend is _kernels.backend
    assert protoneuro.kernel_backend() == "pure"
    assert protoneuro.__version__ == "0.1.0"


def test_dir_lists_every_public_name_and_submodule():
    listed = set(dir(protoneuro))
    assert {name for _, name in EXPORTS} | {"kernel_backend", "__version__"} <= listed
    assert set(PUBLIC_NAMES) <= listed
    assert set(protoneuro.__all__) == {name for _, name in EXPORTS} | {"kernel_backend"}


def test_submodules_resolve_as_attributes():
    for module in PUBLIC_NAMES:
        assert getattr(protoneuro, module) is importlib.import_module(f"protoneuro.{module}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        protoneuro.not_a_name
