"""protoneuro: voltammetry waveforms, spike statistics, temporal coding and
proto-neural network simulation.

The public surface is re-exported here; see the module docstrings for the
exact file formats and numeric conventions.
"""

from ._kernels import backend as kernel_backend
from .coding import (
    CodeMatrix,
    CodingConfig,
    PsiPpiGrid,
    WeightMatrix,
    encode,
    fire_step,
    init_weights,
    psi_ppi,
    reference_weight_matrix,
)
from .config import (
    ExperimentManifest,
    RunConfig,
    derive_seed,
    load_config,
    load_manifest,
)
from .dpv import (
    DpvParameters,
    PotentialWaveform,
    generate_waveform,
    sample_instants,
    scan_duration,
    step_count,
)
from .errors import (
    NonFiniteStateError,
    NumericError,
    ParseError,
    ProtoneuroError,
    RankDeficiencyError,
    ShapeError,
    ValidationError,
)
from .networks import (
    LifParameters,
    RateNetwork,
    SimulationTrace,
    SpikingNetwork,
    run_rate,
    run_spiking,
    step_lif,
)
from .qsar import (
    REFERENCE_COEFFICIENTS,
    REFERENCE_RATES,
    FitResult,
    QsarCoefficients,
    QsarObservation,
    SamplePredictors,
    confidence_bounds,
    fit,
    percent_deviation,
    predict,
)
from .signals import (
    SyntheticSpikeSpec,
    TimeSeries,
    read_timeseries_csv,
    synthesize_spiky_series,
    write_timeseries_csv,
)
from .spikes import (
    INCONSISTENT_REFERENCE_ROWS,
    REFERENCE_SPIKE_TABLE,
    SpikeDetectionConfig,
    SpikeStats,
    SpikeTrain,
    aggregate_stats,
    compute_stats,
    detect_spikes,
    detect_spikes_naive,
)

__version__ = "0.1.0"
