"""Run configuration, experiment manifests and seed derivation.

One JSON config file describes a whole run, with one section per concern:

    {
      "seed": 42,
      "dpv": {"start_potential": -8.0, ...},
      "detection": {"threshold": 0.0005, "min_peak_distance": 5.0},
      "coding": {"neuron_count": 10, "threshold": 0.0005}
    }

Any other key, at the top level or in a section, is a ValidationError.
Each field is read by these subcommands: ``dpv`` by ``waveform``,
``detection`` by ``detect``, ``coding.threshold`` by ``encode``,
``coding.neuron_count`` by ``weights`` (unless ``--n`` is given) and
``seed`` by ``synth`` and ``weights``. ``coding.time_window`` is read by
no subcommand; only a manifest's value is used, echoed into ``report.json``.

Seeded weights draw from a stream derived from the top-level seed by
hashing the component name into it (``derive_seed``: sha256 of
"<seed>:<component>"). ``synth`` and network specs seed their generators
with the seed as given.

The module is standard library only: the detection and coding sections are
defined here (``spikes`` and ``coding`` re-export them), so loading a
config imports no numpy and ``waveform`` starts without it.
"""

import math
import numbers
import os
from dataclasses import dataclass, field

from . import _inputs
from .dpv import DpvParameters
from .errors import ValidationError


def derive_seed(master_seed: int, component: str) -> int:
    """Deterministic 64-bit child seed for a named component."""
    import hashlib
    digest = hashlib.sha256(f"{master_seed}:{component}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _build(cls, doc, name, what):
    """Section ``name`` of a config or manifest: ``cls`` fields only, each a finite number."""
    section = doc.get(name, {})
    _inputs.check_keys(section, cls.__dataclass_fields__, f'{what} "{name}"')
    for key, value in section.items():
        _inputs.number(value, f'{what} "{name}.{key}"')
    return cls(**section)


@dataclass(frozen=True)
class SpikeDetectionConfig:
    """Threshold in the unit of the analysed series; distance in seconds."""

    threshold: float = 0.0005
    min_peak_distance: float = 5.0

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValidationError("threshold must be finite")
        if not self.min_peak_distance >= 0:  # NaN fails this test too
            raise ValidationError("min_peak_distance must be >= 0")


@dataclass(frozen=True)
class CodingConfig:
    """Coding parameters: network size, threshold and time window."""

    neuron_count: int = 10
    threshold: float = 0.0005
    time_window: float = 1.0  # stored for provenance; not used by the code map

    def __post_init__(self):
        if not (isinstance(self.neuron_count, numbers.Integral) and self.neuron_count >= 1):
            raise ValidationError("neuron_count must be an integer >= 1")
        if not math.isfinite(self.threshold):
            raise ValidationError("threshold must be finite")
        if not self.time_window > 0:  # NaN fails this test too
            raise ValidationError("time_window must be > 0")


@dataclass(eq=False)
class RunConfig:
    """Validated union of the per-module settings plus the seed."""

    dpv: DpvParameters = field(default_factory=DpvParameters)
    detection: SpikeDetectionConfig = field(default_factory=SpikeDetectionConfig)
    coding: CodingConfig = field(default_factory=CodingConfig)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _inputs.check_keys(doc, ("dpv", "detection", "coding", "seed"), "config")
        return cls(
            dpv=_build(DpvParameters, doc, "dpv", "config"),
            detection=_build(SpikeDetectionConfig, doc, "detection", "config"),
            coding=_build(CodingConfig, doc, "coding", "config"),
            seed=_inputs.integer(doc.get("seed", 0), 0, 'config "seed"'),
        )


def load_config(path=None) -> RunConfig:
    """Load a config file, or the defaults when no path is given."""
    if path is None:
        return RunConfig()
    doc = _inputs.read_json_object(path, "config")
    with _inputs.blamed(path):
        return RunConfig.from_dict(doc)


@dataclass(eq=False)
class ExperimentManifest:
    """A batch of recordings to push through the analysis pipeline."""

    sample_labels: list[str]
    source_files: list[str]
    detection: SpikeDetectionConfig = field(default_factory=SpikeDetectionConfig)
    coding: CodingConfig = field(default_factory=CodingConfig)
    seed: int = 0
    weights: str = "seeded"  # or "reference"

    def __post_init__(self):
        if len(self.sample_labels) != len(self.source_files):
            raise ValidationError("sample_labels and source_files differ in length")
        if not self.sample_labels:
            raise ValidationError("manifest lists no samples")
        if len(set(self.sample_labels)) != len(self.sample_labels):
            raise ValidationError("sample labels must be unique")
        if self.weights not in ("seeded", "reference"):
            raise ValidationError('weights must be "seeded" or "reference"')
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")


def load_manifest(path) -> ExperimentManifest:
    """Read and validate a manifest; referenced files must exist."""
    doc = _inputs.read_json_object(path, "manifest")
    with _inputs.blamed(path):
        _inputs.check_keys(doc, ("sample_labels", "source_files", "detection", "coding", "seed",
                                 "weights"), "manifest")
        labels, files = (_inputs.array(doc.get(key), f'manifest "{key}"')
                         for key in ("sample_labels", "source_files"))
        manifest = ExperimentManifest(
            sample_labels=[str(s) for s in labels],
            source_files=[str(s) for s in files],
            detection=_build(SpikeDetectionConfig, doc, "detection", "manifest"),
            coding=_build(CodingConfig, doc, "coding", "manifest"),
            seed=_inputs.integer(doc.get("seed", 0), 0, 'manifest "seed"'),
            weights=str(doc.get("weights", "seeded")),
        )
        base = os.path.dirname(os.path.abspath(path))
        resolved = []
        for rel in manifest.source_files:
            full = rel if os.path.isabs(rel) else os.path.join(base, rel)
            if not os.path.exists(full):
                raise ValidationError(f"source file not found: {rel}")
            resolved.append(full)
    manifest.source_files = resolved
    return manifest
