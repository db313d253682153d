"""Run configuration, experiment manifests and seed derivation.

One JSON config file describes a whole run, with one section per concern:

    {
      "seed": 42,
      "dpv": {"start_potential": -8.0, ...},
      "detection": {"threshold": 0.0005, "min_peak_distance": 5.0},
      "coding": {"neuron_count": 10, "threshold": 0.0005}
    }

Any other key, at the top level or in a section, is a ValidationError.

Every component draws its randomness from a stream derived from the single
top-level seed by hashing the component name into it (sha256 of
"<seed>:<component>"), so adding a component never perturbs the streams of
existing ones.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field

from .coding import CodingConfig
from .dpv import DpvParameters
from .errors import ValidationError
from .spikes import SpikeDetectionConfig


def derive_seed(master_seed: int, component: str) -> int:
    """Deterministic 64-bit child seed for a named component."""
    digest = hashlib.sha256(f"{master_seed}:{component}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _build(cls, section: dict, name: str):
    try:
        return cls(**section)
    except TypeError as exc:
        raise ValidationError(f"config section {name!r}: {exc}") from None


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
        known = {"dpv", "detection", "coding", "seed"}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        return cls(
            dpv=_build(DpvParameters, doc.get("dpv", {}), "dpv"),
            detection=_build(SpikeDetectionConfig, doc.get("detection", {}), "detection"),
            coding=_build(CodingConfig, doc.get("coding", {}), "coding"),
            seed=int(doc.get("seed", 0)),
        )


def load_config(path=None) -> RunConfig:
    """Load a config file, or the defaults when no path is given."""
    if path is None:
        return RunConfig()
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
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
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    try:
        manifest = ExperimentManifest(
            sample_labels=[str(s) for s in doc["sample_labels"]],
            source_files=[str(s) for s in doc["source_files"]],
            detection=_build(SpikeDetectionConfig, doc.get("detection", {}), "detection"),
            coding=_build(CodingConfig, doc.get("coding", {}), "coding"),
            seed=int(doc.get("seed", 0)),
            weights=str(doc.get("weights", "seeded")),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: manifest missing key {exc}") from None
    base = os.path.dirname(os.path.abspath(path))
    resolved = []
    for rel in manifest.source_files:
        full = rel if os.path.isabs(rel) else os.path.join(base, rel)
        if not os.path.exists(full):
            raise ValidationError(f"{path}: source file not found: {rel}")
        resolved.append(full)
    manifest.source_files = resolved
    return manifest
