"""Experiment configuration: strict JSON parsing into the typed configs.

Unknown keys anywhere in the document fail fast, before any compute. The
config hash (sha-256 of the canonical JSON) is embedded in every artifact
the pipeline writes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .attacks import AttackConfig, CascadeConfig, PerturbationSet
from .experiments import SyntheticDatasetSpec
from .models import ModelConfig
from .training import EarlyStopConfig, TrainConfig

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config", "config_hash"]


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass
class SweepSection:
    kind: str = "mixing"  # mixing | condition1 | condition23 | scaling
    alphas: tuple = (0.5, 0.8, 1.0)
    seeds: tuple = (0, 1, 2, 3, 4)
    accuracy_levels: tuple = (0.48, 0.75, 0.94, 1.0)
    level_tolerance: float = 0.03
    axis: str = "covered_classes"
    grid: tuple = (0, 1, 2, 3, 4)
    gauss_fraction: float = 0.99
    pool_total: Optional[int] = None
    sample_counts: tuple = (300, 3000)
    eval_size: int = 512
    wide_hidden: Optional[tuple] = None
    alpha_for_probe: float = 0.3

    def __post_init__(self):
        if self.kind not in ("mixing", "condition1", "condition23", "scaling"):
            raise ConfigError(f"unknown sweep kind {self.kind!r}")
        if self.eval_size < 1:
            raise ConfigError(f"eval_size must be >= 1, got {self.eval_size}")


@dataclass
class LabelerSection:
    hidden: tuple = (128,)
    epochs: int = 120
    lr0: float = 0.1
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        # the labeler trains through training.train, under TrainConfig's checks
        TrainConfig(epochs=self.epochs, batch_size=self.batch_size, lr0=self.lr0)
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")


@dataclass
class GenerationSection:
    pca_components: Optional[int] = None  # None: desk default min(64, d/4)
    samples_per_class: int = 1000
    filter_top_k: Optional[int] = None  # None: no filtering (gaussian source default)
    score_kind: str = "max-prob"


@dataclass
class ExperimentConfig:
    dataset: SyntheticDatasetSpec
    model: ModelConfig
    labeler: LabelerSection
    generation: GenerationSection
    train: TrainConfig
    cascade: CascadeConfig
    sweep: SweepSection
    output_dir: str = "out"
    raw: dict = field(default_factory=dict, repr=False)

    @property
    def hash(self) -> str:
        return config_hash(self.raw)


def config_hash(raw: dict) -> str:
    canon = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _build(cls, section: dict, where: str, **extra):
    """Instantiate a dataclass from a dict, rejecting unknown keys."""
    import dataclasses

    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    values = dict(section)
    values.update(extra)
    # JSON arrays arrive as lists; tuple-typed fields want tuples
    for f in dataclasses.fields(cls):
        if f.name in values and isinstance(values[f.name], list):
            values[f.name] = tuple(values[f.name])
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


_TOP_LEVEL = {
    "dataset", "model", "labeler", "generation", "train", "cascade", "sweep", "output_dir",
}


def parse_config(raw: dict) -> ExperimentConfig:
    unknown = set(raw) - _TOP_LEVEL
    if unknown:
        raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
    dataset = _build(SyntheticDatasetSpec, raw.get("dataset", {}), "dataset")

    model_raw = dict(raw.get("model", {}))
    model_raw.setdefault("kind", "mlp")
    model_raw.setdefault("input_shape", list(dataset.image_shape))
    model_raw.setdefault("num_classes", dataset.num_classes)
    model = _build(ModelConfig, model_raw, "model")
    if tuple(model.input_shape) != tuple(dataset.image_shape):
        raise ConfigError(
            f"model.input_shape {model.input_shape} != dataset.image_shape {dataset.image_shape}"
        )
    if model.num_classes != dataset.num_classes:
        raise ConfigError("model.num_classes != dataset.num_classes")

    labeler = _build(LabelerSection, raw.get("labeler", {}), "labeler")
    generation = _build(GenerationSection, raw.get("generation", {}), "generation")

    train_raw = dict(raw.get("train", {}))
    if "inner_attack" in train_raw:
        inner = _build(AttackConfig, train_raw.pop("inner_attack"), "train.inner_attack")
    else:
        inner = TrainConfig().inner_attack
    pert_raw = train_raw.pop("perturbation", {"norm": "linf", "epsilon": 0.02})
    pert = _build(PerturbationSet, pert_raw, "train.perturbation")
    early = _build(EarlyStopConfig, train_raw.pop("early_stop", {}), "train.early_stop")
    train = _build(
        TrainConfig, train_raw, "train",
        inner_attack=inner, perturbation=pert, early_stop=early,
    )

    cascade = _build(CascadeConfig, raw.get("cascade", {}), "cascade")
    sweep = _build(SweepSection, raw.get("sweep", {}), "sweep")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")
    return ExperimentConfig(
        dataset=dataset, model=model, labeler=labeler, generation=generation,
        train=train, cascade=cascade, sweep=sweep, output_dir=output_dir, raw=raw,
    )


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(raw)
