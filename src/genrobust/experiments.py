"""Config-driven experiment sweeps on synthetic desk-scale data.

Synthetic datasets live on a low-dimensional affine subspace of pixel
space. The "gaussian" family is exactly representable by the Gaussian
generator (the accurate-distribution condition holds by construction); the
"warped-mixture" family bends multi-modal latents so a single Gaussian fit
per class is measurably wrong while the family itself can play the role of
a held-out "true" generator.

Sweeps are resumable: each (axis value, seed) cell persists as one CSV
under <out_dir>/cells/, stamped with the sweep's config hash. On restart a
cell is reused only if it succeeded under the same hash; failed and stale
cells are recomputed. All randomness derives from (experiment seed, axis
value, seed index).
"""

from __future__ import annotations

import csv
import io
import math
import os
import zlib
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import models as mdl
from .attacks import CascadeConfig, attack_cascade
from .container import atomic_write_text
from .data import LabeledDataset, derive_rng
from .generation import default_component_count, fit_class_gaussians, fit_pca, sample
from .labeling import PseudoLabeledSet, make_degraded_labeler, pseudo_label, train_nonrobust
from .models import Classifier, ModelConfig
from .training import TrainConfig, train

__all__ = [
    "SyntheticDatasetSpec",
    "SweepResult",
    "ExperimentSources",
    "make_synthetic_dataset",
    "sample_from_spec",
    "prepare_sources",
    "sample_generated_holdout",
    "sample_true_sets",
    "run_mixing_sweep",
    "run_condition1_probe",
    "run_condition23_probe",
    "run_scaling_study",
    "spearman_rank_corr",
    "sign_test_pvalue",
]


# ---------------------------------------------------------------------------
# synthetic datasets


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Class-conditional distribution on an affine pixel subspace.

    family "gaussian": latent z ~ N(mean_c, noise^2 I).
    family "warped-mixture": per class, equally likely latent modes plus a
    smooth sine warp; a plain per-class Gaussian fit cannot represent it.
    """

    num_classes: int = 4
    image_shape: tuple = (1, 8, 8)
    family: str = "gaussian"
    latent_dim: int = 6
    class_separation: float = 3.0
    noise_scale: float = 0.5
    anisotropy: float = 1.0  # smallest/largest class-covariance axis ratio
    mixture_modes: int = 2
    mode_spread: float = 2.5
    warp_strength: float = 0.6
    pixel_scale: float = 0.08
    train_size: int = 2000
    test_size: int = 2000
    holdout_size: int = 500
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "image_shape", tuple(int(s) for s in self.image_shape))
        if self.family not in ("gaussian", "warped-mixture"):
            raise ValueError(f"unknown dataset family {self.family!r}")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.latent_dim < 1:
            raise ValueError("latent_dim must be >= 1")

    @property
    def flat_dim(self) -> int:
        c, h, w = self.image_shape
        return c * h * w


@dataclass
class _SpecGeometry:
    basis: np.ndarray  # [d_flat, latent]
    class_means: np.ndarray  # [C, latent]
    class_chols: np.ndarray  # [C, latent, latent] covariance factors
    mode_offsets: np.ndarray  # [C, modes, latent]


def _geometry(spec: SyntheticDatasetSpec) -> _SpecGeometry:
    rng = derive_rng("dataset-geometry", spec.seed)
    raw = rng.standard_normal((spec.flat_dim, spec.latent_dim))
    basis, _ = np.linalg.qr(raw)
    dirs = rng.standard_normal((spec.num_classes, spec.latent_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    class_means = spec.class_separation * dirs
    chols = np.empty((spec.num_classes, spec.latent_dim, spec.latent_dim))
    for c in range(spec.num_classes):
        rot, _ = np.linalg.qr(rng.standard_normal((spec.latent_dim, spec.latent_dim)))
        scales = np.geomspace(spec.anisotropy, 1.0, spec.latent_dim)
        chols[c] = rot * (spec.noise_scale * scales)  # rot @ diag(sigma)
    offsets = rng.standard_normal((spec.num_classes, spec.mixture_modes, spec.latent_dim))
    offsets /= np.linalg.norm(offsets, axis=2, keepdims=True)
    offsets *= spec.mode_spread
    return _SpecGeometry(
        basis=basis, class_means=class_means, class_chols=chols, mode_offsets=offsets
    )


def _latents_for_class(
    spec: SyntheticDatasetSpec, geom: _SpecGeometry, c: int, n: int, rng
) -> np.ndarray:
    eps = rng.standard_normal((n, spec.latent_dim))
    z = geom.class_means[c] + eps @ geom.class_chols[c].T
    if spec.family == "warped-mixture":
        modes = rng.integers(0, spec.mixture_modes, size=n)
        z = z + geom.mode_offsets[c][modes]
        rolled = np.roll(z, shift=1, axis=1)
        z = z + spec.warp_strength * np.sin(1.5 * rolled) * spec.mode_spread
    return z


def _latent_to_images(spec: SyntheticDatasetSpec, geom: _SpecGeometry, z: np.ndarray) -> np.ndarray:
    flat = 0.5 + spec.pixel_scale * (z @ geom.basis.T)
    return np.clip(flat, 0.0, 1.0).reshape(len(z), *spec.image_shape)


def _class_counts(total: int, num_classes: int) -> np.ndarray:
    counts = np.full(num_classes, total // num_classes, dtype=np.int64)
    counts[: total % num_classes] += 1
    return counts


def sample_from_spec(
    spec: SyntheticDatasetSpec, class_index: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Fresh draws from the dataset spec's true class-conditional distribution."""
    geom = _geometry(spec)
    return _latent_to_images(spec, geom, _latents_for_class(spec, geom, class_index, n, rng))


def _draw_split(spec: SyntheticDatasetSpec, geom: _SpecGeometry, total: int, rng) -> LabeledDataset:
    counts = _class_counts(total, spec.num_classes)
    images, labels = [], []
    for c in range(spec.num_classes):
        z = _latents_for_class(spec, geom, c, int(counts[c]), rng)
        images.append(_latent_to_images(spec, geom, z))
        labels.append(np.full(int(counts[c]), c, dtype=np.int64))
    imgs = np.concatenate(images)
    labs = np.concatenate(labels)
    perm = rng.permutation(total)
    return LabeledDataset(imgs[perm], labs[perm])


def make_synthetic_dataset(
    spec: SyntheticDatasetSpec,
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """(train, test, holdout): independent draws, balanced class histograms."""
    geom = _geometry(spec)
    train = _draw_split(spec, geom, spec.train_size, derive_rng("dataset-train", spec.seed))
    test = _draw_split(spec, geom, spec.test_size, derive_rng("dataset-test", spec.seed))
    holdout = _draw_split(spec, geom, spec.holdout_size, derive_rng("dataset-holdout", spec.seed))
    return train, test, holdout


# ---------------------------------------------------------------------------
# statistics for trend assertions


def spearman_rank_corr(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks on ties."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("need two equal-length 1-D sequences of length >= 2")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        sv = v[order]
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and sv[j + 1] == sv[i]:
                j += 1
            r[order[i : j + 1]] = (i + j) / 2.0
            i = j + 1
        return r

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0 or sy == 0:
        return 0.0
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


def sign_test_pvalue(diffs: Sequence[float]) -> float:
    """One-sided sign test: P(Binomial(n, 1/2) >= #positive), zero diffs dropped."""
    d = np.asarray(diffs, dtype=np.float64)
    nonzero = d[d != 0]
    n = len(nonzero)
    if n == 0:
        return 1.0
    wins = int(np.sum(nonzero > 0))
    total = 0.0
    for k in range(wins, n + 1):
        total += float(math.comb(n, k))
    return total / float(2**n)


# ---------------------------------------------------------------------------
# sweep plumbing


@dataclass
class SweepResult:
    axis_name: str
    rows: list = field(default_factory=list)  # dicts with axis, seed, metrics
    config_hash: str = ""

    def values_for(self, axis_value, metric: str) -> list:
        return [r[metric] for r in self.rows if r["axis"] == axis_value]

    def seed_mean(self, axis_value, metric: str) -> float:
        vals = self.values_for(axis_value, metric)
        if not vals:
            raise KeyError(f"no rows for axis value {axis_value!r}")
        return float(np.mean(vals))

    def axis_values(self) -> list:
        seen = []
        for r in self.rows:
            if r["axis"] not in seen:
                seen.append(r["axis"])
        return seen

    def to_csv(self) -> str:
        if not self.rows:
            return "axis,seed\n"
        keys = ["axis", "seed"]
        for r in self.rows:
            for k in r:
                if k not in keys:
                    keys.append(k)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for r in self.rows:
            writer.writerow(r)
        return buf.getvalue()

    def summary_csv(self, metric: str = "robust_acc") -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["axis", f"mean_{metric}", f"std_{metric}", "n_seeds", "config_hash"])
        for v in self.axis_values():
            vals = self.values_for(v, metric)
            writer.writerow([v, float(np.mean(vals)), float(np.std(vals)), len(vals), self.config_hash])
        return buf.getvalue()


def _cell_seed(exp_seed: int, axis_repr: str, seed_index: int) -> int:
    """Training seed for one cell.

    Deliberately independent of the axis value: cells sharing a seed index
    reuse the same init and shuffle streams across axis values (common
    random numbers), so per-seed differences isolate the axis effect and
    paired tests keep their power. Reproducibility is unaffected: the cell
    is still a pure function of (experiment seed, axis value, seed index).
    """
    del axis_repr
    return zlib.crc32(f"{exp_seed}|{seed_index}".encode("utf-8"))


def _cell_path(out_dir: str, axis_repr: str, seed_index: int) -> str:
    safe = "".join(ch if ch.isalnum() or ch in ".-" else "_" for ch in axis_repr)
    return os.path.join(out_dir, "cells", f"{safe}__s{seed_index}.csv")


def _load_cell(path: str, config_hash: str) -> Optional[dict]:
    """A finished cell's metrics; None (recompute) when the cell is missing,
    recorded a failure, or was computed under another config hash."""
    if not os.path.exists(path):
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or "error" in rows[0] or rows[0].pop("config_hash", None) != config_hash:
        return None
    out = {}
    for k, v in rows[0].items():
        if k in ("axis", "seed"):
            out[k] = v
        else:
            try:
                out[k] = float(v)
            except ValueError:
                out[k] = v
    return out


def _store_cell(path: str, row: dict, config_hash: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=[*row, "config_hash"])
    writer.writeheader()
    writer.writerow({**row, "config_hash": config_hash})
    atomic_write_text(path, buf.getvalue())


def _run_sweep(
    axis_name: str,
    axis_values: Sequence,
    seeds: Sequence[int],
    cell_fn: Callable[[object, int, int], dict],
    out_dir: Optional[str],
    exp_seed: int,
    config_hash: str,
) -> SweepResult:
    """Generic resumable sweep: cell_fn(axis_value, seed_index, cell_seed) -> metrics."""
    result = SweepResult(axis_name=axis_name, config_hash=config_hash)
    for axis_value in axis_values:
        axis_repr = f"{axis_name}={axis_value}"
        for si, seed in enumerate(seeds):
            cell_seed = _cell_seed(exp_seed, axis_repr, int(seed))
            path = _cell_path(out_dir, axis_repr, int(seed)) if out_dir else None
            if path:
                cached = _load_cell(path, config_hash)
                if cached is not None:
                    cached["axis"] = axis_value
                    cached["seed"] = int(seed)
                    result.rows.append(cached)
                    continue
            try:
                metrics = cell_fn(axis_value, int(seed), cell_seed)
                row = {"axis": axis_value, "seed": int(seed), **metrics}
            except Exception as exc:  # record the failure, keep sweeping
                row = {"axis": axis_value, "seed": int(seed), "error": repr(exc)}
            if path:
                _store_cell(path, row, config_hash)
            result.rows.append(row)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        stamped = SweepResult(
            axis_name=axis_name,
            rows=[{**r, "config_hash": config_hash} for r in result.rows],
            config_hash=config_hash,
        )
        atomic_write_text(os.path.join(out_dir, "cells.csv"), stamped.to_csv())
        ok_rows = [r for r in result.rows if "robust_acc" in r]
        if ok_rows:
            trimmed = SweepResult(axis_name=axis_name, rows=ok_rows, config_hash=config_hash)
            atomic_write_text(os.path.join(out_dir, "summary.csv"), trimmed.summary_csv())
            _write_summary_svg(out_dir, axis_name, trimmed)
    return result


def _write_summary_svg(out_dir: str, axis_name: str, result: SweepResult) -> None:
    from .plot import line_plot_svg

    xs = result.axis_values()
    try:
        xs_float = [float(x) for x in xs]
    except (TypeError, ValueError):
        return  # non-numeric axis, skip the plot
    metrics = [k for k in result.rows[0] if k not in ("axis", "seed") and
               all(isinstance(r.get(k), (int, float)) for r in result.rows)]
    series = {m: [result.seed_mean(x, m) for x in xs] for m in metrics[:4]}
    if series:
        atomic_write_text(
            os.path.join(out_dir, "summary.svg"),
            line_plot_svg(xs_float, series, title=f"sweep over {axis_name}", x_label=axis_name),
        )


# ---------------------------------------------------------------------------
# shared preparation


@dataclass
class ExperimentSources:
    spec: SyntheticDatasetSpec
    train: LabeledDataset
    test: LabeledDataset
    holdout: LabeledDataset
    labeler: Classifier
    labeler_accuracy: float
    pool: PseudoLabeledSet
    generator: object = None  # the fitted GaussianGenerativeModel


def sample_generated_holdout(
    sources: ExperimentSources, per_class: int, tag: str = "holdout"
) -> PseudoLabeledSet:
    """Fresh pseudo-labeled draws from the fitted generator (never trained on)."""
    spec = sources.spec
    images = np.concatenate(
        [
            sample(sources.generator, c, per_class, derive_rng("gen-holdout", tag, spec.seed, c))
            for c in range(spec.num_classes)
        ]
    )
    return pseudo_label(sources.labeler, images, labeler_id="gen-holdout")


def sample_true_sets(
    sources: ExperimentSources, per_class: int, pool_per_class: int
) -> tuple[LabeledDataset, PseudoLabeledSet]:
    """Conditions 2-3's "true" sets, drawn from the dataset family itself:
    a test set with its true labels and a pool labeled by the labeler."""
    spec = sources.spec
    test = LabeledDataset(
        np.concatenate(
            [sample_from_spec(spec, c, per_class, derive_rng("cli-true-test", spec.seed, c))
             for c in range(spec.num_classes)]
        ),
        np.repeat(np.arange(spec.num_classes, dtype=np.int64), per_class),
    )
    pool_images = np.concatenate(
        [sample_from_spec(spec, c, pool_per_class, derive_rng("cli-true-pool", spec.seed, c))
         for c in range(spec.num_classes)]
    )
    return test, pseudo_label(sources.labeler, pool_images, labeler_id="true-generator")


def prepare_sources(
    spec: SyntheticDatasetSpec,
    labeler_config: ModelConfig,
    labeler_epochs: int = 40,
    pool_per_class: int = 1000,
    pca_components: Optional[int] = None,
    labeler_lr0: float = 0.1,
    labeler_batch_size: int = 64,
) -> ExperimentSources:
    """Steps (i)-(ii): data, non-robust labeler, Gaussian fit, labeled pool."""
    train_ds, test_ds, holdout_ds = make_synthetic_dataset(spec)
    labeler = train_nonrobust(
        train_ds, labeler_config, epochs=labeler_epochs, lr0=labeler_lr0,
        batch_size=labeler_batch_size, rng=derive_rng("sources-labeler", spec.seed),
    )
    labeler_acc = mdl.accuracy(labeler, holdout_ds)
    k = pca_components if pca_components is not None else default_component_count(spec.flat_dim)
    flat = train_ds.images.reshape(len(train_ds), -1)
    pca = fit_pca(flat, k)
    generator = fit_class_gaussians(pca, train_ds)
    images = np.concatenate(
        [
            sample(generator, c, pool_per_class, derive_rng("sources-pool", spec.seed, c))
            for c in range(spec.num_classes)
        ]
    )
    pool = pseudo_label(labeler, images, labeler_id=f"nonrobust-seed{spec.seed}")
    return ExperimentSources(
        spec=spec,
        train=train_ds,
        test=test_ds,
        holdout=holdout_ds,
        labeler=labeler,
        labeler_accuracy=labeler_acc,
        pool=pool,
        generator=generator,
    )


def _check_eval_size(eval_size: int) -> None:
    """Reject an evaluation subset that would be empty, before any cell runs:
    the cascade on no examples reports accuracies of 0.0."""
    if eval_size < 1:
        raise ValueError(f"eval_size must be >= 1, got {eval_size}")


def _evaluate_cell(
    model: Classifier,
    test_ds: LabeledDataset,
    train_cfg: TrainConfig,
    cascade: CascadeConfig,
    eval_size: int,
) -> dict:
    subset = test_ds.subset(np.arange(min(eval_size, len(test_ds))))
    res = attack_cascade(model, subset, train_cfg.perturbation, cascade)
    return {"robust_acc": res.robust_accuracy, "clean_acc": res.clean_accuracy}


def _train_cell(
    base: TrainConfig,
    model_cfg: ModelConfig,
    sources_train: LabeledDataset,
    pool: Optional[PseudoLabeledSet],
    cell_seed: int,
) -> Classifier:
    cfg = replace(base, seed=cell_seed)
    mcfg = replace(model_cfg, seed=cell_seed)
    model = mdl.init(mcfg)
    trained, _ = train(cfg, sources_train, pool, model)
    return trained


# ---------------------------------------------------------------------------
# the four sweeps


def run_mixing_sweep(
    base: TrainConfig,
    model_cfg: ModelConfig,
    alphas: Sequence[float],
    seeds: Sequence[int],
    sources: ExperimentSources,
    cascade: CascadeConfig = CascadeConfig(),
    eval_size: int = 512,
    out_dir: Optional[str] = None,
    config_hash: str = "",
) -> SweepResult:
    """One robust model per (alpha, seed); cascade accuracy on the test split."""
    _check_eval_size(eval_size)

    def cell(alpha, seed, cell_seed):
        cfg = replace(base, alpha=float(alpha))
        model = _train_cell(cfg, model_cfg, sources.train, sources.pool if alpha < 1.0 else None, cell_seed)
        metrics = _evaluate_cell(model, sources.test, cfg, cascade, eval_size)
        metrics["labeler_acc"] = sources.labeler_accuracy
        return metrics

    return _run_sweep("alpha", list(alphas), seeds, cell, out_dir, base.seed, config_hash)


def run_condition1_probe(
    base: TrainConfig,
    model_cfg: ModelConfig,
    accuracy_levels: Sequence[float],
    seeds: Sequence[int],
    sources: ExperimentSources,
    labeler_cfg: Optional[ModelConfig] = None,
    cascade: CascadeConfig = CascadeConfig(),
    eval_size: int = 512,
    level_tolerance: float = 0.03,
    out_dir: Optional[str] = None,
    config_hash: str = "",
) -> SweepResult:
    """Fig verifying the accurate-labeler condition: degrade the labeler to
    several accuracy levels, relabel the pool, train and evaluate."""
    _check_eval_size(eval_size)
    levels = list(accuracy_levels)
    if levels != sorted(levels):
        raise ValueError("accuracy levels must be ascending")
    if labeler_cfg is None:
        labeler_cfg = replace(sources.labeler.config, hidden=(256,))

    relabeled: dict[float, tuple[PseudoLabeledSet, float]] = {}

    def get_pool(level: float) -> tuple[PseudoLabeledSet, float]:
        if level not in relabeled:
            degraded, achieved = make_degraded_labeler(
                sources.train, level, labeler_cfg,
                holdout=sources.holdout, tolerance=level_tolerance,
            )
            pool = pseudo_label(degraded, sources.pool.images, labeler_id=f"degraded-{level}")
            relabeled[level] = (pool, achieved)
        return relabeled[level]

    def cell(level, seed, cell_seed):
        pool, achieved = get_pool(float(level))
        model = _train_cell(base, model_cfg, sources.train, pool, cell_seed)
        metrics = _evaluate_cell(model, sources.test, base, cascade, eval_size)
        metrics["labeler_acc"] = achieved
        return metrics

    return _run_sweep("labeler_accuracy", levels, seeds, cell, out_dir, base.seed, config_hash)


def _premixed_pool(
    mismatched: PseudoLabeledSet,
    true_pool: PseudoLabeledSet,
    true_fraction: float,
    covered_classes: Optional[int],
    num_classes: int,
    rng: np.random.Generator,
    total: int,
) -> PseudoLabeledSet:
    """Pre-mixed pool: (1 - f) mismatched + f true, optionally restricted to
    pseudo-label classes below ``covered_classes``."""
    n_true = int(round(true_fraction * total))
    n_mis = total - n_true
    mis_idx = rng.choice(len(mismatched), size=n_mis, replace=len(mismatched) < n_mis)
    parts_img = [mismatched.images[mis_idx]]
    parts_lab = [mismatched.pseudo_labels[mis_idx]]
    parts_sco = [mismatched.scores[mis_idx]]
    if n_true > 0:
        if covered_classes is None:
            candidates = np.arange(len(true_pool))
        else:
            candidates = np.flatnonzero(true_pool.pseudo_labels < covered_classes)
        if candidates.size == 0:
            # zero coverage: fill the quota with more mismatched samples
            extra = rng.choice(len(mismatched), size=n_true, replace=len(mismatched) < n_true)
            parts_img.append(mismatched.images[extra])
            parts_lab.append(mismatched.pseudo_labels[extra])
            parts_sco.append(mismatched.scores[extra])
        else:
            tr_idx = rng.choice(candidates, size=n_true, replace=candidates.size < n_true)
            parts_img.append(true_pool.images[tr_idx])
            parts_lab.append(true_pool.pseudo_labels[tr_idx])
            parts_sco.append(true_pool.scores[tr_idx])
    return PseudoLabeledSet(
        images=np.concatenate(parts_img),
        pseudo_labels=np.concatenate(parts_lab),
        scores=np.concatenate(parts_sco),
        labeler_id=mismatched.labeler_id,
    )


def run_condition23_probe(
    base: TrainConfig,
    model_cfg: ModelConfig,
    axis: str,
    grid: Sequence,
    seeds: Sequence[int],
    sources: ExperimentSources,
    true_test: LabeledDataset,
    true_pool: PseudoLabeledSet,
    wide_model_cfg: Optional[ModelConfig] = None,
    gauss_fraction: float = 0.99,
    pool_total: Optional[int] = None,
    cascade: CascadeConfig = CascadeConfig(),
    eval_size: int = 512,
    out_dir: Optional[str] = None,
    config_hash: str = "",
) -> SweepResult:
    """Distribution-gap and coverage probes against a held-out true generator.

    axis "gauss_fraction": train on (fraction mismatched, rest true) pools.
    axis "covered_classes": mismatched fraction fixed at ``gauss_fraction``;
    the remaining share holds true samples from the first m classes only;
    when a wide model config is given, each cell trains narrow and wide.
    """
    _check_eval_size(eval_size)
    if axis not in ("gauss_fraction", "covered_classes"):
        raise ValueError(f"unknown probe axis {axis!r}")
    total = pool_total if pool_total is not None else len(sources.pool)

    def cell(value, seed, cell_seed):
        mix_rng = derive_rng("cond23-mix", base.seed, str(value), seed)
        if axis == "gauss_fraction":
            pool = _premixed_pool(
                sources.pool, true_pool, 1.0 - float(value), None,
                sources.spec.num_classes, mix_rng, total,
            )
        else:
            pool = _premixed_pool(
                sources.pool, true_pool, 1.0 - gauss_fraction, int(value),
                sources.spec.num_classes, mix_rng, total,
            )
        metrics = {}
        model = _train_cell(base, model_cfg, sources.train, pool, cell_seed)
        metrics.update(_evaluate_cell(model, true_test, base, cascade, eval_size))
        if wide_model_cfg is not None:
            wide = _train_cell(base, wide_model_cfg, sources.train, pool, cell_seed + 1)
            wide_metrics = _evaluate_cell(wide, true_test, base, cascade, eval_size)
            metrics["robust_acc_wide"] = wide_metrics["robust_acc"]
            metrics["clean_acc_wide"] = wide_metrics["clean_acc"]
        return metrics

    return _run_sweep(axis, list(grid), seeds, cell, out_dir, base.seed, config_hash)


def run_scaling_study(
    base: TrainConfig,
    model_cfg: ModelConfig,
    sample_counts: Sequence[int],
    seeds: Sequence[int],
    sources: ExperimentSources,
    gen_holdout: PseudoLabeledSet,
    cascade: CascadeConfig = CascadeConfig(),
    eval_size: int = 512,
    out_dir: Optional[str] = None,
    config_hash: str = "",
) -> SweepResult:
    """alpha = 0 scaling: robust accuracy on the real test split and on a
    held-out generated split as the generated pool grows."""
    _check_eval_size(eval_size)
    if base.alpha != 0.0:
        base = replace(base, alpha=0.0)

    def cell(count, seed, cell_seed):
        count = int(count)
        sub_rng = derive_rng("scaling-pool", base.seed, count, seed)
        idx = sub_rng.choice(len(sources.pool), size=count, replace=count > len(sources.pool))
        pool = sources.pool.subset(idx)
        model = _train_cell(base, model_cfg, sources.train, pool, cell_seed)
        metrics = _evaluate_cell(model, sources.test, base, cascade, eval_size)
        gen_ds = LabeledDataset(gen_holdout.images, gen_holdout.pseudo_labels)
        gen = _evaluate_cell(model, gen_ds, base, cascade, eval_size)
        metrics["gen_robust_acc"] = gen["robust_acc"]
        metrics["gen_clean_acc"] = gen["clean_acc"]
        metrics["gap"] = gen["robust_acc"] - metrics["robust_acc"]
        return metrics

    return _run_sweep("pool_size", [int(c) for c in sample_counts], seeds, cell, out_dir, base.seed, config_hash)
