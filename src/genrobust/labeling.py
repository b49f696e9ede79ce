"""Non-robust labeler training, pseudo-labeling, score filtering, and
deliberately degraded labelers for the labeler-accuracy probes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import autodiff as ad
from . import models as mdl
from .autodiff import backward  # noqa: F401  (perfbench's tracer wraps labeling.backward)
from .container import load_container, metadata_entries, read_metadata, save_container
from .data import LabeledDataset, PseudoLabeledSet, derive_rng
from .models import Classifier, ModelConfig
from .training import EarlyStopConfig, TrainConfig, train

__all__ = [
    "PseudoLabeledSet",
    "train_nonrobust",
    "pseudo_label",
    "filter_topk_per_class",
    "make_degraded_labeler",
    "save_pseudo_labeled",
    "load_pseudo_labeled",
]


def train_nonrobust(
    data: LabeledDataset,
    config: ModelConfig,
    epochs: int,
    lr0: float = 0.1,
    batch_size: int = 64,
    rng: Optional[np.random.Generator] = None,
) -> Classifier:
    """Plain cross-entropy training: ``training.train`` at alpha 1, beta 0,
    no validation split, one batch per epoch when ``data`` is smaller than
    ``batch_size``; ``rng`` orders the batches. Returns the EMA model (the
    one evaluated and used for labeling).
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if rng is None:
        rng = derive_rng("train-nonrobust", config.seed)
    cfg = TrainConfig(
        alpha=1.0, beta=0.0, epochs=epochs, batch_size=min(batch_size, len(data)), lr0=lr0,
        early_stop=EarlyStopConfig(validation_size=0),
    )
    model = mdl.init(config, rng=derive_rng("nonrobust-init", config.seed))
    return train(cfg, data, None, model, shuffle_rng=rng)[0]


def pseudo_label(
    labeler: Classifier,
    images: np.ndarray,
    score_kind: str = "max-prob",
    labeler_id: str = "",
) -> PseudoLabeledSet:
    """Argmax labels plus confidence scores from the non-robust labeler.

    score_kind "max-prob" is the default reading of the scoring step;
    "max-logit" is the documented alternative.
    """
    if score_kind not in ("max-prob", "max-logit"):
        raise ValueError(f"unknown score kind {score_kind!r}")
    images = np.asarray(images)
    logits = mdl.predict_logits(labeler, images)
    scores = ad.softmax(logits) if score_kind == "max-prob" else logits
    return PseudoLabeledSet(
        images=images,
        pseudo_labels=np.argmax(logits, axis=1).astype(np.int64),
        scores=scores.max(axis=1).astype(np.float64),
        labeler_id=labeler_id,
    )


def filter_topk_per_class(pset: PseudoLabeledSet, k: int) -> PseudoLabeledSet:
    """Keep the k highest-scoring items of every class.

    Ties keep the earlier original index; classes with fewer than k items
    raise with the full deficit list.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    labels = pset.pseudo_labels
    classes = np.unique(labels)
    deficits = []
    keep: list[np.ndarray] = []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        if idx.size < k:
            deficits.append((int(c), int(idx.size)))
            continue
        # stable sort on (-score, original index)
        order = np.lexsort((idx, -pset.scores[idx]))
        keep.append(idx[order[:k]])
    if deficits:
        detail = ", ".join(f"class {c}: {have} < {k}" for c, have in deficits)
        raise ValueError(f"insufficient samples for top-k filtering ({detail})")
    kept = np.sort(np.concatenate(keep)) if keep else np.zeros(0, dtype=np.int64)
    return pset.subset(kept)


def _stratified_subsample(data: LabeledDataset, limit: int, rng) -> LabeledDataset:
    if len(data) <= limit:
        return data
    labels = data.labels
    classes = np.unique(labels)
    per_class = max(1, limit // len(classes))
    keep = []
    for c in classes:
        idx = np.flatnonzero(labels == c)
        take = min(per_class, idx.size)
        keep.append(rng.choice(idx, size=take, replace=False))
    return data.subset(np.sort(np.concatenate(keep)))


# make_degraded_labeler's search: noisy-label training runs (epochs, lr0,
# batch size) on a stratified subsample of at most _DEGRADED_MAX_TRAIN
# examples, for at most _DEGRADED_TRIALS values of the noise rate
_DEGRADED_EPOCHS = 150
_DEGRADED_LR0 = 0.05
_DEGRADED_BATCH = 16
_DEGRADED_MAX_TRAIN = 160
_DEGRADED_TRIALS = 5


def make_degraded_labeler(
    data: LabeledDataset,
    target_accuracy: float,
    config: ModelConfig,
    holdout: Optional[LabeledDataset] = None,
    tolerance: float = 0.02,
) -> tuple[Classifier, float]:
    """Labeler trained with symmetric label noise tuned to a target accuracy.

    Noise resamples a label uniformly over all classes with rate eta. The
    labeler trains on a small stratified subsample long enough to memorize
    it, which keeps held-out accuracy a smooth, near-linear function of eta
    (large pools trained to convergence shrug the noise off via plurality
    voting and make low targets unreachable). The first guess inverts
    acc ~= 1 - eta * (C-1)/C; up to five train-and-measure rounds
    refine it with bracketed secant steps. Raises if no trial lands within
    ``tolerance`` of the target.

    Returns (labeler, achieved held-out accuracy).
    """
    num_classes = config.num_classes
    if not (1.0 / num_classes) < target_accuracy <= 1.0:
        raise ValueError(
            f"target accuracy must lie in (1/{num_classes}, 1], got {target_accuracy}"
        )
    if holdout is None:
        n_hold = max(1, len(data) // 5)
        holdout = data.subset(np.arange(len(data) - n_hold, len(data)))
        data = data.subset(np.arange(len(data) - n_hold))

    if target_accuracy >= 1.0 - tolerance:
        model = train_nonrobust(
            data, config, epochs=60, lr0=_DEGRADED_LR0, rng=derive_rng("degraded", config.seed)
        )
        return model, mdl.accuracy(model, holdout)

    data = _stratified_subsample(data, _DEGRADED_MAX_TRAIN, derive_rng("degraded-sub", config.seed))

    # one fixed noise draw: flips are nested in eta, resampled labels fixed,
    # and training is seeded identically per trial, so accuracy is a
    # deterministic, near-monotone function of eta alone
    noise_rng = derive_rng("label-noise", config.seed)
    u = noise_rng.uniform(size=len(data))
    resampled = noise_rng.integers(0, num_classes, size=len(data)).astype(data.labels.dtype)

    def train_with_noise(eta: float) -> tuple[Classifier, float]:
        labels = np.where(u < eta, resampled, data.labels)
        noisy = LabeledDataset(data.images, labels)
        model = train_nonrobust(
            noisy, config, epochs=_DEGRADED_EPOCHS, lr0=_DEGRADED_LR0, batch_size=_DEGRADED_BATCH,
            rng=derive_rng("degraded-train", config.seed),
        )
        return model, mdl.accuracy(model, holdout)

    # invert acc ~= 1 - eta * (C-1)/C for the first guess
    eta = float(np.clip((1.0 - target_accuracy) * num_classes / (num_classes - 1), 0.0, 1.0))
    lo, hi = 0.0, 1.0  # bracket: accuracy decreasing in eta; lo side acc >= target
    best: Optional[tuple[float, Classifier, float]] = None
    tried: list[tuple[float, float]] = []
    for _ in range(_DEGRADED_TRIALS):
        model, acc = train_with_noise(eta)
        gap = abs(acc - target_accuracy)
        if best is None or gap < best[0]:
            best = (gap, model, acc)
        if gap <= tolerance:
            return model, acc
        tried.append((eta, acc))
        if acc > target_accuracy:
            lo = max(lo, eta)
        else:
            hi = min(hi, eta)
        # secant proposal when it stays inside the bracket, else bisect; the
        # bisection also covers the plurality-cliff regime where accuracy
        # barely moves until eta gets large
        eta_secant = None
        if len(tried) >= 2 and abs(tried[-1][1] - tried[-2][1]) > 1e-9:
            (e0, a0), (e1, a1) = tried[-2], tried[-1]
            eta_secant = e1 + (target_accuracy - a1) * (e1 - e0) / (a1 - a0)
        if eta_secant is not None and lo < eta_secant < hi:
            eta = float(eta_secant)
        else:
            eta = 0.5 * (lo + hi)
    raise RuntimeError(
        f"degraded labeler: target {target_accuracy:.3f} unreachable in {_DEGRADED_TRIALS} trials "
        f"(closest achieved {best[2]:.3f})"
    )


# ---------------------------------------------------------------------------
# persistence


def save_pseudo_labeled(path, pset: PseudoLabeledSet, config_hash: str = "") -> None:
    entries = {
        "images": np.asarray(pset.images, dtype=np.float64),
        "pseudo_labels": np.asarray(pset.pseudo_labels, dtype=np.uint32),
        "scores": np.asarray(pset.scores, dtype=np.float64),
    }
    entries.update(
        metadata_entries({"labeler_id": pset.labeler_id, "config_hash": config_hash})
    )
    save_container(path, entries)


def load_pseudo_labeled(path) -> PseudoLabeledSet:
    entries = load_container(path)
    return PseudoLabeledSet(
        images=np.asarray(entries["images"], dtype=np.float64),
        pseudo_labels=entries["pseudo_labels"].astype(np.int64),
        scores=np.asarray(entries["scores"], dtype=np.float64),
        labeler_id=read_metadata(entries, "labeler_id"),
    )
