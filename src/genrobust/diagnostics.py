"""Distribution-quality diagnostics.

Nearest-neighbor complementarity and coverage of a generated set against
train/test sets, the Frechet distance between Gaussian feature fits, an
inception-style score, the uniform-baseline sanity check for unique
nearest neighbors, and margin-loss landscape scans.

Features come from a locally trained classifier's penultimate layer
followed by a PCA fit on train plus test features (no pretrained external
embedder at desk scale, so absolute metric values are not comparable to
published tables; trends and oracles are).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models as mdl
from .attacks import AttackConfig, PerturbationSet, margin_loss, pgd
from .autodiff import softmax
from .data import derive_rng
from .generation import PcaModel, fit_pca
from .models import Classifier

__all__ = [
    "FeatureEmbedder",
    "DiagnosticsReport",
    "fit_feature_embedder",
    "embed",
    "complementarity_coverage",
    "unique_nn_coverage",
    "fid",
    "is_score",
    "uniform_unique_nn_baseline",
    "loss_landscape",
]


@dataclass
class FeatureEmbedder:
    backbone: Classifier
    pca: PcaModel

    @property
    def dim(self) -> int:
        return self.pca.k


@dataclass
class DiagnosticsReport:
    c_train: float
    c_test: float
    c_self: float
    v_train: float
    v_test: float
    fid: float = float("nan")
    is_mean: float = float("nan")
    is_std: float = float("nan")

    def __post_init__(self):
        total = self.c_train + self.c_test + self.c_self
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"complementarity fractions sum to {total}, not 1")
        for name in ("c_train", "c_test", "c_self", "v_train", "v_test"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")


def fit_feature_embedder(
    backbone: Classifier,
    train_images: np.ndarray,
    test_images: np.ndarray,
    k: int = 100,
) -> FeatureEmbedder:
    """PCA over penultimate features of train plus test images jointly."""
    feats = mdl.forward_penultimate(backbone, np.concatenate([train_images, test_images]))
    k_eff = min(k, feats.shape[1], feats.shape[0] - 1)
    return FeatureEmbedder(backbone=backbone, pca=fit_pca(feats, k_eff))


def embed(embedder: FeatureEmbedder, images: np.ndarray) -> np.ndarray:
    """Penultimate activations projected by the embedder's PCA, [N, k]."""
    return embedder.pca.project(mdl.forward_penultimate(embedder.backbone, images))


# ---------------------------------------------------------------------------
# Alg. 1: complementarity and coverage


# Query rows per Gram block: 64 rows against ~2000 references is ~1 MB.
_BLOCK_ROWS = 64


def _min_against(queries: np.ndarray, refs: np.ndarray, skip_diag: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per query: (min squared distance, argmin index) against refs.

    Exact and bitwise equal to the naive per-row search
    ``((refs - q) ** 2).sum(axis=1)``, lowest index on exact ties. A block
    of query rows gets all its squared distances from one Gram product;
    every reference within a rounding margin of a row's minimum is then
    re-measured the naive way, and the least of those is the neighbour.
    With ``skip_diag`` the refs are the queries themselves, at least two.
    """
    n = queries.shape[0]
    mins = np.empty(n)
    args = np.empty(n, dtype=np.int64)
    rr = (refs**2).sum(axis=1)
    rr_max = rr.max()
    for s in range(0, n, _BLOCK_ROWS):
        q = queries[s : s + _BLOCK_ROWS]
        qq = (q**2).sum(axis=1)
        gram = qq[:, None] + rr[None, :] - 2.0 * (q @ refs.T)
        if skip_diag:
            rows = np.arange(len(q))
            gram[rows, s + rows] = np.inf
        margin = 1e-9 * (qq + rr_max) + 1e-12
        near = gram <= (gram.min(axis=1) + margin)[:, None]
        for i in range(len(q)):
            cand = np.flatnonzero(near[i])
            d = ((refs[cand] - q[i]) ** 2).sum(axis=1)
            j = np.argmin(d)
            mins[s + i], args[s + i] = d[j], cand[j]
        del gram, near  # one block is live at a time
    return mins, args


def _check_features(sets: dict[str, np.ndarray]) -> None:
    """Each named set is a finite [N, k] array, with one k for all sets."""
    widths = set()
    for name, f in sets.items():
        if f.ndim != 2:
            raise ValueError(f"{name} features must be [N, k], got shape {f.shape}")
        if not np.isfinite(f).all():
            raise ValueError(f"{name} features hold NaN or infinite values")
        widths.add(f.shape[1])
    if len(widths) > 1:
        shapes = ", ".join(f"{name} {f.shape}" for name, f in sets.items())
        raise ValueError(f"feature sets must have equal widths, got {shapes}")


def complementarity_coverage(
    train_f: np.ndarray, test_f: np.ndarray, gen_f: np.ndarray
) -> DiagnosticsReport:
    """Nearest-neighbor attribution of generated samples (Euclidean metric).

    For each generated point, the closest point over train, test and the
    other generated points decides which complementarity counter gets 1/N;
    exact distance ties resolve by set priority (train, test, self), then
    lowest index. Coverage is the fraction of unique nearest neighbors the
    generated set touches in train (resp. test).
    """
    train_f, test_f, gen_f = (np.asarray(a, dtype=np.float64) for a in (train_f, test_f, gen_f))
    _check_features({"train": train_f, "test": test_f, "generated": gen_f})
    n = gen_f.shape[0]
    if not (train_f.shape[0] == test_f.shape[0] == n):
        raise ValueError("train, test and generated sets must have equal sizes")
    if n < 2:
        raise ValueError("need at least 2 points per set")
    d_train, a_train = _min_against(gen_f, train_f, skip_diag=False)
    d_test, a_test = _min_against(gen_f, test_f, skip_diag=False)
    d_self, _ = _min_against(gen_f, gen_f, skip_diag=True)

    to_train = (d_train <= d_test) & (d_train <= d_self)
    to_test = ~to_train & (d_test <= d_self)
    n_train, n_test = int(to_train.sum()), int(to_test.sum())
    return DiagnosticsReport(
        c_train=n_train / n,
        c_test=n_test / n,
        c_self=(n - n_train - n_test) / n,
        v_train=np.unique(a_train).size / n,
        v_test=np.unique(a_test).size / n,
    )


def unique_nn_coverage(queries: np.ndarray, refs: np.ndarray) -> float:
    """Fraction of unique nearest neighbors the queries touch in refs.

    Splitting a dataset in half and covering one half with the other gives
    a useful sanity number for the embedder (roughly the regime a faithful
    generated set should reach against the train set); it is reported by
    the diagnose command, not asserted.
    """
    queries = np.asarray(queries, dtype=np.float64)
    refs = np.asarray(refs, dtype=np.float64)
    _check_features({"query": queries, "reference": refs})
    if len(queries) < 1 or len(refs) < 1:
        raise ValueError("need non-empty feature sets")
    _, args = _min_against(queries, refs, skip_diag=False)
    return np.unique(args).size / len(queries)


# ---------------------------------------------------------------------------
# Frechet distance


def _sqrtm_psd(m: np.ndarray, what: str) -> np.ndarray:
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    tol = 1e-8 * max(1.0, float(np.abs(vals).max(initial=0.0)))
    if vals.min(initial=0.0) < -tol:
        raise ValueError(f"{what}: eigenvalue {vals.min()} below -{tol}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def fid(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """||mu_a - mu_b||^2 + tr(Sa + Sb - 2 (Sa Sb)^(1/2)).

    The matrix square root uses the symmetrized product
    sqrt(Sa)^T Sb sqrt(Sa); eigenvalues inside the numerical tolerance are
    clamped to zero, genuinely negative ones raise.
    """
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature sets must be [N,k] with equal k, got {a.shape}, {b.shape}")
    k = a.shape[1]
    if a.shape[0] <= k or b.shape[0] <= k:
        raise ValueError(f"need more than k={k} samples per set")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    sa = np.cov(a, rowvar=False, ddof=1).reshape(k, k)
    sb = np.cov(b, rowvar=False, ddof=1).reshape(k, k)
    if not (np.all(np.isfinite(sa)) and np.all(np.isfinite(sb))):
        raise ValueError("non-finite covariance")
    root_a = _sqrtm_psd(sa, "first covariance")
    inner = root_a @ sb @ root_a
    vals, _ = np.linalg.eigh((inner + inner.T) / 2.0)
    tol = 1e-8 * max(1.0, float(np.abs(vals).max(initial=0.0)))
    if vals.min(initial=0.0) < -tol:
        raise ValueError(f"product sqrt: eigenvalue {vals.min()} below -{tol}")
    tr_sqrt = float(np.sqrt(np.clip(vals, 0.0, None)).sum())
    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(sa) + np.trace(sb) - 2.0 * tr_sqrt)


# ---------------------------------------------------------------------------
# inception-style score


def is_score(
    classifier: Classifier, images: np.ndarray, splits: int = 10
) -> tuple[float, float]:
    """exp(E_x KL(p(y|x) || p(y))) per split; returns (mean, std) over splits."""
    n = images.shape[0]
    if splits < 1:
        raise ValueError("splits must be >= 1")
    if n < 2 * splits:
        raise ValueError(f"need at least {2 * splits} images for {splits} splits")
    p = softmax(mdl.predict_logits(classifier, images))
    scores = []
    bounds = np.linspace(0, n, splits + 1, dtype=int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi == lo:
            raise ValueError("empty split")
        part = p[lo:hi]
        marginal = part.mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(part > 0, part * (np.log(part) - np.log(marginal)), 0.0)
        scores.append(float(np.exp(terms.sum(axis=1).mean())))
    return float(np.mean(scores)), float(np.std(scores))


# ---------------------------------------------------------------------------
# uniform unique-nearest-neighbor baseline


def uniform_unique_nn_baseline(n: int, rng: np.random.Generator) -> float:
    """Fraction of unique nearest neighbors between two U[0,1] point sets.

    Reference behavior: at n = 10^4 the fraction concentrates near 0.556.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    a = rng.uniform(size=n)
    b = rng.uniform(size=n)
    order = np.argsort(b, kind="stable")
    sorted_b = b[order]
    pos = np.searchsorted(sorted_b, a)
    left = np.clip(pos - 1, 0, n - 1)
    right = np.clip(pos, 0, n - 1)
    d_left = np.abs(a - sorted_b[left])
    d_right = np.abs(a - sorted_b[right])
    take_left = d_left <= d_right  # tie goes to the lower value
    nn_sorted = np.where(take_left, left, right)
    nn_original = order[nn_sorted]
    return len(np.unique(nn_original)) / n


# ---------------------------------------------------------------------------
# loss landscape


def loss_landscape(
    model: Classifier,
    x: np.ndarray,
    y: int,
    pset: PerturbationSet,
    grid_half_extent: float = 1.5,
    resolution: int = 21,
    rng: Optional[np.random.Generator] = None,
    pgd_steps: int = 40,
) -> dict:
    """Margin-loss surface over the plane spanned by the PGD-40 worst
    perturbation (u) and a Rademacher direction scaled to epsilon (v).

    Grid value at (a, b) is margin(f(clip(x + a*u + b*v))); (0,0) is the
    clean margin and (1,0) the margin at the PGD-40 adversarial input.
    """
    if rng is None:
        rng = derive_rng("landscape", 0)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        x = x[None]
    labels = np.asarray([int(y)])
    res = pgd(
        model,
        x,
        labels,
        pset,
        AttackConfig(
            steps=pgd_steps,
            step_size=max(2.5 * pset.epsilon / max(pgd_steps, 1), 1e-12),
            inner_optimizer="sign-sgd",
            restarts=1,
            objective="cross-entropy",
            random_start=False,
        ),
    )
    u = res.delta[0]
    v = rng.choice([-1.0, 1.0], size=x.shape[1:])
    if pset.norm == "l2":
        v = v * (pset.epsilon / np.sqrt((v**2).sum()))
    else:
        v = v * pset.epsilon
    axis = np.linspace(-grid_half_extent, grid_half_extent, resolution)
    points = np.stack(
        [np.clip(x[0] + a * u + b * v, 0.0, 1.0) for a in axis for b in axis]
    )
    margins = margin_loss(mdl.predict_logits(model, points), np.full(len(points), int(y)))
    grid = margins.astype(np.float64).reshape(resolution, resolution)
    return {"axis": axis, "grid": grid, "u": u, "v": v}
