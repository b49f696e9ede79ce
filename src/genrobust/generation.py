"""Class-conditional Gaussian generative model and external sample ingestion.

The generator is fit in three steps: a PCA over flattened training images,
a per-class mean/covariance fit in the reduced coordinates, and sampling by
drawing from the class Gaussian followed by the inverse PCA transform and a
clip to [0,1]. Clipped samples are no longer exactly Gaussian; the clip is
explicit here where image formats would otherwise do it implicitly.

PCA coordinates are not whitened before the Gaussian fit; that choice is a
known sensitivity worth checking when results look off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .container import load_container, metadata_entries, read_metadata, save_container
from .data import LabeledDataset

__all__ = [
    "PcaModel",
    "ClassGaussian",
    "GaussianGenerativeModel",
    "ExternalSampleSet",
    "fit_pca",
    "fit_class_gaussians",
    "sample",
    "default_component_count",
    "save_generator",
    "load_generator",
    "save_sample_set",
    "load_external_samples",
]

JITTER_SCALE = 1e-6


@dataclass
class PcaModel:
    """Column mean plus top-k principal directions (orthonormal columns)."""

    mean: np.ndarray  # [d]
    basis: np.ndarray  # [d, k]
    eigenvalues: np.ndarray  # [k], descending

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def project(self, flat: np.ndarray) -> np.ndarray:
        return (flat - self.mean) @ self.basis

    def reconstruct(self, coords: np.ndarray) -> np.ndarray:
        return coords @ self.basis.T + self.mean


@dataclass
class ClassGaussian:
    mean: np.ndarray  # [k]
    cov_factor: np.ndarray  # [k, k] lower-triangular L with covariance L L^T


@dataclass
class GaussianGenerativeModel:
    pca: PcaModel
    per_class: list  # ClassGaussian per class index
    image_shape: tuple  # (C, H, W)

    @property
    def num_classes(self) -> int:
        return len(self.per_class)


@dataclass
class ExternalSampleSet:
    """Pre-generated images with optional labels and provenance string."""

    images: np.ndarray  # [N, C, H, W] in [0, 1]
    labels: Optional[np.ndarray]
    provenance: str

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"images must be [N,C,H,W], got {self.images.shape}")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("sample pixels outside [0, 1]")
        if self.labels is not None and self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels length does not match images")

    def __len__(self) -> int:
        return self.images.shape[0]


def default_component_count(d_flat: int) -> int:
    """Desk-scale default: min(64, d_flat / 4), at least 1."""
    return max(1, min(64, d_flat // 4))


def fit_pca(images: np.ndarray, k: int) -> PcaModel:
    """Top-k eigenvectors of the sample covariance of flattened images.

    Components are ordered by descending eigenvalue; each column's sign is
    fixed so its largest-magnitude entry is positive (reproducibility).
    """
    x = np.asarray(images, dtype=np.float64)
    if x.ndim != 2:
        x = x.reshape(x.shape[0], -1)
    n, d = x.shape
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > d:
        raise ValueError(f"k={k} exceeds flattened dimension {d}")
    if n <= k:
        raise ValueError(f"need more than k={k} samples, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    vals = eigvals[order]
    basis = eigvecs[:, order]
    for j in range(k):
        col = basis[:, j]
        if col[np.argmax(np.abs(col))] < 0:
            basis[:, j] = -col
    return PcaModel(mean=mean, basis=basis, eigenvalues=np.maximum(vals, 0.0))


def _factor_covariance(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor, adding diagonal jitter when the matrix is not PD."""
    k = cov.shape[0]
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    trace = float(np.trace(cov))
    jitter = JITTER_SCALE * (trace / k if trace > 0 else 1.0)
    for _ in range(6):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(k))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise np.linalg.LinAlgError("covariance could not be factored even with jitter")


def fit_class_gaussians(pca: PcaModel, data: LabeledDataset) -> GaussianGenerativeModel:
    """Per class: project into PCA space, fit mean and covariance, factor it."""
    labels = data.labels
    num_classes = int(labels.max()) + 1 if len(data) else 0
    if len(data) == 0:
        raise ValueError("cannot fit class Gaussians on an empty dataset")
    flat = data.images.reshape(len(data), -1)
    coords = pca.project(flat)
    per_class = []
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        if idx.size == 0:
            raise ValueError(f"class {c} has no examples")
        z = coords[idx]
        mean = z.mean(axis=0)
        centered = z - mean
        cov = centered.T @ centered / max(idx.size - 1, 1)
        per_class.append(ClassGaussian(mean=mean, cov_factor=_factor_covariance(cov)))
    return GaussianGenerativeModel(
        pca=pca, per_class=per_class, image_shape=tuple(data.images.shape[1:])
    )


def sample(
    model: GaussianGenerativeModel,
    class_index: int,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n images from the class Gaussian, inverse-transformed and clipped."""
    if not 0 <= class_index < model.num_classes:
        raise ValueError(f"class {class_index} outside [0, {model.num_classes})")
    g = model.per_class[class_index]
    z = rng.standard_normal(size=(n, model.pca.k))
    coords = g.mean + z @ g.cov_factor.T
    flat = model.pca.reconstruct(coords)
    return np.clip(flat, 0.0, 1.0).reshape((n, *model.image_shape))


# ---------------------------------------------------------------------------
# persistence


def save_generator(path, model: GaussianGenerativeModel, config_hash: str = "") -> None:
    entries = {
        "pca.mean": model.pca.mean,
        "pca.basis": model.pca.basis,
        "pca.eigenvalues": model.pca.eigenvalues,
        "image_shape": np.asarray(model.image_shape, dtype=np.uint32),
    }
    for c, g in enumerate(model.per_class):
        entries[f"class{c}.mean"] = g.mean
        entries[f"class{c}.cov_factor"] = g.cov_factor
    entries.update(
        metadata_entries({"kind": "gaussian-generator", "config_hash": config_hash})
    )
    save_container(path, entries)


def load_generator(path) -> GaussianGenerativeModel:
    entries = load_container(path)
    pca = PcaModel(
        mean=entries["pca.mean"],
        basis=entries["pca.basis"],
        eigenvalues=entries["pca.eigenvalues"],
    )
    per_class = []
    c = 0
    while f"class{c}.mean" in entries:
        per_class.append(
            ClassGaussian(
                mean=entries[f"class{c}.mean"], cov_factor=entries[f"class{c}.cov_factor"]
            )
        )
        c += 1
    if not per_class:
        raise ValueError(f"{path}: no class Gaussians found")
    return GaussianGenerativeModel(
        pca=pca,
        per_class=per_class,
        image_shape=tuple(int(s) for s in entries["image_shape"]),
    )


def save_sample_set(
    path,
    images: np.ndarray,
    labels: Optional[np.ndarray],
    provenance: str,
    config_hash: str = "",
    scores: Optional[np.ndarray] = None,
) -> None:
    if images.size and (images.min() < 0.0 or images.max() > 1.0):
        raise ValueError("sample pixels outside [0, 1]")
    entries = {"images": np.asarray(images, dtype=np.float64)}
    if labels is not None:
        entries["labels"] = np.asarray(labels, dtype=np.uint32)
    if scores is not None:
        entries["scores"] = np.asarray(scores, dtype=np.float64)
    entries.update(metadata_entries({"provenance": provenance, "config_hash": config_hash}))
    save_container(path, entries)


def load_external_samples(path) -> ExternalSampleSet:
    """Validated sample set from a container file; bad pixel ranges rejected."""
    entries = load_container(path)
    if "images" not in entries:
        raise ValueError(f"{path}: sample container has no 'images' entry")
    images = np.asarray(entries["images"], dtype=np.float64)
    labels = entries.get("labels")
    if labels is not None:
        labels = labels.astype(np.int64)
    provenance = read_metadata(entries, "provenance")
    return ExternalSampleSet(images=images, labels=labels, provenance=provenance)
