"""Dataset containers and deterministic RNG derivation."""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["LabeledDataset", "PseudoLabeledSet", "derive_rng", "key_to_int"]


def key_to_int(key) -> int:
    """Stable non-negative integer for ints, floats and strings.

    Python's hash() is salted per process; crc32 keeps derived seeds
    reproducible across runs and platforms.
    """
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    if isinstance(key, float):
        return zlib.crc32(repr(key).encode("utf-8"))
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"unsupported rng key type: {type(key)!r}")


def derive_rng(*keys) -> np.random.Generator:
    """Generator seeded by a tuple of keys; no global entropy involved."""
    return np.random.default_rng([key_to_int(k) for k in keys])


@dataclass
class LabeledDataset:
    """Images in [0,1] with integer labels.

    images: float array [N,C,H,W]; labels: int array [N].
    """

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images)
        self.labels = np.asarray(self.labels)
        if self.images.ndim != 4:
            raise ValueError(f"images must be [N,C,H,W], got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} != ({self.images.shape[0]},)"
            )
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got {self.labels.dtype}")
        if self.images.size:
            lo, hi = float(self.images.min()), float(self.images.max())
            if lo < 0.0 or hi > 1.0:
                raise ValueError(f"pixel range [{lo}, {hi}] outside [0, 1]")

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple:
        return self.images.shape[1:]

    def subset(self, idx) -> "LabeledDataset":
        return LabeledDataset(self.images[idx], self.labels[idx])

    def class_counts(self, num_classes: int) -> np.ndarray:
        return np.bincount(self.labels, minlength=num_classes)


@dataclass
class PseudoLabeledSet:
    """Generated images with labeler-assigned labels and confidence scores."""

    images: np.ndarray  # [N, C, H, W]
    pseudo_labels: np.ndarray  # [N]
    scores: np.ndarray  # [N] max softmax probability (or max logit, see flag)
    labeler_id: str = ""

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, idx) -> "PseudoLabeledSet":
        return PseudoLabeledSet(
            self.images[idx], self.pseudo_labels[idx], self.scores[idx], self.labeler_id
        )
