"""Gaussian generator tests: PCA algebra, class fits, sampling, file I/O."""

import numpy as np
import pytest

from genrobust import generation as gen
from genrobust.data import LabeledDataset, derive_rng
from genrobust.generation import (
    ExternalSampleSet,
    fit_class_gaussians,
    fit_pca,
    load_external_samples,
    load_generator,
    sample,
    save_generator,
    save_sample_set,
)


def _dataset_from_flat(flat, labels, shape=(1, 2, 2)):
    imgs = np.clip(flat.reshape(len(flat), *shape), 0.0, 1.0)
    return LabeledDataset(imgs, labels)


# ---------------------------------------------------------------------------
# fit_pca


def test_pca_recovers_exact_line():
    rng = np.random.default_rng(0)
    t = rng.uniform(-1, 1, size=200)
    direction = np.array([1.0, 2.0, -0.5])
    direction /= np.linalg.norm(direction)
    data = 0.3 + np.outer(t, direction)
    pca = fit_pca(data, k=1)
    recon = pca.reconstruct(pca.project(data))
    assert np.max(np.abs(recon - data)) < 1e-8


def test_pca_full_basis_reconstructs_everything():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(50, 6))
    pca = fit_pca(data, k=6)
    recon = pca.reconstruct(pca.project(data))
    assert np.max(np.abs(recon - data)) < 1e-8


def test_pca_isotropic_eigenvalues_close():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(10_000, 5))
    pca = fit_pca(data, k=5)
    assert pca.eigenvalues.max() / pca.eigenvalues.min() < 1.2


def test_pca_orthonormal_basis():
    rng = np.random.default_rng(3)
    data = rng.normal(size=(100, 8)) @ rng.normal(size=(8, 8))
    pca = fit_pca(data, k=4)
    gram = pca.basis.T @ pca.basis
    assert np.max(np.abs(gram - np.eye(4))) < 1e-8


def test_pca_sign_convention():
    rng = np.random.default_rng(4)
    data = rng.normal(size=(60, 5))
    pca = fit_pca(data, k=5)
    for j in range(5):
        col = pca.basis[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_pca_projection_residual_orthogonal_to_basis():
    rng = np.random.default_rng(5)
    data = rng.normal(size=(80, 7))
    pca = fit_pca(data, k=3)
    recon = pca.reconstruct(pca.project(data))
    residual = data - recon
    assert np.max(np.abs(residual @ pca.basis)) < 1e-8


def test_pca_k_validation():
    data = np.random.default_rng(6).normal(size=(10, 4))
    with pytest.raises(ValueError):
        fit_pca(data, k=0)
    with pytest.raises(ValueError):
        fit_pca(data, k=5)  # k > d_flat
    with pytest.raises(ValueError):
        fit_pca(data[:3], k=3)  # need N > k


# ---------------------------------------------------------------------------
# fit_class_gaussians


def test_single_point_classes_get_jitter_identity_factor():
    flat = np.array([[0.2, 0.2, 0.2, 0.2], [0.8, 0.8, 0.8, 0.8]])
    base = np.random.default_rng(7).uniform(0.3, 0.7, size=(20, 4))
    pca = fit_pca(base, k=2)
    ds = _dataset_from_flat(flat, np.array([0, 1]))
    model = fit_class_gaussians(pca, ds)
    expected = np.sqrt(gen.JITTER_SCALE) * np.eye(2)
    for g in model.per_class:
        assert np.max(np.abs(g.cov_factor - expected)) < 1e-12


def test_identical_classes_identical_gaussians():
    rng = np.random.default_rng(8)
    flat = rng.uniform(0.2, 0.8, size=(30, 4))
    images = np.concatenate([flat, flat])
    labels = np.concatenate([np.zeros(30, dtype=np.int64), np.ones(30, dtype=np.int64)])
    pca = fit_pca(images, k=3)
    model = fit_class_gaussians(pca, _dataset_from_flat(images, labels))
    a, b = model.per_class
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.cov_factor, b.cov_factor)


def test_gaussian_fit_recovers_known_distribution():
    """Monte Carlo: recovered class mean within 3 sigma / sqrt(N) per coordinate."""
    rng = np.random.default_rng(9)
    n = 10_000
    true_mean = np.array([0.55, 0.45, 0.5, 0.5])
    chol = np.array(
        [
            [0.05, 0.0, 0.0, 0.0],
            [0.02, 0.04, 0.0, 0.0],
            [0.0, 0.01, 0.03, 0.0],
            [0.0, 0.0, 0.0, 0.02],
        ]
    )
    flat = true_mean + rng.standard_normal((n, 4)) @ chol.T
    flat = np.clip(flat, 0.0, 1.0)
    pca = fit_pca(flat, k=4)
    ds = _dataset_from_flat(flat, np.zeros(n, dtype=np.int64))
    model = fit_class_gaussians(pca, ds)
    g = model.per_class[0]
    # compare in pixel space: reconstruct the fitted class mean
    recon_mean = pca.reconstruct(g.mean[None, :])[0]
    sigma = np.sqrt(np.diag(chol @ chol.T))
    assert np.all(np.abs(recon_mean - true_mean) < 3 * sigma / np.sqrt(n) + 1e-9)


def test_cov_factor_satisfies_l_lt_identity():
    rng = np.random.default_rng(10)
    flat = rng.uniform(0.2, 0.8, size=(200, 4))
    pca = fit_pca(flat, k=3)
    ds = _dataset_from_flat(flat, np.zeros(200, dtype=np.int64))
    model = fit_class_gaussians(pca, ds)
    g = model.per_class[0]
    coords = pca.project(flat)
    centered = coords - coords.mean(axis=0)
    cov = centered.T @ centered / (len(flat) - 1)
    assert np.max(np.abs(g.cov_factor @ g.cov_factor.T - cov)) < 1e-8
    assert np.allclose(g.cov_factor, np.tril(g.cov_factor))
    assert np.all(np.diag(g.cov_factor) >= 0)


def test_empty_class_rejected():
    rng = np.random.default_rng(11)
    flat = rng.uniform(size=(10, 4))
    pca = fit_pca(flat, k=2)
    labels = np.full(10, 2, dtype=np.int64)  # classes 0 and 1 empty
    with pytest.raises(ValueError):
        fit_class_gaussians(pca, _dataset_from_flat(flat, labels))


# ---------------------------------------------------------------------------
# sampling


def _toy_model(seed=12, n=400):
    rng = np.random.default_rng(seed)
    flat = np.clip(
        0.5 + 0.08 * rng.standard_normal((n, 4)) + 0.1 * (rng.integers(0, 2, n)[:, None]) - 0.05,
        0,
        1,
    )
    labels = (flat[:, 0] > 0.5).astype(np.int64)
    pca = fit_pca(flat, k=3)
    return fit_class_gaussians(pca, _dataset_from_flat(flat, labels)), flat, labels


def test_degenerate_gaussian_samples_equal_class_mean():
    model, _, _ = _toy_model()
    g = model.per_class[0]
    model.per_class[0] = gen.ClassGaussian(mean=g.mean, cov_factor=np.zeros_like(g.cov_factor))
    out = sample(model, 0, 5, derive_rng("degenerate", 0))
    expected = np.clip(model.pca.reconstruct(g.mean[None, :]), 0, 1).reshape(model.image_shape)
    for i in range(5):
        assert np.array_equal(out[i], expected)


def test_sampling_mean_matches_class_mean():
    """Empirical PCA-space mean of many samples approaches the class mean."""
    model, _, _ = _toy_model(13, n=2000)
    g = model.per_class[1]
    n = 10_000
    rng = derive_rng("mc-mean", 1)
    z = rng.standard_normal(size=(n, model.pca.k))
    coords = g.mean + z @ g.cov_factor.T  # pre-clipping, as specified
    sigma_max = np.sqrt(np.diag(g.cov_factor @ g.cov_factor.T)).max()
    err = np.abs(coords.mean(axis=0) - g.mean).max()
    assert err < 4 * sigma_max / np.sqrt(n)


def test_sampling_deterministic_under_seed():
    model, _, _ = _toy_model(14)
    a = sample(model, 0, 8, derive_rng("batch", 7))
    b = sample(model, 0, 8, derive_rng("batch", 7))
    assert np.array_equal(a, b)


def test_sample_bad_class_rejected():
    model, _, _ = _toy_model(15)
    with pytest.raises(ValueError):
        sample(model, 99, 1, derive_rng("x", 0))


def test_samples_respect_pixel_range():
    model, _, _ = _toy_model(16)
    out = sample(model, 0, 100, derive_rng("range", 0))
    assert out.min() >= 0.0 and out.max() <= 1.0


# ---------------------------------------------------------------------------
# persistence


def test_generator_round_trip(tmp_path):
    model, _, _ = _toy_model(17)
    path = tmp_path / "gen.grtc"
    save_generator(path, model, config_hash="deadbeef")
    loaded = load_generator(path)
    assert np.array_equal(loaded.pca.mean, model.pca.mean)
    assert np.array_equal(loaded.pca.basis, model.pca.basis)
    assert loaded.image_shape == model.image_shape
    assert len(loaded.per_class) == len(model.per_class)
    a = sample(model, 0, 4, derive_rng("rt", 0))
    b = sample(loaded, 0, 4, derive_rng("rt", 0))
    assert np.array_equal(a, b)


def test_load_generator_rejects_another_kind_of_container(tmp_path):
    path = tmp_path / "samples.grtc"
    save_sample_set(path, np.zeros((3, 1, 2, 2)), np.zeros(3, dtype=np.int64), provenance="x")
    with pytest.raises(ValueError, match=r"samples\.grtc: no entry 'pca\.mean'"):
        load_generator(path)


def test_sample_set_round_trip(tmp_path):
    rng = np.random.default_rng(18)
    images = rng.uniform(size=(6, 1, 2, 2))
    labels = rng.integers(0, 3, size=6)
    path = tmp_path / "samples.grtc"
    save_sample_set(path, images, labels, provenance="external:diffusion")
    out = load_external_samples(path)
    assert np.array_equal(out.images, images)
    assert np.array_equal(out.labels, labels)
    assert out.provenance == "external:diffusion"


def test_out_of_range_pixels_rejected(tmp_path):
    from genrobust.container import save_container

    path = tmp_path / "bad.grtc"
    save_container(path, {"images": np.full((2, 1, 2, 2), 1.5)})
    with pytest.raises(ValueError):
        load_external_samples(path)


def test_unlabeled_sample_set(tmp_path):
    path = tmp_path / "u.grtc"
    save_sample_set(path, np.zeros((3, 1, 2, 2)), None, provenance="gaussian-fit")
    out = load_external_samples(path)
    assert out.labels is None
    assert len(out) == 3
