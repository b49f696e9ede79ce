"""Labeling pipeline tests: training, pseudo-labels, filtering, degraded labelers."""

import numpy as np
import pytest

from genrobust import models as mdl
from genrobust.data import LabeledDataset, derive_rng
from genrobust.labeling import (
    PseudoLabeledSet,
    filter_topk_per_class,
    load_pseudo_labeled,
    make_degraded_labeler,
    pseudo_label,
    save_pseudo_labeled,
    train_nonrobust,
)
from genrobust.models import ModelConfig


def blob_dataset(n=200, d=(1, 2, 4), seed=0, gap=0.3, noise=0.04):
    rng = np.random.default_rng(seed)
    half = n // 2
    flat = np.prod(d)
    x0 = np.clip(0.5 - gap / 2 + noise * rng.standard_normal((half, flat)), 0, 1)
    x1 = np.clip(0.5 + gap / 2 + noise * rng.standard_normal((n - half, flat)), 0, 1)
    imgs = np.concatenate([x0, x1]).reshape(n, *d)
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    perm = rng.permutation(n)
    return LabeledDataset(imgs[perm], labels[perm])


CFG = ModelConfig(kind="mlp", input_shape=(1, 2, 4), num_classes=2, hidden=(16,), seed=3)


def test_separable_set_trains_to_99():
    ds = blob_dataset(200)
    model = train_nonrobust(ds, CFG, epochs=50)
    assert mdl.accuracy(model, ds) >= 0.99


def test_zero_epochs_returns_initialized_model():
    ds = blob_dataset(50)
    model = train_nonrobust(ds, CFG, epochs=0)
    fresh = mdl.init(CFG, rng=derive_rng("nonrobust-init", CFG.seed))
    for name, t in fresh.params.items():
        assert np.array_equal(model.params[name].data, t.data)


def test_training_deterministic():
    ds = blob_dataset(80)
    a = train_nonrobust(ds, CFG, epochs=5)
    b = train_nonrobust(ds, CFG, epochs=5)
    for name, t in a.params.items():
        assert np.array_equal(t.data, b.params[name].data)


def test_empty_dataset_rejected():
    empty = LabeledDataset(np.zeros((0, 1, 2, 4)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        train_nonrobust(empty, CFG, epochs=1)


# ---------------------------------------------------------------------------
# pseudo_label


def test_pseudo_labels_match_train_labels_of_perfect_labeler():
    ds = blob_dataset(150)
    labeler = train_nonrobust(ds, CFG, epochs=50)
    assert mdl.accuracy(labeler, ds) == 1.0
    pset = pseudo_label(labeler, ds.images)
    assert np.array_equal(pset.pseudo_labels, ds.labels)


def test_constant_logit_labeler():
    from genrobust.autodiff import Tensor

    cfg = ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=5, hidden=(4,), seed=0)
    m = mdl.init(cfg)
    for name in m.params.names():
        m.params.assign(name, Tensor(np.zeros(m.params[name].shape)))
    m.ema_params = m.params.copy()
    images = np.random.default_rng(1).uniform(size=(9, 1, 2, 2))
    pset = pseudo_label(m, images)
    assert np.all(pset.pseudo_labels == 0)
    assert np.allclose(pset.scores, 1.0 / 5.0)


def test_scores_bounded():
    ds = blob_dataset(60)
    labeler = train_nonrobust(ds, CFG, epochs=10)
    pset = pseudo_label(labeler, ds.images)
    assert np.all(pset.scores >= 1.0 / 2.0 - 1e-12)
    assert np.all(pset.scores <= 1.0 + 1e-12)


def test_pseudo_label_idempotent():
    ds = blob_dataset(60, seed=5)
    labeler = train_nonrobust(ds, CFG, epochs=10)
    first = pseudo_label(labeler, ds.images)
    second = pseudo_label(labeler, first.images)
    assert np.array_equal(first.pseudo_labels, second.pseudo_labels)
    assert np.array_equal(first.scores, second.scores)


def test_max_logit_score_flag():
    ds = blob_dataset(40, seed=6)
    labeler = train_nonrobust(ds, CFG, epochs=5)
    pset = pseudo_label(labeler, ds.images, score_kind="max-logit")
    logits = mdl.forward_logits(labeler, ds.images).data
    assert np.allclose(pset.scores, logits.max(axis=1))


# ---------------------------------------------------------------------------
# filter_topk_per_class


def _pset(labels, scores):
    n = len(labels)
    images = np.linspace(0, 1, n * 4).reshape(n, 1, 2, 2)
    return PseudoLabeledSet(
        images=images,
        pseudo_labels=np.asarray(labels, dtype=np.int64),
        scores=np.asarray(scores, dtype=np.float64),
    )


def test_topk_keeps_highest_per_class():
    pset = _pset([0, 0, 1], [0.9, 0.8, 0.7])
    out = filter_topk_per_class(pset, 1)
    assert sorted(out.scores.tolist()) == [0.7, 0.9]


def test_topk_exact_count_is_identity():
    pset = _pset([0, 1, 0, 1], [0.5, 0.6, 0.7, 0.8])
    out = filter_topk_per_class(pset, 2)
    assert len(out) == 4
    assert np.array_equal(np.sort(out.scores), np.sort(pset.scores))


def test_topk_deficit_error_lists_classes():
    pset = _pset([0, 0, 1], [0.9, 0.8, 0.7])
    with pytest.raises(ValueError, match="class 1"):
        filter_topk_per_class(pset, 2)


def test_topk_tie_keeps_earlier_index():
    pset = _pset([0, 0, 0], [0.5, 0.5, 0.5])
    out = filter_topk_per_class(pset, 2)
    assert np.array_equal(out.images, pset.images[[0, 1]])


def test_topk_matches_sort_oracle():
    rng = np.random.default_rng(7)
    n = 1000
    labels = rng.integers(0, 4, size=n)
    scores = np.round(rng.uniform(size=n), 2)  # coarse grid forces ties
    pset = _pset(labels, scores)
    k = 50
    counts = np.bincount(labels, minlength=4)
    if counts.min() < k:  # regenerate will not happen with this seed; guard anyway
        pytest.skip("unlucky class balance")
    out = filter_topk_per_class(pset, k)
    # oracle: per class, sort (score desc, index asc) and take first k
    expected = []
    for c in range(4):
        items = [(float(-scores[i]), i) for i in range(n) if labels[i] == c]
        items.sort()
        expected.extend(i for _, i in items[:k])
    expected = np.sort(np.asarray(expected))
    got = np.flatnonzero(np.isin(np.arange(n), expected))
    assert np.array_equal(np.sort(got), expected)
    assert len(out) == 4 * k
    hist = np.bincount(out.pseudo_labels, minlength=4)
    assert np.all(hist == k)
    # min kept score >= max discarded score per class
    for c in range(4):
        kept = out.scores[out.pseudo_labels == c]
        discarded_mask = (labels == c) & ~np.isin(np.arange(n), expected)
        if discarded_mask.any():
            assert kept.min() >= scores[discarded_mask].max() - 1e-12


# ---------------------------------------------------------------------------
# degraded labelers


def four_class_dataset(n=600, seed=0):
    rng = np.random.default_rng(seed)
    means = [0.2, 0.4, 0.6, 0.8]
    xs, ys = [], []
    for c, mv in enumerate(means):
        xs.append(np.clip(mv + 0.05 * rng.standard_normal((n // 4, 16)), 0, 1))
        ys.append(np.full(n // 4, c, dtype=np.int64))
    imgs = np.concatenate(xs).reshape(n, 1, 4, 4)
    labels = np.concatenate(ys)
    perm = rng.permutation(n)
    return LabeledDataset(imgs[perm], labels[perm])


DEG_CFG = ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=4, hidden=(256,), seed=1)


def test_degraded_target_one_is_plain_training():
    ds = four_class_dataset()
    labeler, acc = make_degraded_labeler(ds, 1.0, DEG_CFG)
    assert acc >= 0.99


def test_degraded_mid_target_hits_tolerance():
    ds = four_class_dataset()
    labeler, acc = make_degraded_labeler(ds, 0.7, DEG_CFG, tolerance=0.03)
    assert abs(acc - 0.7) <= 0.03


def test_degraded_near_chance_target():
    ds = four_class_dataset()
    labeler, acc = make_degraded_labeler(ds, 0.35, DEG_CFG, tolerance=0.03)
    assert abs(acc - 0.35) <= 0.03


def test_degraded_chance_target_rejected():
    ds = four_class_dataset()
    with pytest.raises(ValueError):
        make_degraded_labeler(ds, 0.25, DEG_CFG)


# ---------------------------------------------------------------------------
# persistence


def test_pseudo_labeled_round_trip(tmp_path):
    ds = blob_dataset(30, seed=9)
    labeler = train_nonrobust(ds, CFG, epochs=5)
    pset = pseudo_label(labeler, ds.images, labeler_id="labeler-v1")
    path = tmp_path / "p.grtc"
    save_pseudo_labeled(path, pset, config_hash="cafe")
    out = load_pseudo_labeled(path)
    assert np.array_equal(out.images, pset.images)
    assert np.array_equal(out.pseudo_labels, pset.pseudo_labels)
    assert np.array_equal(out.scores, pset.scores)
    assert out.labeler_id == "labeler-v1"


def test_load_pseudo_labeled_rejects_another_kind_of_container(tmp_path):
    from genrobust.container import save_container

    path = tmp_path / "generator.grtc"
    save_container(path, {"pca.mean": np.zeros(4)})
    with pytest.raises(ValueError, match=r"generator\.grtc: no entry 'images'"):
        load_pseudo_labeled(path)
