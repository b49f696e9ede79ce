"""Experiment machinery: synthetic data, stats helpers, sweep plumbing."""

import numpy as np
import pytest

from genrobust import experiments as exp
from genrobust.attacks import AttackConfig, CascadeConfig, PerturbationSet
from genrobust.data import derive_rng
from genrobust.experiments import (
    SyntheticDatasetSpec,
    _geometry,
    _run_sweep,
    make_synthetic_dataset,
    prepare_sources,
    run_mixing_sweep,
    sample_from_spec,
    sign_test_pvalue,
    spearman_rank_corr,
)
from genrobust.models import ModelConfig
from genrobust.training import EarlyStopConfig, TrainConfig


SPEC = SyntheticDatasetSpec(
    num_classes=3, image_shape=(1, 4, 4), family="gaussian", latent_dim=4,
    class_separation=3.0, noise_scale=0.4, train_size=90, test_size=60,
    holdout_size=30, seed=7,
)


# ---------------------------------------------------------------------------
# synthetic datasets


def test_dataset_deterministic():
    a = make_synthetic_dataset(SPEC)
    b = make_synthetic_dataset(SPEC)
    for da, db in zip(a, b):
        assert np.array_equal(da.images, db.images)
        assert np.array_equal(da.labels, db.labels)


def test_dataset_class_histogram_matches_spec():
    train, test, holdout = make_synthetic_dataset(SPEC)
    assert np.array_equal(np.sort(train.class_counts(3)), [30, 30, 30])
    assert np.array_equal(np.sort(test.class_counts(3)), [20, 20, 20])
    assert np.array_equal(np.sort(holdout.class_counts(3)), [10, 10, 10])


def test_dataset_uneven_total_balanced_remainder():
    spec = SyntheticDatasetSpec(
        num_classes=4, image_shape=(1, 2, 2), latent_dim=2, train_size=10,
        test_size=6, holdout_size=5, seed=1,
    )
    train, _, _ = make_synthetic_dataset(spec)
    counts = np.sort(train.class_counts(4))
    assert counts.sum() == 10 and counts.max() - counts.min() <= 1


def test_dataset_pixels_in_range():
    train, _, _ = make_synthetic_dataset(SPEC)
    assert train.images.min() >= 0.0 and train.images.max() <= 1.0


def test_splits_are_independent_draws():
    train, test, _ = make_synthetic_dataset(SPEC)
    assert not np.array_equal(train.images[: len(test)], test.images)


def test_bayes_rule_on_separated_two_class_spec():
    """A closed-form Gaussian discriminant reaches >= 0.99 on 6-sigma data."""
    spec = SyntheticDatasetSpec(
        num_classes=2, image_shape=(1, 4, 4), family="gaussian", latent_dim=3,
        class_separation=3.0, noise_scale=0.5, train_size=100, test_size=2000,
        holdout_size=10, seed=0,
    )
    geom = _geometry(spec)
    d = np.linalg.norm(geom.class_means[0] - geom.class_means[1])
    assert d / spec.noise_scale >= 6.0  # premise of the example
    _, test, _ = make_synthetic_dataset(spec)
    flat = test.images.reshape(len(test), -1)
    z = (flat - 0.5) / spec.pixel_scale @ geom.basis
    d0 = ((z - geom.class_means[0]) ** 2).sum(axis=1)
    d1 = ((z - geom.class_means[1]) ** 2).sum(axis=1)
    pred = (d1 < d0).astype(np.int64)
    assert np.mean(pred == test.labels) >= 0.99


def test_sample_from_spec_matches_dataset_distribution():
    imgs = sample_from_spec(SPEC, 0, 5, derive_rng("x", 0))
    assert imgs.shape == (5, 1, 4, 4)
    assert imgs.min() >= 0.0 and imgs.max() <= 1.0


def test_warped_family_departs_from_gaussian():
    spec = SyntheticDatasetSpec(
        num_classes=2, image_shape=(1, 4, 4), family="warped-mixture", latent_dim=4,
        mixture_modes=2, mode_spread=3.0, warp_strength=1.0, train_size=400,
        test_size=50, holdout_size=10, seed=5,
    )
    train, _, _ = make_synthetic_dataset(spec)
    flat = train.images[train.labels == 0].reshape(-1, 16)
    geom = _geometry(spec)
    z = (flat - 0.5) / spec.pixel_scale @ geom.basis
    # bimodal latents have excess kurtosis far from gaussian along some axis
    centered = z - z.mean(axis=0)
    kurts = (centered**4).mean(axis=0) / (centered**2).mean(axis=0) ** 2
    assert np.abs(kurts - 3.0).max() > 0.5


# ---------------------------------------------------------------------------
# statistics


def test_spearman_perfect_and_reversed():
    assert spearman_rank_corr([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman_rank_corr([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)


def test_spearman_single_adjacent_swap():
    rho = spearman_rank_corr([0, 1, 2, 3], [0.1, 0.3, 0.2, 0.4])
    assert abs(rho - 0.8) < 1e-12


def test_spearman_ties_average_rank():
    rho = spearman_rank_corr([1, 2, 3, 4], [5, 5, 6, 7])
    assert 0.9 < rho <= 1.0


def test_sign_test_exact_values():
    assert sign_test_pvalue([1, 1, 1, 1, 1]) == pytest.approx(1 / 32)
    assert sign_test_pvalue([1, 1, 1, 1, -1]) == pytest.approx(6 / 32)
    assert sign_test_pvalue([]) == 1.0
    assert sign_test_pvalue([0.0, 0.0]) == 1.0  # zeros dropped


def test_sign_test_matches_binomial_tail():
    diffs = [1, 1, 1, -1, 1, 1, -1, 1, 1, 1]  # 8 wins of 10
    from math import comb

    expected = sum(comb(10, k) for k in range(8, 11)) / 2**10
    assert sign_test_pvalue(diffs) == pytest.approx(expected)


# ---------------------------------------------------------------------------
# sweep plumbing


def test_run_sweep_resumable(tmp_path):
    calls = {"n": 0}

    def cell(axis, seed, cell_seed):
        calls["n"] += 1
        return {"robust_acc": float(axis) + seed * 0.01, "clean_acc": 0.9}

    out = str(tmp_path / "sweepdir")
    first = _run_sweep("alpha", [0.5, 1.0], [0, 1], cell, out, exp_seed=0, config_hash="h")
    assert calls["n"] == 4
    second = _run_sweep("alpha", [0.5, 1.0], [0, 1], cell, out, exp_seed=0, config_hash="h")
    assert calls["n"] == 4  # nothing recomputed
    assert [r["robust_acc"] for r in first.rows] == [r["robust_acc"] for r in second.rows]
    assert (tmp_path / "sweepdir" / "cells.csv").exists()
    assert (tmp_path / "sweepdir" / "summary.csv").exists()


def test_run_sweep_records_failures_and_continues(tmp_path):
    def cell(axis, seed, cell_seed):
        if axis == "bad":
            raise RuntimeError("boom")
        return {"robust_acc": 1.0}

    res = _run_sweep("x", ["good", "bad"], [0], cell, str(tmp_path / "s"), 0, "h")
    rows = {r["axis"]: r for r in res.rows}
    assert rows["good"]["robust_acc"] == 1.0
    assert "error" in rows["bad"]


def test_run_sweep_retries_failed_cells(tmp_path):
    """A cell that failed once is recomputed on resume, not handed back."""
    calls = {"n": 0}

    def flaky(axis, seed, cell_seed):
        calls["n"] += 1
        if axis == 1.0 and calls["n"] <= 2:
            raise RuntimeError("transient")
        return {"robust_acc": float(axis)}

    out = str(tmp_path / "s")
    first = _run_sweep("alpha", [0.5, 1.0], [0], flaky, out, exp_seed=0, config_hash="h")
    assert "error" in first.rows[1]
    second = _run_sweep("alpha", [0.5, 1.0], [0], flaky, out, exp_seed=0, config_hash="h")
    assert calls["n"] == 3  # only the failed cell ran again
    assert [r["robust_acc"] for r in second.rows] == [0.5, 1.0]
    assert all("error" not in r for r in second.rows)


def test_run_sweep_recomputes_cells_of_another_config(tmp_path):
    calls = {"n": 0}

    def cell(axis, seed, cell_seed):
        calls["n"] += 1
        return {"robust_acc": float(axis)}

    out = str(tmp_path / "s")
    _run_sweep("alpha", [0.5], [0, 1], cell, out, exp_seed=0, config_hash="hashA")
    resumed = _run_sweep("alpha", [0.5], [0, 1], cell, out, exp_seed=0, config_hash="hashA")
    assert calls["n"] == 2
    assert set(resumed.rows[0]) == {"axis", "seed", "robust_acc"}
    _run_sweep("alpha", [0.5], [0, 1], cell, out, exp_seed=0, config_hash="hashB")
    assert calls["n"] == 4


def test_cell_seed_shared_across_axis_values():
    assert exp._cell_seed(3, "alpha=0.5", 7) == exp._cell_seed(3, "alpha=1.0", 7)
    assert exp._cell_seed(3, "alpha=0.5", 7) != exp._cell_seed(3, "alpha=0.5", 8)
    assert exp._cell_seed(4, "alpha=0.5", 7) != exp._cell_seed(3, "alpha=0.5", 7)


def test_sweep_result_csv():
    res = exp.SweepResult(axis_name="alpha", config_hash="abc")
    res.rows = [
        {"axis": 0.5, "seed": 0, "robust_acc": 0.4, "clean_acc": 0.9},
        {"axis": 0.5, "seed": 1, "robust_acc": 0.5, "clean_acc": 0.92},
    ]
    text = res.to_csv()
    assert text.splitlines()[0] == "axis,seed,robust_acc,clean_acc"
    summary = res.summary_csv()
    assert "0.45" in summary  # mean robust over the two seeds


# ---------------------------------------------------------------------------
# end-to-end smoke at miniature scale


def _tiny_setup():
    lab_cfg = ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=3, hidden=(16,), seed=0)
    src = prepare_sources(SPEC, lab_cfg, labeler_epochs=25, pool_per_class=40, pca_components=4)
    base = TrainConfig(
        alpha=1.0, beta=1.0, epochs=2, batch_size=16, lr0=0.05,
        perturbation=PerturbationSet("linf", 0.02),
        inner_attack=AttackConfig(steps=2, step_size=0.1, inner_optimizer="adam",
                                  objective="kl-vs-clean", random_start=True),
        early_stop=EarlyStopConfig(validation_size=15, pgd_steps=3, eval_every=2),
        seed=0,
    )
    mcfg = ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=3, hidden=(16,), seed=0)
    cascade = CascadeConfig(stage1_steps=2, stage1_restarts=1, stage2_steps=2,
                            stage2_restarts=1, top_k=1, inner_optimizer="sign-sgd")
    return src, base, mcfg, cascade


def test_mixing_sweep_smoke():
    src, base, mcfg, cascade = _tiny_setup()
    res = run_mixing_sweep(base, mcfg, alphas=[1.0, 0.5], seeds=[0], sources=src,
                           cascade=cascade, eval_size=30)
    assert len(res.rows) == 2
    for row in res.rows:
        assert "error" not in row
        assert 0.0 <= row["robust_acc"] <= 1.0
        assert 0.0 <= row["clean_acc"] <= 1.0


def test_mixing_sweep_grid_shape():
    src, base, mcfg, cascade = _tiny_setup()
    res = run_mixing_sweep(base, mcfg, alphas=[1.0], seeds=[0, 1, 2], sources=src,
                           cascade=cascade, eval_size=20)
    assert len(res.rows) == 3
    assert res.axis_values() == [1.0]


def test_condition1_probe_orders_levels():
    src, base, mcfg, cascade = _tiny_setup()
    with pytest.raises(ValueError):
        exp.run_condition1_probe(base, mcfg, accuracy_levels=[0.9, 0.5], seeds=[0], sources=src)


def test_scaling_study_rows_ordered():
    src, base, mcfg, cascade = _tiny_setup()
    gen_holdout = exp.sample_generated_holdout(src, per_class=10)
    res = exp.run_scaling_study(base, mcfg, sample_counts=[10, 30], seeds=[0], sources=src,
                                gen_holdout=gen_holdout, cascade=cascade, eval_size=20)
    assert [r["axis"] for r in res.rows] == [10, 30]
    for row in res.rows:
        assert {"robust_acc", "gen_robust_acc", "gap"} <= set(row)


SWEEPS = {
    "mixing": lambda src, base, mcfg, **kw: exp.run_mixing_sweep(
        base, mcfg, alphas=[1.0], seeds=[0], sources=src, **kw),
    "condition1": lambda src, base, mcfg, **kw: exp.run_condition1_probe(
        base, mcfg, accuracy_levels=[0.9], seeds=[0], sources=src, **kw),
    "condition23": lambda src, base, mcfg, **kw: exp.run_condition23_probe(
        base, mcfg, "gauss_fraction", [0.5], seeds=[0], sources=src, true_test=src.test,
        true_pool=src.pool, **kw),
    "scaling": lambda src, base, mcfg, **kw: exp.run_scaling_study(
        base, mcfg, sample_counts=[10], seeds=[0], sources=src,
        gen_holdout=exp.sample_generated_holdout(src, per_class=5), **kw),
}


@pytest.mark.parametrize("eval_size", [0, -3])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweeps_reject_an_eval_size_below_one_before_any_cell(sweep, eval_size, tmp_path, monkeypatch):
    """An empty evaluation subset would report accuracies of 0.0: each sweep
    raises first, before a cell trains or a file is written."""
    src, base, mcfg, cascade = _tiny_setup()

    def no_training(*args, **kwargs):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(exp, "_train_cell", no_training)
    out_dir = tmp_path / "sweep"
    with pytest.raises(ValueError, match="eval_size"):
        SWEEPS[sweep](src, base, mcfg, cascade=cascade, eval_size=eval_size, out_dir=str(out_dir))
    assert not out_dir.exists()


def test_premixed_pool_composition():
    src, _, _, _ = _tiny_setup()
    rng = derive_rng("premix", 0)
    pool = exp._premixed_pool(src.pool, src.pool, true_fraction=0.25, covered_classes=None,
                              num_classes=3, rng=rng, total=40)
    assert len(pool) == 40


def test_premixed_pool_zero_coverage_backfills():
    src, _, _, _ = _tiny_setup()
    rng = derive_rng("premix", 1)
    pool = exp._premixed_pool(src.pool, src.pool, true_fraction=0.25, covered_classes=0,
                              num_classes=3, rng=rng, total=40)
    assert len(pool) == 40  # quota filled with mismatched samples


def test_sample_true_sets_equals_the_inline_cli_construction():
    """The condition-2/3 true sets keep the arrays the CLI once built inline."""
    from genrobust.data import LabeledDataset
    from genrobust.labeling import pseudo_label

    src, _, _, _ = _tiny_setup()
    true_test, true_pool = exp.sample_true_sets(src, per_class=7, pool_per_class=11)

    spec = src.spec
    test_imgs = np.concatenate(
        [sample_from_spec(spec, c, 7, derive_rng("cli-true-test", spec.seed, c))
         for c in range(spec.num_classes)]
    )
    test_labels = np.concatenate([np.full(7, c, dtype=np.int64) for c in range(spec.num_classes)])
    ref_test = LabeledDataset(test_imgs, test_labels)
    true_imgs = np.concatenate(
        [sample_from_spec(spec, c, 11, derive_rng("cli-true-pool", spec.seed, c))
         for c in range(spec.num_classes)]
    )
    ref_pool = pseudo_label(src.labeler, true_imgs, labeler_id="true-generator")

    for got, want in ((true_test.images, ref_test.images), (true_test.labels, ref_test.labels),
                      (true_pool.images, ref_pool.images), (true_pool.pseudo_labels, ref_pool.pseudo_labels),
                      (true_pool.scores, ref_pool.scores)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert true_pool.labeler_id == ref_pool.labeler_id == "true-generator"
