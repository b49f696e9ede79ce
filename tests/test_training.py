"""Training loop tests: schedule, mixing, robust losses, reduction, early stop."""

import numpy as np
import pytest

from genrobust import autodiff as ad
from genrobust import models as mdl
from genrobust.attacks import AttackConfig, PerturbationSet
from genrobust.autodiff import ParamStore, Tensor
from genrobust.data import LabeledDataset, derive_rng
from genrobust.labeling import PseudoLabeledSet, train_nonrobust
from genrobust.models import ModelConfig, init
from genrobust.optim import NesterovSGD, cosine_lr
from genrobust.training import (
    EarlyStopConfig,
    TrainConfig,
    build_mixed_batches,
    mixed_counts,
    standard_at_loss,
    trades_loss,
    train,
)

from test_attacks import linear_model


def blob_dataset(n=300, seed=0, noise=0.05, flat=8, shape=(1, 2, 4)):
    rng = np.random.default_rng(seed)
    x0 = np.clip(0.35 + noise * rng.standard_normal((n // 2, flat)), 0, 1)
    x1 = np.clip(0.65 + noise * rng.standard_normal((n - n // 2, flat)), 0, 1)
    imgs = np.concatenate([x0, x1]).reshape(n, *shape)
    labels = np.concatenate(
        [np.zeros(n // 2, dtype=np.int64), np.ones(n - n // 2, dtype=np.int64)]
    )
    perm = rng.permutation(n)
    return LabeledDataset(imgs[perm], labels[perm])


MCFG = ModelConfig(kind="mlp", input_shape=(1, 2, 4), num_classes=2, hidden=(32,), seed=0)


def quick_config(**over):
    base = dict(
        alpha=1.0,
        epochs=6,
        batch_size=32,
        lr0=0.05,
        perturbation=PerturbationSet("linf", 0.05),
        inner_attack=AttackConfig(
            steps=5, step_size=0.1, inner_optimizer="adam",
            objective="kl-vs-clean", random_start=True,
        ),
        early_stop=EarlyStopConfig(validation_size=40, pgd_steps=10, eval_every=3),
        seed=0,
    )
    base.update(over)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# cosine schedule


def test_cosine_endpoints():
    assert cosine_lr(0, 100, 0.4) == 0.4
    assert abs(cosine_lr(100, 100, 0.4)) < 1e-17
    assert abs(cosine_lr(50, 100, 0.4) - 0.2) < 1e-12


def test_cosine_domain():
    with pytest.raises(ValueError):
        cosine_lr(5, 0, 0.1)
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 0.1)
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 0.1)


# ---------------------------------------------------------------------------
# batch mixing


def test_mixed_counts_exact():
    assert mixed_counts(0.8, 10) == (8, 2)
    assert mixed_counts(1.0, 7) == (7, 0)
    assert mixed_counts(0.0, 7) == (0, 7)
    assert mixed_counts(0.5, 5) == (3, 2)  # half-up rounding


def _gen_pool(n=50, seed=1):
    rng = np.random.default_rng(seed)
    return PseudoLabeledSet(
        images=rng.uniform(size=(n, 1, 2, 4)),
        pseudo_labels=rng.integers(0, 2, size=n),
        scores=rng.uniform(0.5, 1.0, size=n),
    )


def _rows_of(images, source):
    """Index into source.images of each image row (-1 if absent)."""
    flat = source.images.reshape(len(source), -1)
    out = []
    for row in images.reshape(len(images), -1):
        hits = np.flatnonzero((flat == row).all(axis=1))
        out.append(int(hits[0]) if hits.size else -1)
    return np.array(out)


def _epoch(ds, gen, alpha, batch_size, steps, seed=0):
    return list(
        build_mixed_batches(
            ds, gen, alpha, batch_size, steps,
            derive_rng("mix-shuffle", seed), derive_rng("mix-gen", seed),
        )
    )


def test_build_mixed_batch_counts():
    ds = blob_dataset(60)
    gen = _gen_pool()
    (x, y), = _epoch(ds, gen, alpha=0.8, batch_size=10, steps=1)
    assert x.shape[0] == 10 and y.shape[0] == 10
    orig_rows, gen_rows = _rows_of(x[:8], ds), _rows_of(x[8:], gen)
    assert np.all(orig_rows >= 0) and np.all(gen_rows >= 0)  # 8 originals, then 2 generated
    assert np.unique(orig_rows).size == 8  # originals drawn without replacement
    assert np.array_equal(y, np.concatenate([ds.labels[orig_rows], gen.pseudo_labels[gen_rows]]))


def test_build_mixed_batch_pure_cases():
    ds = blob_dataset(40)
    gen = _gen_pool()
    (x, y), = _epoch(ds, gen, alpha=1.0, batch_size=8, steps=1, seed=1)
    rows = _rows_of(x, ds)
    assert np.all(rows >= 0) and np.array_equal(y, ds.labels[rows])
    (x, y), = _epoch(ds, gen, alpha=0.0, batch_size=8, steps=1, seed=1)
    rows = _rows_of(x, gen)
    assert np.all(rows >= 0) and np.array_equal(y, gen.pseudo_labels[rows])


def test_build_mixed_batch_missing_sources():
    gen = _gen_pool()
    with pytest.raises(ValueError):
        _epoch(None, gen, alpha=0.5, batch_size=8, steps=1, seed=2)
    ds = blob_dataset(40)
    with pytest.raises(ValueError):
        _epoch(ds, None, alpha=0.5, batch_size=8, steps=1, seed=3)
    with pytest.raises(ValueError):
        _epoch(blob_dataset(3), gen, alpha=0.5, batch_size=8, steps=1, seed=4)


def test_build_mixed_batch_epoch_shuffle_wraps():
    """Originals walk one permutation per epoch and wrap past its end."""
    ds = blob_dataset(10)
    batches = _epoch(ds, None, alpha=1.0, batch_size=4, steps=3)
    order = derive_rng("mix-shuffle", 0).permutation(10)
    walked = np.concatenate([_rows_of(x, ds) for x, _ in batches])
    assert np.array_equal(walked, np.concatenate([order, order[:2]]))


# ---------------------------------------------------------------------------
# robust losses


def _loss_setup(seed=0):
    ds = blob_dataset(32, seed=seed)
    model = init(MCFG)
    return model, ds.images, ds.labels


def test_trades_beta_zero_is_clean_ce():
    model, x, y = _loss_setup()
    inner = AttackConfig(steps=5, step_size=0.1, objective="kl-vs-clean")
    pset = PerturbationSet("linf", 0.05)
    loss = trades_loss(model, x, y, 0.0, inner, pset)
    clean = ad.softmax_cross_entropy(mdl.forward_logits(model, x), y)
    assert loss.item() == clean.item()


def test_trades_epsilon_zero_is_clean_ce_any_beta():
    model, x, y = _loss_setup(1)
    inner = AttackConfig(steps=5, step_size=0.1, objective="kl-vs-clean")
    loss = trades_loss(model, x, y, 6.0, inner, PerturbationSet("linf", 0.0))
    clean = ad.softmax_cross_entropy(mdl.forward_logits(model, x), y)
    assert loss.item() == clean.item()


def test_trades_at_least_clean_ce():
    model, x, y = _loss_setup(2)
    inner = AttackConfig(steps=5, step_size=0.1, inner_optimizer="adam", objective="kl-vs-clean")
    loss = trades_loss(model, x, y, 6.0, inner, PerturbationSet("linf", 0.1))
    clean = ad.softmax_cross_entropy(mdl.forward_logits(model, x), y)
    assert loss.item() >= clean.item() - 1e-12


def test_standard_at_epsilon_zero_is_clean_ce():
    model, x, y = _loss_setup(3)
    inner = AttackConfig(steps=5, step_size=0.1)
    loss = standard_at_loss(model, x, y, inner, PerturbationSet("linf", 0.0))
    clean = ad.softmax_cross_entropy(mdl.forward_logits(model, x), y)
    assert loss.item() == clean.item()


def test_standard_at_ascent_from_zero_start():
    model, x, y = _loss_setup(4)
    inner = AttackConfig(steps=8, step_size=0.02, random_start=False)
    loss = standard_at_loss(model, x, y, inner, PerturbationSet("linf", 0.08))
    clean = ad.softmax_cross_entropy(mdl.forward_logits(model, x), y)
    assert loss.item() >= clean.item() - 1e-12


def test_standard_at_matches_linear_closed_form():
    """Worst-case CE of a linear model: margin shrinks by eps * ||dw||_1."""
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    model = linear_model(w, b)
    x = rng.uniform(0.3, 0.7, size=(8, 1, 1, 4))
    y = rng.integers(0, 2, size=8)
    eps = 0.04
    pset = PerturbationSet("linf", eps)
    inner = AttackConfig(steps=1, step_size=eps, random_start=False)
    got = standard_at_loss(model, x, y, inner, pset).item()

    logits = x.reshape(8, 4) @ w + b
    margin = logits[np.arange(8), y] - logits[np.arange(8), 1 - y]
    dw_l1 = np.abs(w[:, 0] - w[:, 1]).sum()
    worst_margin = margin - eps * dw_l1
    expected = float(np.mean(np.log1p(np.exp(-worst_margin))))
    assert abs(got - expected) < 1e-8


# ---------------------------------------------------------------------------
# optimizer invariants


def test_weight_decay_exact_shrink():
    store = ParamStore()
    rng = np.random.default_rng(6)
    store.create("w", rng.normal(size=(3, 3)))
    store.create("b", rng.normal(size=3))
    before = {n: t.data.copy() for n, t in store.items()}
    opt = NesterovSGD(store, momentum=0.9, weight_decay=0.01)
    lr = 0.5
    opt.step({n: np.zeros(t.shape) for n, t in store.items()}, lr)
    for name in store.names():
        assert np.array_equal(store[name].data, before[name] * (1.0 - lr * 0.01))


# ---------------------------------------------------------------------------
# the training loop


def test_zero_epochs_returns_input_model():
    ds = blob_dataset(80)
    model = init(MCFG)
    out, report = train(quick_config(epochs=0), ds, None, model)
    for name, t in model.ema_params.items():
        assert np.array_equal(out.params[name].data, t.data)
    assert report.rows == []


def test_train_deterministic():
    ds = blob_dataset(100)
    a, _ = train(quick_config(epochs=2), ds, None, init(MCFG))
    b, _ = train(quick_config(epochs=2), ds, None, init(MCFG))
    for name, t in a.params.items():
        assert np.array_equal(t.data, b.params[name].data)


def test_alpha_one_bit_identical_to_missing_gen():
    ds = blob_dataset(100, seed=7)
    gen = _gen_pool(40, seed=8)
    cfg = quick_config(epochs=3, alpha=1.0)
    with_gen, rep_a = train(cfg, ds, gen, init(MCFG))
    without, rep_b = train(cfg, ds, None, init(MCFG))
    for name, t in with_gen.params.items():
        assert np.array_equal(t.data, without.params[name].data)
    assert [r["train_loss"] for r in rep_a.rows] == [r["train_loss"] for r in rep_b.rows]


def test_train_does_not_mutate_input_model():
    ds = blob_dataset(80, seed=9)
    model = init(MCFG)
    snapshot = {n: t.data.copy() for n, t in model.params.items()}
    train(quick_config(epochs=1), ds, None, model)
    for name, t in model.params.items():
        assert np.array_equal(t.data, snapshot[name])


def test_early_stopping_tracks_max():
    ds = blob_dataset(200, seed=10)
    _, report = train(quick_config(epochs=6, early_stop=EarlyStopConfig(40, 10, 2)), ds, None, init(MCFG))
    assert report.rows
    best = max(r["val_robust"] for r in report.rows)
    assert report.best_val_robust == best
    best_steps = [r["step"] for r in report.rows if r["val_robust"] == best]
    assert report.best_step == best_steps[0]


def test_alpha_below_one_requires_gen():
    ds = blob_dataset(60, seed=11)
    with pytest.raises(ValueError):
        train(quick_config(alpha=0.5), ds, None, init(MCFG))


def test_separable_toy_reaches_high_robust_accuracy():
    """5-seed median of final validation robust accuracy on an easy task."""
    finals = []
    for seed in range(5):
        ds = blob_dataset(240, seed=20 + seed)
        cfg = quick_config(
            epochs=20, lr0=0.1, seed=seed,
            early_stop=EarlyStopConfig(validation_size=48, pgd_steps=20, eval_every=5),
        )
        mcfg = ModelConfig(kind="mlp", input_shape=(1, 2, 4), num_classes=2, hidden=(32,), seed=seed)
        _, report = train(cfg, ds, None, init(mcfg))
        finals.append(report.best_val_robust)
    assert float(np.median(finals)) >= 0.9


def test_trades_report_csv_shape():
    ds = blob_dataset(80, seed=12)
    _, report = train(quick_config(epochs=3), ds, None, init(MCFG))
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "step,lr,train_loss,val_clean,val_robust"
    assert len(lines) == len(report.rows) + 1


def test_single_precision_trains_in_float32():
    ds = blob_dataset(100, seed=13)
    single = ModelConfig(
        kind="mlp", input_shape=(1, 2, 4), num_classes=2, hidden=(16,), seed=0, precision="single"
    )
    robust, report = train(quick_config(epochs=2), ds, None, init(single))
    labeler = train_nonrobust(ds, single, epochs=2, batch_size=32)
    assert report.stopped_step > 0
    for model in (robust, labeler):
        for store in (model.params, model.ema_params):
            for name, t in store.items():
                assert t.dtype == np.float32, name


def test_validation_equals_stage1_pgd_on_the_ema_weights():
    """One evaluation (eval_every == epochs) gives the figures of one restart
    of sign-gradient cross-entropy PGD over 128-row chunks on the EMA
    weights, counted as surviving examples, and of plain clean accuracy."""
    from genrobust.attacks import pgd

    ds = blob_dataset(300, seed=14)
    cfg = quick_config(
        epochs=3, early_stop=EarlyStopConfig(validation_size=200, pgd_steps=10, eval_every=3)
    )
    model, report = train(cfg, ds, None, init(MCFG))
    assert len(report.rows) == 1
    val = ds.subset(np.arange(100, 300))
    steps, eps = cfg.early_stop.pgd_steps, cfg.perturbation.epsilon
    attack = AttackConfig(
        steps=steps, step_size=max(2.5 * eps / steps, 1e-12), inner_optimizer="sign-sgd",
        restarts=1, objective="cross-entropy", random_start=True, seed=cfg.seed,
    )
    survived = 0
    for s in range(0, len(val), 128):
        res = pgd(
            model, val.images[s : s + 128], val.labels[s : s + 128], cfg.perturbation, attack,
            example_ids=np.arange(s, min(s + 128, len(val))), use_ema=True,
        )
        survived += int(np.count_nonzero(~res.success))
    assert report.rows[0]["val_robust"] == survived / len(val)
    assert report.rows[0]["val_clean"] == mdl.accuracy(model, val, use_ema=True)
