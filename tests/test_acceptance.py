"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The trend criteria (7-10) retrain dozens of desk-scale models; the whole
module is sized to finish in well under the stated runtime limits on a
laptop CPU, single-threaded.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from genrobust import autodiff as ad
from genrobust import models as mdl
from genrobust.attacks import (
    AttackConfig,
    CascadeConfig,
    PerturbationSet,
    attack_cascade,
    pgd,
    project,
)
from genrobust.autodiff import Tape, Tensor, backward
from genrobust.container import ContainerError, load_container, save_container
from genrobust.data import LabeledDataset, derive_rng
from genrobust.diagnostics import complementarity_coverage, fid, uniform_unique_nn_baseline
from genrobust.experiments import (
    SyntheticDatasetSpec,
    prepare_sources,
    run_condition1_probe,
    run_condition23_probe,
    run_mixing_sweep,
    run_scaling_study,
    sample_from_spec,
    sample_generated_holdout,
    sign_test_pvalue,
    spearman_rank_corr,
)
from genrobust.labeling import PseudoLabeledSet, pseudo_label
from genrobust.models import ModelConfig, init
from genrobust.optim import cosine_lr
from genrobust.training import EarlyStopConfig, TrainConfig, mixed_counts, train

from test_diagnostics import alg1_oracle


def report(name: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, line


# ---------------------------------------------------------------------------
# shared experiment fixtures (criteria 7-10)

GAUSS_SPEC = SyntheticDatasetSpec(
    num_classes=4, image_shape=(1, 8, 8), family="gaussian", latent_dim=10,
    class_separation=3.0, noise_scale=0.55, anisotropy=0.15,
    train_size=280, test_size=1200, holdout_size=400, seed=0,
)
WARPED_SPEC = SyntheticDatasetSpec(
    num_classes=4, image_shape=(1, 8, 8), family="warped-mixture", latent_dim=10,
    class_separation=2.5, noise_scale=0.35, anisotropy=1.0,
    mixture_modes=3, mode_spread=4.0, warp_strength=1.0,
    train_size=280, test_size=1200, holdout_size=400, seed=0,
)
LABELER_CFG = ModelConfig(kind="mlp", input_shape=(1, 8, 8), num_classes=4, hidden=(128,), seed=0)
MODEL_CFG = ModelConfig(kind="mlp", input_shape=(1, 8, 8), num_classes=4, hidden=(192,), seed=0)
EVAL_CASCADE = CascadeConfig(
    stage1_steps=20, stage1_restarts=2, stage2_steps=20, stage2_restarts=2,
    top_k=2, inner_optimizer="sign-sgd",
)
INNER_KL = AttackConfig(
    steps=10, step_size=0.1, inner_optimizer="adam", objective="kl-vs-clean", random_start=True,
)


def train_config(**over) -> TrainConfig:
    base = dict(
        alpha=1.0, beta=6.0, epochs=100, batch_size=16, lr0=0.05, ema_tau=0.997,
        perturbation=PerturbationSet("linf", 0.02), inner_attack=INNER_KL,
        early_stop=EarlyStopConfig(validation_size=64, pgd_steps=20, eval_every=10),
        seed=0,
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def gauss_sources():
    return prepare_sources(
        GAUSS_SPEC, LABELER_CFG, labeler_epochs=150, pool_per_class=1500, pca_components=10
    )


@pytest.fixture(scope="module")
def warped_sources_rank4():
    return prepare_sources(
        WARPED_SPEC, LABELER_CFG, labeler_epochs=150, pool_per_class=600, pca_components=4
    )


@pytest.fixture(scope="module")
def warped_sources_full():
    return prepare_sources(
        WARPED_SPEC, LABELER_CFG, labeler_epochs=150, pool_per_class=1500, pca_components=10
    )


@pytest.fixture(scope="module")
def warped_true_sets(warped_sources_rank4):
    test_imgs = np.concatenate(
        [sample_from_spec(WARPED_SPEC, c, 250, derive_rng("tt", c)) for c in range(4)]
    )
    test_labels = np.concatenate([np.full(250, c, dtype=np.int64) for c in range(4)])
    true_test = LabeledDataset(test_imgs, test_labels)
    true_imgs = np.concatenate(
        [sample_from_spec(WARPED_SPEC, c, 1000, derive_rng("tp", c)) for c in range(4)]
    )
    true_pool = pseudo_label(warped_sources_rank4.labeler, true_imgs)
    return true_test, true_pool


# ---------------------------------------------------------------------------
# criterion 1: autodiff oracle


def test_criterion_1_autodiff_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    for cfg in (
        ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=3, hidden=(10, 6), seed=1),
        ModelConfig(kind="small-cnn", input_shape=(1, 8, 8), num_classes=4, channels=(3, 5), seed=2),
    ):
        model = init(cfg)
        x = rng.uniform(size=(3, *cfg.input_shape))
        labels = rng.integers(0, cfg.num_classes, size=3)
        tape = Tape()
        loss = ad.softmax_cross_entropy(mdl.forward_logits(model, x, tape=tape), labels, tape)
        grads = backward(loss, tape)
        # gradient arrays keyed by name now: assign() below rebinds tensors
        grad_arrays = {name: grads.wrt(t) for name, t in model.params.items()}

        def loss_at(name, arr):
            saved = model.params[name].data
            model.params.assign(name, Tensor(arr))
            try:
                return ad.softmax_cross_entropy(mdl.forward_logits(model, x), labels).item()
            finally:
                model.params.assign(name, Tensor(saved))

        names = model.params.names()
        for _ in range(50):
            name = names[rng.integers(0, len(names))]
            arr = model.params[name].data
            idx = tuple(rng.integers(0, s) for s in arr.shape)
            plus = arr.copy()
            plus[idx] += 1e-5
            minus = arr.copy()
            minus[idx] -= 1e-5
            fd = (loss_at(name, plus) - loss_at(name, minus)) / 2e-5
            g = grad_arrays[name][idx]
            rel = abs(fd - g) / max(abs(fd), abs(g), 1e-8)
            worst = max(worst, rel)
            checked += 1
    elapsed = time.time() - t0
    report(
        "criterion 1: autodiff vs central finite differences",
        checked == 100 and worst < 1e-5 and elapsed < 60,
        f"100 probes, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: attack invariants, 1000 randomized cases


def test_criterion_2_attack_invariants():
    t0 = time.time()
    rng = np.random.default_rng(202)
    cases = 0
    ok = True

    # 400 projection cases: idempotence and ball membership
    for _ in range(400):
        norm = ("linf", "l2")[rng.integers(0, 2)]
        eps = float(rng.uniform(0, 0.5))
        pset = PerturbationSet(norm, eps)
        delta = rng.normal(scale=0.5, size=(3, 1, 2, 2))
        once = project(delta, pset)
        ok &= np.array_equal(project(once, pset), once)
        if norm == "linf":
            ok &= np.max(np.abs(once)) <= eps + 1e-6
        else:
            ok &= np.max(np.sqrt((once.reshape(3, -1) ** 2).sum(axis=1))) <= eps + 1e-6
        cases += 1

    small = ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=3, hidden=(6,), seed=3)
    model = init(small)

    # 300 PGD runs: ball membership and [0,1] clipping of the results
    for _ in range(300):
        norm = ("linf", "l2")[rng.integers(0, 2)]
        eps = float(rng.uniform(0, 0.3))
        pset = PerturbationSet(norm, eps)
        x = rng.uniform(size=(2, 1, 2, 2))
        y = rng.integers(0, 3, size=2)
        cfg = AttackConfig(
            steps=int(rng.integers(1, 4)), step_size=float(rng.uniform(0.01, 0.2)),
            inner_optimizer=("sign-sgd", "adam")[rng.integers(0, 2)],
            restarts=1, seed=int(rng.integers(0, 1000)),
        )
        res = pgd(model, x, y, pset, cfg)
        if norm == "linf":
            ok &= np.max(np.abs(res.delta)) <= eps + 1e-6
        else:
            ok &= np.max(np.sqrt((res.delta.reshape(2, -1) ** 2).sum(axis=1))) <= eps + 1e-6
        ok &= res.x_adv.min() >= 0.0 and res.x_adv.max() <= 1.0
        cases += 1

    # 200 epsilon = 0 identity cases
    for _ in range(200):
        x = rng.uniform(size=(2, 1, 2, 2))
        y = rng.integers(0, 3, size=2)
        cfg = AttackConfig(steps=int(rng.integers(0, 3)), step_size=0.1,
                           random_start=bool(rng.integers(0, 2)))
        res = pgd(model, x, y, PerturbationSet("linf", 0.0), cfg)
        ok &= np.array_equal(res.x_adv, x) and np.array_equal(res.delta, np.zeros_like(x))
        cases += 1

    # 100 cascade-vs-stage-1 monotonicity cases
    for trial in range(100):
        x = rng.uniform(size=(6, 1, 2, 2))
        y = rng.integers(0, 3, size=6)
        data = LabeledDataset(x, y)
        ccfg = CascadeConfig(stage1_steps=2, stage1_restarts=1, stage2_steps=2,
                             stage2_restarts=1, top_k=1, seed=trial)
        res = attack_cascade(model, data, PerturbationSet("linf", 0.1), ccfg)
        stage1_acc = sum(
            1 for r in res.records if r["clean_correct"] and r["stage1_survived"]
        ) / len(data)
        ok &= res.robust_accuracy <= stage1_acc + 1e-12
        cases += 1

    elapsed = time.time() - t0
    report(
        "criterion 2: attack invariants over randomized cases",
        ok and cases == 1000 and elapsed < 120,
        f"{cases} cases, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: Alg. 1 brute-force equivalence


def test_criterion_3_alg1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(303)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(1, 9))
        if trial % 2 == 0:
            mk = lambda: rng.integers(0, 8, size=(n, k)) / 8.0  # exact ties
        else:
            mk = lambda: rng.normal(size=(n, k))
        train_f, test_f, gen_f = mk(), mk(), mk()
        rep = complementarity_coverage(train_f, test_f, gen_f)
        want = alg1_oracle(train_f, test_f, gen_f)
        got = (rep.c_train, rep.c_test, rep.c_self, rep.v_train, rep.v_test)
        if got != want:
            mismatches += 1
    elapsed = time.time() - t0
    report(
        "criterion 3: complementarity/coverage equals brute force",
        mismatches == 0 and elapsed < 60,
        f"200 instances, {mismatches} mismatches, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 4: FID oracles


def test_criterion_4_fid_oracles():
    t0 = time.time()
    rng = np.random.default_rng(404)
    a = rng.normal(size=(300, 5))
    identical = fid(a, a.copy())

    n = 100_000
    m, s = 0.7, 1.4
    one_d_a = rng.normal(size=(n, 1))
    one_d_b = m + s * rng.normal(size=(n, 1))
    one_d = fid(one_d_a, one_d_b)
    expected = m**2 + (1.0 - s) ** 2

    b = 0.3 + 1.2 * rng.normal(size=(300, 5))
    sym_gap = abs(fid(a, b) - fid(b, a))

    elapsed = time.time() - t0
    report(
        "criterion 4: FID identity, 1-D closed form, symmetry",
        identical < 1e-8 and abs(one_d - expected) < 0.05 and sym_gap < 1e-8 and elapsed < 60,
        f"identity {identical:.1e}, 1-D err {abs(one_d - expected):.3f}, sym {sym_gap:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 5: uniform unique-NN baseline (reference value 55.6%)


def test_criterion_5_uniform_baseline():
    t0 = time.time()
    vals = [uniform_unique_nn_baseline(10_000, derive_rng("accept-baseline", t)) for t in range(10)]
    mean = float(np.mean(vals))
    elapsed = time.time() - t0
    report(
        "criterion 5: uniform unique-NN baseline",
        abs(mean - 0.556) <= 0.010 and elapsed < 60,
        f"mean {mean:.4f} over 10 trials, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: mixing objective reduces to plain AT at alpha = 1, bit for bit


def test_criterion_6_alpha_one_reduction():
    t0 = time.time()
    spec = replace(GAUSS_SPEC, train_size=224, test_size=64, holdout_size=32)
    from genrobust.experiments import make_synthetic_dataset

    train_ds, _, _ = make_synthetic_dataset(spec)
    rng = np.random.default_rng(606)
    pool = PseudoLabeledSet(
        images=rng.uniform(size=(50, 1, 8, 8)),
        pseudo_labels=rng.integers(0, 4, size=50),
        scores=rng.uniform(0.5, 1.0, size=50),
    )
    cfg = train_config(alpha=1.0, epochs=19,
                       early_stop=EarlyStopConfig(validation_size=48, pgd_steps=5, eval_every=10))
    steps_per_epoch = (224 - 48) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    mcfg = replace(MODEL_CFG, hidden=(32,))
    with_pool, rep_a = train(cfg, train_ds, pool, init(mcfg))
    without, rep_b = train(cfg, train_ds, None, init(mcfg))
    identical = all(
        np.array_equal(t.data, without.params[name].data) for name, t in with_pool.params.items()
    )
    losses_equal = [r["train_loss"] for r in rep_a.rows] == [r["train_loss"] for r in rep_b.rows]
    elapsed = time.time() - t0
    report(
        "criterion 6: alpha=1 trajectory bit-identical without generated data",
        identical and losses_equal and total_steps >= 200,
        f"{total_steps} steps, params identical {identical}, losses identical {losses_equal}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: mixing-sweep trend


@pytest.mark.slow
def test_criterion_7_mixing_trend(gauss_sources):
    t0 = time.time()
    src = gauss_sources
    assert src.labeler_accuracy >= 0.99, "criterion premise: >= 99%-accurate labeler"
    seeds = list(range(12))
    res = run_mixing_sweep(
        train_config(), MODEL_CFG, alphas=[0.8, 1.0], seeds=seeds, sources=src,
        cascade=EVAL_CASCADE, eval_size=1200,
    )
    base_vals = res.values_for(1.0, "robust_acc")
    mixed_means = {a: res.seed_mean(a, "robust_acc") for a in (0.8,)}
    best_alpha = max(mixed_means, key=mixed_means.get)
    best_vals = res.values_for(best_alpha, "robust_acc")
    diffs = [m - b for m, b in zip(best_vals, base_vals)]
    pval = sign_test_pvalue(diffs)
    mean_08 = res.seed_mean(0.8, "robust_acc")
    mean_10 = float(np.mean(base_vals))
    elapsed = time.time() - t0
    report(
        "criterion 7: mixing trend (alpha=0.8 vs 1.0, sign test)",
        mean_08 >= mean_10 and pval < 0.1,
        f"mean a0.8 {mean_08:.4f} vs a1.0 {mean_10:.4f}, best alpha {best_alpha}, "
        f"wins {sum(d > 0 for d in diffs)}/{len(diffs)}, p {pval:.4g}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: labeler-accuracy trend


@pytest.mark.slow
def test_criterion_8_condition1_trend(gauss_sources):
    t0 = time.time()
    levels = [0.48, 0.75, 0.94, 1.0]
    deg_cfg = ModelConfig(kind="mlp", input_shape=(1, 8, 8), num_classes=4, hidden=(256,), seed=0)
    res = run_condition1_probe(
        train_config(alpha=0.3), MODEL_CFG, accuracy_levels=levels, seeds=[0, 1, 2],
        sources=gauss_sources, labeler_cfg=deg_cfg, cascade=EVAL_CASCADE,
        eval_size=1200, level_tolerance=0.03,
    )
    errors = [r for r in res.rows if "error" in r]
    means = [res.seed_mean(lv, "robust_acc") for lv in levels] if not errors else []
    rho = spearman_rank_corr(levels, means) if means else -1.0
    elapsed = time.time() - t0
    report(
        "criterion 8: robustness monotone in labeler accuracy",
        not errors and len(levels) >= 4 and rho >= 0.8,
        f"levels {levels}, means {[round(m, 3) for m in means]}, spearman {rho:.3f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 9: coverage trend and capacity interplay


@pytest.mark.slow
def test_criterion_9_coverage_trend(warped_sources_rank4, warped_true_sets):
    t0 = time.time()
    true_test, true_pool = warped_true_sets
    narrow = ModelConfig(kind="mlp", input_shape=(1, 8, 8), num_classes=4, hidden=(8,), seed=0)
    wide = ModelConfig(kind="mlp", input_shape=(1, 8, 8), num_classes=4, hidden=(256,), seed=0)
    grid = [0, 1, 2, 3, 4]
    res = run_condition23_probe(
        train_config(alpha=0.0, beta=2.0, epochs=200,
                     early_stop=EarlyStopConfig(validation_size=64, pgd_steps=20, eval_every=20)),
        narrow, axis="covered_classes", grid=grid, seeds=[0, 1, 2],
        sources=warped_sources_rank4, true_test=true_test, true_pool=true_pool,
        wide_model_cfg=wide, gauss_fraction=0.90, pool_total=2400,
        cascade=EVAL_CASCADE, eval_size=1000,
    )
    errors = [r for r in res.rows if "error" in r]
    narrow_means = [res.seed_mean(m, "robust_acc") for m in grid]
    wide_means = [res.seed_mean(m, "robust_acc_wide") for m in grid]
    rho_wide = spearman_rank_corr(grid, wide_means)
    wide_gain = wide_means[-1] - wide_means[0]
    narrow_gain = narrow_means[-1] - narrow_means[0]
    elapsed = time.time() - t0
    report(
        "criterion 9: coverage trend with capacity interplay",
        not errors and rho_wide >= 0.8 and wide_gain > narrow_gain,
        f"wide means {[round(m, 3) for m in wide_means]} (spearman {rho_wide:.2f}, gain {wide_gain:+.3f}); "
        f"narrow gain {narrow_gain:+.3f}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 10: sample-count scaling


@pytest.mark.slow
def test_criterion_10_scaling_trend(warped_sources_full):
    t0 = time.time()
    src = warped_sources_full
    gen_holdout = sample_generated_holdout(src, per_class=300)
    res = run_scaling_study(
        train_config(alpha=0.0), MODEL_CFG, sample_counts=[300, 3000], seeds=[0, 1, 2, 3, 4],
        sources=src, gen_holdout=gen_holdout, cascade=EVAL_CASCADE, eval_size=1200,
    )
    small = [r for r in res.rows if r["axis"] == 300]
    large = [r for r in res.rows if r["axis"] == 3000]
    wins = sum(l["robust_acc"] >= s["robust_acc"] for s, l in zip(small, large))
    gap_small = float(np.mean([r["gap"] for r in small]))
    gap_large = float(np.mean([r["gap"] for r in large]))
    elapsed = time.time() - t0
    report(
        "criterion 10: more generated samples improve robustness",
        wins >= 4 and gap_large < gap_small,
        f"10x wins {wins}/5; gap {gap_small:+.4f} -> {gap_large:+.4f}; {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 11: schedule / EMA / mixing exactness


def test_criterion_11_schedule_ema_mixing_exactness():
    t0 = time.time()
    ok = cosine_lr(0, 100, 0.4) == 0.4
    ok &= abs(cosine_lr(100, 100, 0.4)) < 1e-12
    ok &= abs(cosine_lr(50, 100, 0.4) - 0.2) < 1e-12

    cfg = ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=2, hidden=(4,), seed=11)
    m = init(cfg)
    ema = m.params.copy()
    for name in m.params.names():
        m.params.assign(name, Tensor(m.params[name].data + 0.5))
    mdl.ema_update(ema, m.params, 0.0)
    ok &= all(np.array_equal(ema[n].data, t.data) for n, t in m.params.items())
    frozen = {n: t.data.copy() for n, t in ema.items()}
    for name in m.params.names():
        m.params.assign(name, Tensor(m.params[name].data - 0.25))
    mdl.ema_update(ema, m.params, 1.0)
    ok &= all(np.array_equal(ema[n].data, frozen[n]) for n in m.params.names())

    tau, k = 0.9, 9
    rng = np.random.default_rng(11)
    ema0 = {}
    for name in m.params.names():
        ema0[name] = m.params[name].data + rng.normal(size=m.params[name].shape)
        ema.assign(name, Tensor(ema0[name]))
    for _ in range(k):
        mdl.ema_update(ema, m.params, tau)
    for name, t in m.params.items():
        expected = t.data + tau**k * (ema0[name] - t.data)
        ok &= bool(np.max(np.abs(ema[name].data - expected)) < 1e-10)

    for alpha in np.linspace(0, 1, 21):
        for batch in (1, 7, 10, 64):
            n_orig, n_gen = mixed_counts(float(alpha), batch)
            ok &= n_orig == int(np.floor(alpha * batch + 0.5))
            ok &= n_orig + n_gen == batch
    ok &= mixed_counts(0.8, 10) == (8, 2)

    elapsed = time.time() - t0
    report(
        "criterion 11: cosine endpoints, EMA identities, batch counts",
        bool(ok) and elapsed < 1.0,
        f"{elapsed * 1000:.0f}ms",
    )


# ---------------------------------------------------------------------------
# criterion 12: persistence round trips and CRC detection


def test_criterion_12_persistence(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(1212)
    ok = True
    for trial in range(100):
        tensors = {}
        for e in range(int(rng.integers(1, 4))):
            rank = int(rng.integers(0, 4))
            shape = tuple(int(rng.integers(1, 6)) for _ in range(rank))
            kind = rng.integers(0, 3)
            if kind == 0:
                arr = rng.normal(size=shape)
            elif kind == 1:
                arr = rng.normal(size=shape).astype(np.float32)
            else:
                arr = rng.integers(0, 2**20, size=shape).astype(np.uint32)
            tensors[f"t{e}"] = arr
        path = tmp_path / f"acc{trial}.grtc"
        save_container(path, tensors)
        loaded = load_container(path)
        for name, arr in tensors.items():
            ok &= loaded[name].dtype == arr.dtype and np.array_equal(loaded[name], arr)

    # corrupted-byte detection: every corrupted position must raise
    path = tmp_path / "corrupt.grtc"
    save_container(path, {"a": rng.normal(size=(3, 3)), "b": rng.integers(0, 9, size=4).astype(np.uint32)})
    blob = bytearray(path.read_bytes())
    detected = 0
    for pos in range(len(blob)):
        bad = bytearray(blob)
        bad[pos] ^= 0xFF
        target = tmp_path / "bad.grtc"
        target.write_bytes(bytes(bad))
        try:
            load_container(target)
        except ContainerError:
            detected += 1
    elapsed = time.time() - t0
    report(
        "criterion 12: container round trips and CRC detection",
        ok and detected == len(blob) and elapsed < 60,
        f"100 round trips ok, {detected}/{len(blob)} corruptions detected, {elapsed:.1f}s",
    )
