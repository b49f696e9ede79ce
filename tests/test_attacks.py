"""Attack tests: projections, PGD behavior, closed-form linear oracles, cascade."""

import numpy as np
import pytest

from genrobust import autodiff as ad
from genrobust import models as mdl
from genrobust.attacks import (
    AttackConfig,
    CascadeConfig,
    PerturbationSet,
    attack_cascade,
    fgsm,
    margin_loss,
    pgd,
    pgd_on_objective,
    project,
)
from genrobust.autodiff import Tensor
from genrobust.data import LabeledDataset


def linear_model(w: np.ndarray, b: np.ndarray) -> mdl.Classifier:
    """Classifier computing logits = w.T x + b via a saturated-SiLU hidden layer.

    With hidden pre-activations pushed to ~30, silu(z) - z is ~1e-11, so the
    network is linear to well below the 1e-8 tolerances used here.
    """
    d, c = w.shape
    cfg = mdl.ModelConfig(kind="mlp", input_shape=(1, 1, d), num_classes=c, hidden=(d,))
    m = mdl.init(cfg)
    shift = 30.0
    m.params.assign("w0", Tensor(np.eye(d)))
    m.params.assign("b0", Tensor(np.full(d, shift)))
    m.params.assign("w1", Tensor(w))
    m.params.assign("b1", Tensor(b - shift * w.sum(axis=0)))
    m.ema_params = m.params.copy()
    return m


SMALL = mdl.ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=3, hidden=(8,), seed=5)


# ---------------------------------------------------------------------------
# project


def test_project_inside_unchanged():
    rng = np.random.default_rng(0)
    for norm in ("linf", "l2"):
        pset = PerturbationSet(norm, 0.5)
        delta = rng.uniform(-0.1, 0.1, size=(3, 1, 2, 2))
        assert np.array_equal(project(delta, pset), delta)


def test_project_linf_clamp():
    pset = PerturbationSet("linf", 0.1)
    delta = np.array([0.2, -0.5]).reshape(1, 1, 1, 2)
    assert project(delta, pset).ravel().tolist() == [0.1, -0.1]


def test_project_l2_rescales_to_radius():
    pset = PerturbationSet("l2", 0.3)
    rng = np.random.default_rng(1)
    delta = rng.normal(size=(4, 1, 3, 3))
    delta *= (2 * pset.epsilon) / np.sqrt((delta.reshape(4, -1) ** 2).sum(axis=1)).reshape(4, 1, 1, 1)
    out = project(delta, pset)
    norms = np.sqrt((out.reshape(4, -1) ** 2).sum(axis=1))
    assert np.max(np.abs(norms - pset.epsilon)) < 1e-9


def test_project_idempotent():
    rng = np.random.default_rng(2)
    for norm in ("linf", "l2"):
        pset = PerturbationSet(norm, 0.2)
        delta = rng.normal(scale=0.5, size=(5, 1, 2, 3))
        once = project(delta, pset)
        assert np.array_equal(project(once, pset), once)


def test_perturbation_set_validation():
    with pytest.raises(ValueError):
        PerturbationSet("l1", 0.1)
    with pytest.raises(ValueError):
        PerturbationSet("linf", -0.1)


# ---------------------------------------------------------------------------
# margin loss


def test_margin_hand_cases():
    z = np.array([[3.0, 1.0]])
    assert margin_loss(z, np.array([0])).tolist() == [2.0]
    z_eq = np.array([[1.0, 1.0, 1.0]])
    assert margin_loss(z_eq, np.array([1])).tolist() == [0.0]


def test_margin_against_naive_loop():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(16, 10))
    labels = rng.integers(0, 10, size=16)
    got = margin_loss(z, labels)
    for i in range(16):
        best_other = max(z[i, j] for j in range(10) if j != labels[i])
        assert abs(got[i] - (z[i, labels[i]] - best_other)) < 1e-12


def test_margin_label_out_of_range():
    with pytest.raises(ValueError):
        margin_loss(np.zeros((2, 3)), np.array([0, 3]))


# ---------------------------------------------------------------------------
# PGD core behavior


def flatten(x_t, tape):
    """Identity "model": the attacked input itself, flattened to [B, D]."""
    return ad.reshape(x_t, (x_t.shape[0], x_t.size // x_t.shape[0]), tape)


class QuadraticObjective:
    """f(x_adv) = -sum((x_adv - center)^2) per example, maximized at center."""

    def __init__(self, center):
        self.center = flatten(Tensor(center), None)

    def __call__(self, z, tape):
        diff = ad.sub(z, self.center, tape)
        ones = Tensor(np.ones((z.shape[1], 1)))
        sq = ad.matmul(ad.mul(diff, diff, tape), ones, tape)
        return ad.neg(ad.reshape(sq, (z.shape[0],), tape), tape)

    def values(self, x_np):
        return self(flatten(Tensor(x_np), None), None).data


def test_pgd_epsilon_zero_is_identity():
    m = mdl.init(SMALL)
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(5, 1, 2, 2))
    y = rng.integers(0, 3, size=5)
    res = pgd(m, x, y, PerturbationSet("linf", 0.0), AttackConfig(steps=5, step_size=0.1))
    assert np.array_equal(res.delta, np.zeros_like(x))
    assert np.array_equal(res.x_adv, x)


def test_pgd_zero_steps_no_random_start():
    m = mdl.init(SMALL)
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(3, 1, 2, 2))
    y = rng.integers(0, 3, size=3)
    res = pgd(
        m, x, y, PerturbationSet("linf", 0.1),
        AttackConfig(steps=0, step_size=0.1, random_start=False),
    )
    assert np.array_equal(res.delta, np.zeros_like(x))


def test_pgd_converges_to_clamped_optimum_monotonically():
    """1-D convex surrogate: delta -> +0.1 and objective non-decreasing in steps."""
    x = np.full((1, 1, 1, 1), 0.5)
    center = x + 0.3
    pset = PerturbationSet("linf", 0.1)
    prev = -np.inf
    finals = []
    for steps in range(0, 12):
        cfg = AttackConfig(steps=steps, step_size=0.02, random_start=False)
        res = pgd_on_objective(flatten, QuadraticObjective(center), x, pset, cfg)
        val = res.objective_value[0] if steps > 0 else QuadraticObjective(center).values(x)[0]
        assert val >= prev - 1e-12
        prev = val
        finals.append(res.delta.ravel()[0])
    assert abs(finals[-1] - 0.1) < 1e-12


def test_pgd_ball_and_clip_invariants():
    m = mdl.init(SMALL)
    rng = np.random.default_rng(6)
    for norm in ("linf", "l2"):
        for opt in ("sign-sgd", "adam"):
            x = rng.uniform(size=(4, 1, 2, 2))
            y = rng.integers(0, 3, size=4)
            pset = PerturbationSet(norm, 0.15)
            res = pgd(
                m, x, y, pset,
                AttackConfig(steps=8, step_size=0.05, inner_optimizer=opt, restarts=2),
            )
            if norm == "linf":
                assert np.max(np.abs(res.delta)) <= pset.epsilon + 1e-6
            else:
                norms = np.sqrt((res.delta.reshape(4, -1) ** 2).sum(axis=1))
                assert np.max(norms) <= pset.epsilon + 1e-6
            assert res.x_adv.min() >= 0.0 and res.x_adv.max() <= 1.0


def test_pgd_deterministic_under_seed():
    m = mdl.init(SMALL)
    rng = np.random.default_rng(7)
    x = rng.uniform(size=(3, 1, 2, 2))
    y = rng.integers(0, 3, size=3)
    cfg = AttackConfig(steps=5, step_size=0.05, restarts=3, seed=11)
    a = pgd(m, x, y, PerturbationSet("linf", 0.1), cfg)
    b = pgd(m, x, y, PerturbationSet("linf", 0.1), cfg)
    assert np.array_equal(a.delta, b.delta)
    assert np.array_equal(a.objective_value, b.objective_value)


def test_pgd_restart_prefix_property():
    """More restarts never lose a success found by fewer restarts."""
    m = mdl.init(SMALL)
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(8, 1, 2, 2))
    y = rng.integers(0, 3, size=8)
    pset = PerturbationSet("linf", 0.2)
    base = dict(steps=4, step_size=0.08, seed=3)
    few = pgd(m, x, y, pset, AttackConfig(restarts=2, **base))
    many = pgd(m, x, y, pset, AttackConfig(restarts=5, **base))
    assert np.all(many.success >= few.success)


def test_pgd_logits_are_the_logits_at_x_adv():
    """The kept restart's logits equal a fresh forward of x_adv, bit for bit."""
    m = mdl.init(SMALL)
    rng = np.random.default_rng(14)
    x = rng.uniform(size=(6, 1, 2, 2))
    x[0, 0, 0, 0], x[1, 0, 1, 1] = 0.0, 1.0  # pixels pinned at the clip bounds
    y = rng.integers(0, 3, size=6)
    clean = mdl.forward_logits(m, x).data
    for norm in ("linf", "l2"):
        for objective in ("cross-entropy", "kl-vs-clean", "margin", "targeted-margin"):
            cfg = AttackConfig(steps=3, step_size=0.05, restarts=3, objective=objective, target=1)
            ref = clean if objective == "kl-vs-clean" else y
            res = pgd(m, x, ref, PerturbationSet(norm, 0.2), cfg, use_ema=True)
            assert np.array_equal(res.logits, mdl.forward_logits(m, res.x_adv, use_ema=True).data)
            labels = np.argmax(clean, axis=1) if objective == "kl-vs-clean" else y
            assert np.array_equal(res.success, np.argmax(res.logits, axis=1) != labels)


def test_pgd_kl_objective_needs_reference_shape():
    m = mdl.init(SMALL)
    x = np.random.default_rng(9).uniform(size=(2, 1, 2, 2))
    clean = mdl.forward_logits(m, x).data
    res = pgd(
        m, x, clean, PerturbationSet("linf", 0.1),
        AttackConfig(steps=3, step_size=0.05, objective="kl-vs-clean"),
    )
    assert res.objective_value.shape == (2,)
    assert np.all(res.objective_value >= -1e-9)


# ---------------------------------------------------------------------------
# linear-model closed forms


def test_fgsm_equals_single_step_pgd():
    m = mdl.init(SMALL)
    rng = np.random.default_rng(10)
    x = rng.uniform(size=(4, 1, 2, 2))
    y = rng.integers(0, 3, size=4)
    pset = PerturbationSet("linf", 0.07)
    a = fgsm(m, x, y, pset)
    b = pgd(
        m, x, y, pset,
        AttackConfig(steps=1, step_size=pset.epsilon, random_start=False),
    )
    assert np.array_equal(a.delta, b.delta)


def test_fgsm_epsilon_zero_identity():
    m = mdl.init(SMALL)
    x = np.random.default_rng(11).uniform(size=(2, 1, 2, 2))
    y = np.array([0, 1])
    res = fgsm(m, x, y, PerturbationSet("linf", 0.0))
    assert np.array_equal(res.x_adv, x)


def test_fgsm_strictly_increases_loss_on_linear_model():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(4, 2))
    b = rng.normal(size=2)
    m = linear_model(w, b)
    x = rng.uniform(0.3, 0.7, size=(6, 1, 1, 4))
    y = rng.integers(0, 2, size=6)
    pset = PerturbationSet("linf", 0.05)
    res = fgsm(m, x, y, pset)

    def ce(batch):
        logits = mdl.forward_logits(m, batch).data
        return -ad.log_softmax(logits)[np.arange(6), y]

    before, after = ce(x), ce(res.x_adv)
    assert np.all(after > before)  # gradient of a generic linear model is nonzero


def test_linear_robustness_closed_form_in_cascade():
    """Linf eps above m / ||w_y - w_other||_1 breaks the example; below keeps it."""
    w = np.array([[1.0, -1.0], [0.5, -0.5], [0.25, -0.25], [0.0, 0.0]])
    b = np.array([0.0, 0.0])
    m = linear_model(w, b)
    x = np.full((1, 1, 1, 4), 0.5)
    x[0, 0, 0, 0] = 0.55  # margin = (logit0 - logit1) at x
    logits = mdl.forward_logits(m, x).data[0]
    margin = logits[0] - logits[1]
    y = np.array([0])
    dw_l1 = np.abs(w[:, 0] - w[:, 1]).sum()
    eps_crit = margin / dw_l1
    data = LabeledDataset(x, y)
    ccfg = CascadeConfig(
        stage1_steps=20, stage1_restarts=2, stage2_steps=20, stage2_restarts=2,
        top_k=1, inner_optimizer="sign-sgd",
    )
    broken = attack_cascade(m, data, PerturbationSet("linf", eps_crit * 1.2), ccfg)
    assert broken.robust_accuracy == 0.0
    safe = attack_cascade(m, data, PerturbationSet("linf", eps_crit * 0.5), ccfg)
    assert safe.robust_accuracy == 1.0


# ---------------------------------------------------------------------------
# cascade properties


def _tiny_trained_setup(seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(24, 1, 2, 2))
    m = mdl.init(SMALL)
    y = mdl.predict_labels(m, x)  # consistent labels: model is "trained" for them
    return m, LabeledDataset(x, y)


def test_cascade_at_epsilon_zero_equals_clean_accuracy():
    m, data = _tiny_trained_setup()
    flipped = LabeledDataset(data.images, (data.labels + 1) % 3)
    ccfg = CascadeConfig(stage1_steps=3, stage1_restarts=1, stage2_steps=3, stage2_restarts=1)
    for ds in (data, flipped):
        res = attack_cascade(m, ds, PerturbationSet("linf", 0.0), ccfg)
        assert res.robust_accuracy == mdl.accuracy(m, ds)


def test_cascade_not_above_stage1():
    m, data = _tiny_trained_setup(1)
    pset = PerturbationSet("linf", 0.1)
    ccfg = CascadeConfig(stage1_steps=5, stage1_restarts=1, stage2_steps=5, stage2_restarts=2, top_k=2)
    res = attack_cascade(m, data, pset, ccfg)
    stage1_acc = sum(1 for r in res.records if r["clean_correct"] and r["stage1_survived"]) / len(data)
    assert res.robust_accuracy <= stage1_acc + 1e-12


def test_cascade_constant_model_keeps_clean_accuracy():
    cfg = mdl.ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=3, hidden=(4,), seed=0)
    m = mdl.init(cfg)
    for name in m.params.names():
        m.params.assign(name, Tensor(np.zeros(m.params[name].shape)))
    m.ema_params = m.params.copy()
    rng = np.random.default_rng(13)
    x = rng.uniform(size=(10, 1, 2, 2))
    y = np.zeros(10, dtype=np.int64)  # constant logits: argmax ties to class 0
    data = LabeledDataset(x, y)
    res = attack_cascade(
        m, data, PerturbationSet("linf", 0.2),
        CascadeConfig(stage1_steps=3, stage1_restarts=1, stage2_steps=3, stage2_restarts=1),
    )
    assert res.robust_accuracy == 1.0
    y_wrong = np.ones(10, dtype=np.int64)
    res_wrong = attack_cascade(
        m, LabeledDataset(x, y_wrong), PerturbationSet("linf", 0.2),
        CascadeConfig(stage1_steps=3, stage1_restarts=1, stage2_steps=3, stage2_restarts=1),
    )
    assert res_wrong.robust_accuracy == 0.0


def test_cascade_record_fields():
    m, data = _tiny_trained_setup(3)
    res = attack_cascade(
        m, data, PerturbationSet("linf", 0.05),
        CascadeConfig(stage1_steps=2, stage1_restarts=1, stage2_steps=2, stage2_restarts=1),
    )
    assert len(res.records) == len(data)
    row = res.records[0]
    assert set(row) == {"example_id", "clean_correct", "stage1_survived", "stage2_survived", "worst_margin"}
