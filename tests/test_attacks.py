"""Attack tests: projections, PGD behavior, closed-form linear oracles, cascade."""

from dataclasses import replace

import numpy as np
import pytest

from genrobust import attacks
from genrobust import autodiff as ad
from genrobust import models as mdl
from genrobust.attacks import (
    AttackConfig,
    CascadeConfig,
    PerturbationSet,
    attack_cascade,
    margin_loss,
    pgd,
    pgd_on_objective,
    project,
)
from genrobust.autodiff import Tensor
from genrobust.data import LabeledDataset, derive_rng


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


class QuadraticObjective:
    """f(x_adv) = -sum((x_adv - center)^2) per example, maximized at center;
    the "logits" are the attacked input itself, flattened to [B, D]."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=np.float64)

    def gradient(self, x_adv):
        """Gradient of the batch sum of f."""
        return -2.0 * (x_adv - self.center)

    def evaluate(self, x_adv):
        return x_adv.reshape(len(x_adv), -1), self.values(x_adv)

    def values(self, x_np):
        return -((x_np - self.center) ** 2).reshape(len(x_np), -1).sum(axis=1)


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
        quad = QuadraticObjective(center)
        res = pgd_on_objective(quad.gradient, quad.evaluate, x, pset, cfg)
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
            res = pgd(m, x, ref, PerturbationSet(norm, 0.2), cfg)
            assert np.array_equal(res.logits, mdl.forward_logits(m, res.x_adv).data)
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


# ---------------------------------------------------------------------------
# the tape-free step against the tape


def _taped_rows(objective, logits, tape, labels, targets, clean):
    """The attack objectives as taped primitives, per example."""
    if objective == "cross-entropy":
        return ad.softmax_cross_entropy_rows(logits, labels, tape)
    if objective == "kl-vs-clean":
        return ad.kl_divergence_rows(clean, logits, tape)
    if objective == "margin":
        high = ad.max_excluding(logits, labels, tape)
    else:
        high = ad.gather_labels(logits, targets, tape)
    return ad.sub(high, ad.gather_labels(logits, labels, tape), tape)


def _taped_logits(model, x):
    """The logits of a taped Tensor forward."""
    return mdl.forward_logits(model, x, tape=ad.Tape()).data


def _taped_input_grad(model, x_in, objective, labels, targets, clean):
    """backward() of a Tape(wrt=(x,)) over forward_logits and the objective's
    batch mean (cross-entropy, kl-vs-clean) or sum (the margins); an empty
    batch, whose mean is undefined, has an empty gradient."""
    if not len(x_in):
        return np.zeros_like(x_in)
    x_t = Tensor(x_in)
    tape = ad.Tape(wrt=(x_t,))
    rows = _taped_rows(
        objective, mdl.forward_logits(model, x_t, tape=tape), tape,
        labels, targets, clean,
    )
    mean = objective in ("cross-entropy", "kl-vs-clean")
    obj = ad.tmean(rows, tape) if mean else ad.tsum(rows, tape)
    return ad.backward(obj, tape).wrt(x_t)


def _attack_inputs(cfg, seed, n=6):
    """Two classifiers (the initial weights, and those weights times 0.75),
    inputs, labels and targets."""
    model = mdl.init(cfg)
    scaled = mdl.Classifier(cfg, model.params.copy())
    for name, t in model.params.items():
        scaled.params.assign(name, Tensor(t.data * np.asarray(0.75, dtype=t.dtype)))
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, *cfg.input_shape))
    labels = rng.integers(0, cfg.num_classes, size=n)
    targets = (labels + 1 + rng.integers(0, cfg.num_classes - 1, size=n)) % cfg.num_classes
    targets[0] = labels[0]  # a target equal to the label: the margin gradient cancels
    return (model, scaled), x, labels, targets


ORACLE_MODELS = [
    mdl.ModelConfig(kind="mlp", input_shape=(1, 3, 4), num_classes=4, hidden=(9,), seed=21),
    mdl.ModelConfig(kind="mlp", input_shape=(2, 3, 3), num_classes=5, hidden=(10, 7), seed=22),
    mdl.ModelConfig(kind="small-cnn", input_shape=(2, 7, 7), num_classes=4, channels=(3, 5), seed=23),
]
ORACLE_IDS = ["mlp-1", "mlp-2", "cnn"]
OBJECTIVES = ("cross-entropy", "kl-vs-clean", "margin", "targeted-margin")


def _bits(a):
    return a.view(np.int32 if a.dtype == np.float32 else np.int64)


@pytest.mark.parametrize("precision", ["single", "double"])
@pytest.mark.parametrize("base", ORACLE_MODELS, ids=ORACLE_IDS)
def test_input_gradient_equals_the_taped_gradient_bitwise(base, precision):
    cfg = replace(base, precision=precision)
    pair, x_all, labels_all, targets_all = _attack_inputs(cfg, seed=31, n=300)
    dtype = cfg.dtype
    for n in (0, 1, 6, 300):
        x, labels, targets = x_all[:n], labels_all[:n], targets_all[:n]
        x_in = x.astype(dtype)
        for which, model in enumerate(pair):
            clean_data = _taped_logits(model, x * 0.9)
            clean = Tensor(clean_data)
            for objective in OBJECTIVES:
                labs = np.argmax(clean_data, axis=1) if objective == "kl-vs-clean" else labels
                _, logit_grad = attacks._objective(
                    objective, labs, targets, ad.log_softmax(clean_data), cfg.num_classes, dtype
                )
                got = mdl.input_gradient(model, x_in, logit_grad)
                want = _taped_input_grad(model, x_in, objective, labs, targets, clean)
                assert got.dtype == want.dtype == dtype
                assert got.shape == want.shape == x.shape
                assert np.array_equal(_bits(got), _bits(want)), (n, objective, which)


def _adam_reference(delta, grad, state, lr):
    """The out-of-place Adam ascent step, written as it was before it ran in place."""
    m, v, t = state
    t += 1
    m = 0.9 * m + 0.1 * grad
    v = 0.999 * v + 0.001 * grad * grad
    mhat = m / (1.0 - 0.9**t)
    vhat = v / (1.0 - 0.999**t)
    return delta + lr * mhat / (np.sqrt(vhat) + 1e-8), (m, v, t)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_ascend_equals_the_out_of_place_step_bitwise(dtype):
    """Five in-place steps give the reference's deltas and moments bit for
    bit, from float64 deltas and gradients of the model's dtype spanning
    eleven decades, and leave the delta and gradient they are given alone."""
    rng = np.random.default_rng(17)
    shape = (5, 3, 4, 4)
    delta = want_delta = rng.uniform(-0.1, 0.1, size=shape)
    state = (np.zeros(shape), np.zeros(shape), 0)
    want_state = (np.zeros(shape), np.zeros(shape), 0)
    for _ in range(5):
        grad = (rng.normal(size=shape) * 10.0 ** rng.integers(-8, 3, size=shape)).astype(dtype)
        grad_before, delta_before = grad.copy(), delta.copy()
        new_delta, state = attacks._adam_ascend(delta, grad, state, 0.1)
        assert np.array_equal(_bits(grad), _bits(grad_before))
        assert np.array_equal(_bits(delta), _bits(delta_before))
        delta = new_delta
        want_delta, want_state = _adam_reference(want_delta, grad, want_state, 0.1)
        assert delta.dtype == np.float64
        for got, want in ((delta, want_delta), (state[0], want_state[0]), (state[1], want_state[1])):
            assert np.array_equal(_bits(got), _bits(want))
        assert state[2] == want_state[2]


def _taped_pgd(model, x, ref, pset, cfg, targets=None):
    """The PGD loop with one taped backward per step, as it ran before the
    tape-free step: random starts, projection, clip, keeper and all. Each
    restart ends with a taped Tensor forward and the taped objective rows."""
    dtype = model.config.dtype
    clean = None
    if cfg.objective == "kl-vs-clean":
        labels = np.argmax(ref, axis=1)
        clean = Tensor(np.asarray(ref, dtype=dtype))
    else:
        labels = np.asarray(ref)
        if cfg.objective == "targeted-margin" and targets is None:
            targets = np.full(labels.shape, cfg.target, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    b = x.shape[0]
    best_delta = np.zeros_like(x)
    best_val = np.full(b, -np.inf)
    best_success = np.zeros(b, dtype=bool)
    for restart in range(cfg.restarts):
        delta = np.zeros_like(x)
        for i in range(b):
            delta[i] = attacks.random_start(pset, x.shape[1:], derive_rng(cfg.seed, restart, i))
        delta = project(delta, pset)
        delta = np.clip(x + delta, 0.0, 1.0) - x
        state = (np.zeros_like(x), np.zeros_like(x), 0)
        for _ in range(cfg.steps):
            grad = _taped_input_grad(
                model, (x + delta).astype(dtype, copy=False), cfg.objective, labels, targets, clean
            )
            if cfg.inner_optimizer == "sign-sgd":
                delta = delta + cfg.step_size * np.sign(grad)
            else:
                delta, state = _adam_reference(delta, grad, state, cfg.step_size)
            delta = project(delta, pset)
            delta = np.clip(x + delta, 0.0, 1.0) - x
        tape = ad.Tape()
        z = mdl.forward_logits(model, Tensor((x + delta).astype(dtype, copy=False)), tape=tape)
        vals = _taped_rows(cfg.objective, z, tape, labels, targets, clean).data
        succ = np.argmax(z.data, axis=1) != labels
        if restart == 0:
            best_logits = np.empty_like(z.data)
        better = (succ & ~best_success) | ((succ == best_success) & (vals > best_val))
        best_delta[better] = delta[better]
        best_val[better] = vals[better]
        best_success[better] = succ[better]
        best_logits[better] = z.data[better]
    return best_delta, best_logits, best_val


@pytest.mark.parametrize(
    "base",
    ORACLE_MODELS + [replace(cfg, precision="single") for cfg in ORACLE_MODELS],
    ids=ORACLE_IDS + [f"{i}-single" for i in ORACLE_IDS],
)
def test_pgd_equals_the_taped_pgd_bitwise(base):
    """PGD's perturbations, logits and objective values equal the taped loop's
    over norms, optimizers and objectives at 6 rows on two sets of weights,
    and per objective at 0, 1 and 300 rows."""
    pair, x_all, labels_all, targets_all = _attack_inputs(base, seed=41, n=300)
    cases = [(6, norm, opt, which) for norm in ("linf", "l2") for opt in ("adam", "sign-sgd")
             for which in (0, 1)]
    cases += [(n, "l2", "adam", 1) for n in (0, 1, 300)]
    for n, norm, opt, which in cases:
        x, labels, targets = x_all[:n], labels_all[:n], targets_all[:n]
        clean = _taped_logits(pair[0], x)
        model = pair[which]
        for objective in OBJECTIVES:
            cfg = AttackConfig(
                steps=3, step_size=0.05, inner_optimizer=opt, restarts=2,
                objective=objective, seed=5,
            )
            ref = clean if objective == "kl-vs-clean" else labels
            pset = PerturbationSet(norm, 0.25)
            res = pgd(model, x, ref, pset, cfg, targets=targets)
            delta, logits, values = _taped_pgd(model, x, ref, pset, cfg, targets)
            case = (n, norm, opt, which, objective)
            assert res.logits.dtype == logits.dtype == base.dtype, case
            assert res.logits.shape == (n, base.num_classes) and res.objective_value.shape == (n,), case
            assert np.array_equal(_bits(res.delta), _bits(delta)), case
            assert np.array_equal(_bits(res.logits), _bits(logits)), case
            assert np.array_equal(_bits(res.objective_value), _bits(values)), case


def test_untaped_passes_build_no_tensor(monkeypatch):
    """Inference, features, input gradients, PGD on every objective and the
    cascade run on plain arrays: no Tensor is built, by either constructor."""
    built = []
    tensor_init, result = ad.Tensor.__init__, ad._result

    def counting_init(self, *args, **kwargs):
        built.append("Tensor")
        tensor_init(self, *args, **kwargs)

    def counting_result(*args):
        built.append("_result")
        return result(*args)

    setups = [_attack_inputs(cfg, seed=51) for cfg in (ORACLE_MODELS[0], ORACLE_MODELS[2])]
    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    monkeypatch.setattr(ad, "_result", counting_result)
    for (model, scaled), x, labels, targets in setups:
        clean = mdl.predict_logits(model, x)
        mdl.forward_penultimate(scaled, x)
        _, logit_grad = attacks._objective(
            "cross-entropy", labels, None, None, model.config.num_classes, model.config.dtype
        )
        mdl.input_gradient(model, x, logit_grad)
        for objective in OBJECTIVES:
            ref = clean if objective == "kl-vs-clean" else labels
            cfg = AttackConfig(steps=2, step_size=0.05, objective=objective)
            pgd(scaled, x, ref, PerturbationSet("linf", 0.1), cfg, targets=targets)
        ccfg = CascadeConfig(stage1_steps=2, stage1_restarts=1, stage2_steps=2, stage2_restarts=1, top_k=2)
        attack_cascade(model, LabeledDataset(x, labels), PerturbationSet("l2", 0.5), ccfg)
    assert built == []


# ---------------------------------------------------------------------------
# non-finite inputs and overflow


def test_pgd_on_objective_rejects_a_non_finite_input():
    quad = QuadraticObjective(np.zeros((1, 1, 1, 2)))
    cfg = AttackConfig(steps=2, step_size=0.1)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.array([[[[0.5, bad]]]])
        with pytest.raises(ValueError, match="finite"):
            pgd_on_objective(quad.gradient, quad.evaluate, x, PerturbationSet("linf", 0.1), cfg)
    m = mdl.init(SMALL)
    x = np.full((2, 1, 2, 2), 0.5)
    x[1, 0, 1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        pgd(m, x, np.array([0, 1]), PerturbationSet("linf", 0.1), cfg)


def test_pgd_raises_numeric_error_when_the_weights_overflow():
    x = np.random.default_rng(15).uniform(size=(3, 1, 2, 2))
    y = np.array([0, 1, 2])
    for kind, cfg in (("mlp", SMALL), ("small-cnn", ORACLE_MODELS[2])):
        m = mdl.init(cfg)
        for name, t in m.params.items():
            m.params.assign(name, Tensor(np.full(t.shape, 1e200)))
        xs = x if kind == "mlp" else np.full((3, *cfg.input_shape), 0.5)
        for objective in OBJECTIVES:
            acfg = AttackConfig(steps=2, step_size=0.1, objective=objective, target=1)
            ref = np.zeros((3, cfg.num_classes)) if objective == "kl-vs-clean" else y
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ad.NumericError):
                pgd(m, xs, ref, PerturbationSet("linf", 0.1), acfg)
