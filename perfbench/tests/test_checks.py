"""Each benchmark check accepts the program's real output and rejects a wrong one.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"), os.path.dirname(HERE)]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from genrobust import attacks, container, diagnostics, labeling, models  # noqa: E402
from genrobust.attacks import AttackConfig, CascadeConfig, PerturbationSet  # noqa: E402
from genrobust.data import LabeledDataset  # noqa: E402
from genrobust.models import ModelConfig  # noqa: E402

MLP = ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=3, hidden=(12, 8), seed=3)
CNN = ModelConfig(kind="small-cnn", input_shape=(2, 8, 8), num_classes=3, channels=(4, 6), seed=4)


def _images(shape, n=40, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, *shape))


def _weights(model):
    return {name: t.data for name, t in model.params.items()}


@pytest.mark.parametrize("cfg", [MLP, CNN], ids=["mlp", "small-cnn"])
def test_clean_predictions(cfg):
    model = models.init(cfg)
    x = _images(cfg.input_shape)
    labels = np.arange(len(x)) % cfg.num_classes
    clean = np.argmax(models.forward_logits(model, x).data, axis=1) == labels
    checks.check_clean_predictions(cfg.kind, _weights(model), x, labels, clean)
    flipped = clean.copy()
    flipped[5] = ~flipped[5]
    with pytest.raises(CheckFailed):
        checks.check_clean_predictions(cfg.kind, _weights(model), x, labels, flipped)


def test_stage_nesting():
    clean = np.array([1, 1, 1, 0], dtype=bool)
    s1 = np.array([1, 1, 0, 0], dtype=bool)
    s2 = np.array([1, 0, 0, 0], dtype=bool)
    checks.check_stage_nesting(clean, s1, s2)
    with pytest.raises(CheckFailed):
        checks.check_stage_nesting(clean, s1, np.array([1, 0, 1, 0], dtype=bool))
    with pytest.raises(CheckFailed):
        checks.check_stage_nesting(clean, np.array([1, 1, 0, 1], dtype=bool), s2)


@pytest.mark.parametrize("cfg", [MLP, CNN], ids=["mlp", "small-cnn"])
@pytest.mark.parametrize("loss", ["cross-entropy", "margin"])
def test_input_gradient_matches_finite_differences(cfg, loss):
    weights = _weights(models.init(cfg))
    x = _images(cfg.input_shape, n=3)
    labels, targets = np.array([0, 1, 2]), np.array([2, 0, 1])
    if loss == "cross-entropy":
        logit_grad = checks.d_cross_entropy(labels)

        def value(z):
            z = z - z.max(axis=1, keepdims=True)
            return -(z[np.arange(3), labels] - np.log(np.exp(z).sum(axis=1))).sum()
    else:
        logit_grad = checks.d_margin(labels, targets)

        def value(z):
            return (z[np.arange(3), targets] - z[np.arange(3), labels]).sum()

    _, grad = checks.input_gradient(cfg.kind, weights, x, logit_grad)
    h = 1e-6
    for idx in [(0, 0, 1, 2), (1, 0, 3, 3), (2, cfg.input_shape[0] - 1, 0, 0)]:
        e = np.zeros_like(x)
        e[idx] = h
        fd = (value(checks.reference_forward(cfg.kind, weights, x + e))
              - value(checks.reference_forward(cfg.kind, weights, x - e))) / (2 * h)
        assert abs(fd - grad[idx]) < 1e-6


# Both stages of these cascades break a good share of the examples, so
# turning either stage off moves its survival well past the slack. Cutting
# stage 1 from 10 steps to 1 leaves 0.042 more of the examples unbroken on
# the MLP and 0.033 more on the CNN; cutting stage 2 so, 0.067 and 0.075.
ATTACKS = {
    "mlp-linf-sign": (MLP, PerturbationSet("linf", 0.3), "sign-sgd"),
    "cnn-l2-adam": (CNN, PerturbationSet("l2", 0.4), "adam"),
}


def _cascade(name, **weaker):
    cfg, pset, optimizer = ATTACKS[name]
    model = models.init(cfg)
    x = _images(cfg.input_shape, n=120)
    labels = np.argmax(models.forward_logits(model, x).data, axis=1)  # all clean-correct
    ccfg = CascadeConfig(stage1_steps=10, stage1_restarts=1, stage2_steps=10, stage2_restarts=1,
                         top_k=2, inner_optimizer=optimizer)
    res = attacks.attack_cascade(model, LabeledDataset(x, labels), pset, replace(ccfg, **weaker))
    return cfg.kind, _weights(model), x, labels, workloads._records(res), pset, ccfg


def _strength(kind, weights, x, labels, s1, s2, pset, ccfg):
    return workloads._check_attack_strength(kind, weights, x, labels, s1, s2, pset, ccfg, 0)


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_strength_accepts_the_cascade(name):
    kind, weights, x, labels, (clean, s1, s2), pset, ccfg = _cascade(name)
    figures = _strength(kind, weights, x, labels, s1, s2, pset, ccfg)
    assert figures["stage1"] < clean.mean() - 3 * workloads.SLACK
    assert figures["robust"] < figures["stage1"] - 3 * workloads.SLACK


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_strength_rejects_stage1_off(name):
    kind, weights, x, labels, (clean, _, s2), pset, ccfg = _cascade(name)
    with pytest.raises(CheckFailed, match="stage 1"):
        _strength(kind, weights, x, labels, clean, s2, pset, ccfg)


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_strength_rejects_stage2_off(name):
    kind, weights, x, labels, (_, s1, _), pset, ccfg = _cascade(name)
    with pytest.raises(CheckFailed, match="stage 2"):
        _strength(kind, weights, x, labels, s1, s1, pset, ccfg)


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_strength_rejects_a_weaker_stage1(name):
    kind, weights, x, labels, (_, s1, s2), pset, ccfg = _cascade(name, stage1_steps=1)
    with pytest.raises(CheckFailed, match="stage 1"):
        _strength(kind, weights, x, labels, s1, s2, pset, ccfg)


@pytest.mark.parametrize("name", ATTACKS)
def test_attack_strength_rejects_a_weaker_stage2(name):
    kind, weights, x, labels, (_, s1, s2), pset, ccfg = _cascade(name, stage2_steps=1)
    with pytest.raises(CheckFailed, match="stage 2"):
        _strength(kind, weights, x, labels, s1, s2, pset, ccfg)


def test_robustness_gain():
    checks.check_robustness_gain(0.696, 0.443)
    with pytest.raises(CheckFailed):
        checks.check_robustness_gain(0.443, 0.443)


def test_l2_ball():
    model = models.init(CNN)
    x = _images(CNN.input_shape, n=16)
    labels = np.arange(16) % 3
    pset = PerturbationSet("l2", 0.5)
    res = attacks.pgd(model, x, labels, pset, AttackConfig(steps=5, step_size=0.2, inner_optimizer="adam"))
    checks.check_l2_ball(x, res.delta, pset.epsilon)
    with pytest.raises(CheckFailed):
        checks.check_l2_ball(x, res.delta * (1 + 1e-6), pset.epsilon)
    outside = res.delta.copy()
    outside[0, 0, 0, 0] = 1.0 - x[0, 0, 0, 0] + 1e-3  # x + delta just above 1
    with pytest.raises(CheckFailed):
        checks.check_l2_ball(x, outside, pset.epsilon * 100)


def test_pseudo_labels():
    model = models.init(MLP)
    x = _images(MLP.input_shape, n=50)
    pool = labeling.pseudo_label(model, x)
    checks.check_pseudo_labels(_weights(model), x, pool.pseudo_labels)
    wrong = pool.pseudo_labels.copy()
    wrong[7] = (wrong[7] + 1) % 3
    with pytest.raises(CheckFailed):
        checks.check_pseudo_labels(_weights(model), x, wrong)


def _naive_nn(queries, refs, skip_diag):
    out = []
    for i, q in enumerate(queries):
        best, arg = np.inf, -1
        for j, r in enumerate(refs):
            if skip_diag and i == j:
                continue
            d = float(((r - q) ** 2).sum())
            if d < best:
                best, arg = d, j
        out.append((best, arg))
    return out


@pytest.mark.parametrize("integer", [False, True], ids=["continuous", "with-ties"])
def test_nn_figures(integer):
    rng = np.random.default_rng(1)
    sets = [rng.normal(size=(30, 3)) for _ in range(3)]
    if integer:  # small integer grids produce exact distance ties
        sets = [np.round(s) for s in sets]
    report = diagnostics.complementarity_coverage(*sets)
    checks.check_nn_figures(*sets, report)
    train_f, _, gen_f = sets
    naive = _naive_nn(gen_f, train_f, False)
    assert checks._nearest(gen_f, train_f, False)[1].tolist() == [a for _, a in naive]
    naive_self = _naive_nn(gen_f, gen_f, True)
    assert checks._nearest(gen_f, gen_f, True)[1].tolist() == [a for _, a in naive_self]
    report.v_train += 1.0 / 30
    with pytest.raises(CheckFailed):
        checks.check_nn_figures(*sets, report)


def test_fid():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(200, 5)), rng.normal(loc=0.3, scale=1.2, size=(200, 5))
    value = diagnostics.fid(a, b)
    checks.check_fid(a, b, value)
    with pytest.raises(CheckFailed):
        checks.check_fid(a, b, value * 1.001)
    with pytest.raises(CheckFailed):
        checks.check_fid(a, a, -1e-3)


def test_container_crc(tmp_path):
    path = str(tmp_path / "x.grtc")
    container.save_container(path, {"a": np.arange(6, dtype=np.float64).reshape(2, 3)})
    checks.check_container_crc(path)
    blob = bytearray(open(path, "rb").read())
    blob[20] ^= 0x01
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckFailed):
        checks.check_container_crc(path)


def test_pixels():
    checks.check_pixels(np.array([0.0, 0.5, 1.0]), "ok")
    with pytest.raises(CheckFailed):
        checks.check_pixels(np.array([0.0, 1.0 + 1e-12]), "bad")
    with pytest.raises(CheckFailed):
        checks.check_pixels(np.zeros(0), "empty")


def test_bit_identical():
    fp = checks.fingerprint(np.arange(3.0), "x")
    checks.check_bit_identical(fp, checks.fingerprint(np.arange(3.0), "x"))
    with pytest.raises(CheckFailed):
        checks.check_bit_identical(fp, checks.fingerprint(np.arange(3.0) + 1e-16 * 3, "x"))


def test_layers_used():
    checks.check_layers_used({"a": 2, "b": 0}, required=["a"], unused=["b"])
    with pytest.raises(CheckFailed):
        checks.check_layers_used({"a": 0}, required=["a"])
    with pytest.raises(CheckFailed):
        checks.check_layers_used({"a": 1, "b": 3}, required=["a"], unused=["b"])


# ---------------------------------------------------------------------------
# the tracer


def test_tracer_self_time_and_uninstall():
    class Ns:
        @staticmethod
        def outer(n):
            return Ns.inner(n) + Ns.inner(n)

        @staticmethod
        def inner(n):
            return sum(range(n))

    original_outer, original_inner = Ns.outer, Ns.inner
    tr = tracing.Tracer()
    tr.wrap(Ns, "outer", "outer")
    tr.wrap(Ns, "inner", "inner")
    assert Ns.outer(10000) == 2 * sum(range(10000))
    tr.uninstall()
    assert Ns.outer is original_outer and Ns.inner is original_inner
    s = tr.summary()
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 2
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"])
    assert all(parent == 0 for _, _, _, parent, _ in tr.spans[1:])


def test_tracing_changes_no_result():
    data = LabeledDataset(_images(MLP.input_shape, n=64), np.arange(64) % 3)

    def run():
        model = labeling.train_nonrobust(data, MLP, epochs=3, batch_size=16)
        res = attacks.attack_cascade(model, data, PerturbationSet("linf", 0.05), CascadeConfig(
            stage1_steps=3, stage1_restarts=2, stage2_steps=3, stage2_restarts=1, top_k=1))
        return checks.fingerprint(*[v for _, v in sorted(_weights(model).items())],
                                  *[tuple(sorted(r.items())) for r in res.records])

    untraced = run()
    tr = tracing.Tracer()
    tracing.install_layers(tr)
    try:
        traced = run()
    finally:
        tr.uninstall()
    checks.check_bit_identical(untraced, traced)
    counts = tracing.call_counts(tr)
    assert counts["autodiff.backward"] == counts["optim.step"] + sum(
        1 for s in tr.spans if s[0] == "autodiff.backward" and tr.spans[s[3]][0] == "attacks.pgd")
    metrics = tracing.layer_metrics(tr)
    assert metrics["labeling.train_nonrobust.total_s"][0] > 0
    assert metrics["autodiff.conv2d.self_s"][0] == 0.0
