"""Core tensor-engine tests: hand values, oracle comparisons, gradient checks."""

import numpy as np
import pytest

from genrobust import autodiff as ad
from genrobust import models
from genrobust.autodiff import (
    NumericError,
    ShapeError,
    Tape,
    Tensor,
    backward,
)

from test_models import CNN, MLP


def finite_diff(f, arr, index, h=1e-6):
    """Central finite difference of scalar f at one array entry (double)."""
    plus = arr.copy()
    plus[index] += h
    minus = arr.copy()
    minus[index] -= h
    return (f(plus) - f(minus)) / (2.0 * h)


def rel_err(a, b, floor=1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0], [4.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[3.0], [4.0]])


def test_matmul_hand():
    out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    got = ad.matmul(Tensor(a), Tensor(b)).data
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for k in range(5):
                acc += a[i, k] * b[k, j]
            want[i, j] = acc
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_matmul_gradients():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))

    def loss_a(arr):
        return float((arr @ b).sum())

    ta, tb = Tensor(a), Tensor(b)
    tape = Tape()
    out = ad.matmul(ta, tb, tape)
    loss = ad.tsum(out, tape)
    grads = backward(loss, tape)
    ga = grads.wrt(ta)
    for idx in [(0, 0), (1, 2), (2, 3)]:
        assert rel_err(ga[idx], finite_diff(loss_a, a, idx)) < 1e-7


# ---------------------------------------------------------------------------
# silu


def test_silu_at_zero():
    assert ad.silu(Tensor([0.0])).data[0] == 0.0


def test_silu_saturates():
    x = 40.0
    out = ad.silu(Tensor([x])).data[0]
    assert rel_err(out, x) < 1e-6


def test_silu_gradient_finite_difference():
    x = np.array([1.0])

    def f(arr):
        return float(ad.silu(Tensor(arr)).data.sum())

    t = Tensor(x)
    tape = Tape()
    loss = ad.tsum(ad.silu(t, tape), tape)
    g = backward(loss, tape).wrt(t)[0]
    fd = finite_diff(f, x, (0,), h=1e-6)
    assert rel_err(g, fd) < 1e-7


def test_silu_extreme_negative_is_finite():
    out = ad.silu(Tensor([-1000.0]))
    assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_ce_uniform_logits():
    logits = Tensor(np.zeros((4, 10)))
    labels = np.array([0, 3, 5, 9])
    loss = ad.softmax_cross_entropy(logits, labels)
    assert abs(loss.item() - np.log(10.0)) < 1e-12


def test_ce_stabilized_no_overflow():
    logits = Tensor(np.array([[1e6, 0.0]]))
    loss = ad.softmax_cross_entropy(logits, np.array([0]))
    assert abs(loss.item()) < 1e-9


def test_ce_against_direct_formula():
    rng = np.random.default_rng(11)
    z = rng.normal(scale=3.0, size=(8, 5))
    labels = rng.integers(0, 5, size=8)
    got = ad.softmax_cross_entropy(Tensor(z), labels).item()
    total = 0.0
    for i in range(8):
        row = z[i]
        p = np.exp(row) / np.exp(row).sum()
        total += -np.log(p[labels[i]])
    assert abs(got - total / 8) < 1e-10


def test_ce_label_out_of_range():
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_ce_gradient_finite_difference():
    rng = np.random.default_rng(12)
    z = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)

    def f(arr):
        return ad.softmax_cross_entropy(Tensor(arr), labels).item()

    t = Tensor(z)
    tape = Tape()
    loss = ad.softmax_cross_entropy(t, labels, tape)
    g = backward(loss, tape).wrt(t)
    for idx in [(0, 0), (2, 3), (4, 1)]:
        assert rel_err(g[idx], finite_diff(f, z, idx)) < 1e-6


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_identical_logits_zero():
    z = Tensor(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]))
    assert ad.kl_divergence(z, z).item() == 0.0


def test_kl_nonnegative():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = Tensor(rng.normal(scale=4.0, size=(3, 6)))
        q = Tensor(rng.normal(scale=4.0, size=(3, 6)))
        assert ad.kl_divergence(p, q).item() >= -1e-9


def test_kl_against_direct_sum():
    rng = np.random.default_rng(5)
    zp = rng.normal(size=(4, 3))
    zq = rng.normal(size=(4, 3))
    got = ad.kl_divergence(Tensor(zp), Tensor(zq)).item()
    total = 0.0
    for i in range(4):
        p = np.exp(zp[i]) / np.exp(zp[i]).sum()
        q = np.exp(zq[i]) / np.exp(zq[i]).sum()
        for c in range(3):
            total += p[c] * (np.log(p[c]) - np.log(q[c]))
    assert abs(got - total / 4) < 1e-10


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.kl_divergence(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_kl_gradients_both_sides():
    rng = np.random.default_rng(6)
    zp = rng.normal(size=(3, 4))
    zq = rng.normal(size=(3, 4))
    tp, tq = Tensor(zp), Tensor(zq)
    tape = Tape()
    loss = ad.kl_divergence(tp, tq, tape)
    grads = backward(loss, tape)
    gp, gq = grads.wrt(tp), grads.wrt(tq)

    def f_p(arr):
        return ad.kl_divergence(Tensor(arr), Tensor(zq)).item()

    def f_q(arr):
        return ad.kl_divergence(Tensor(zp), Tensor(arr)).item()

    for idx in [(0, 0), (1, 3), (2, 2)]:
        assert rel_err(gp[idx], finite_diff(f_p, zp, idx)) < 1e-6
        assert rel_err(gq[idx], finite_diff(f_q, zq, idx)) < 1e-6


def test_per_row_losses_values_and_weighted_gradients():
    """Per-row CE and KL: rows match the direct formulas, and a non-uniform
    weighting of the rows back-propagates to every argument."""
    rng = np.random.default_rng(7)
    zp = rng.normal(size=(4, 3))
    zq = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)
    weights = Tensor(rng.uniform(0.5, 2.0, size=4))
    logp, logq = ad.log_softmax(zp), ad.log_softmax(zq)
    ce = ad.softmax_cross_entropy_rows(Tensor(zp), labels)
    assert np.allclose(ce.data, -logp[np.arange(4), labels], atol=1e-12)
    kl = ad.kl_divergence_rows(Tensor(zp), Tensor(zq))
    assert np.allclose(kl.data, (np.exp(logp) * (logp - logq)).sum(axis=1), atol=1e-12)

    def weighted(a, b, tape=None):
        rows = ad.add(
            ad.softmax_cross_entropy_rows(a, labels, tape), ad.kl_divergence_rows(a, b, tape), tape
        )
        return ad.tsum(ad.mul(rows, weights, tape), tape)

    tp, tq = Tensor(zp), Tensor(zq)
    tape = Tape()
    grads = backward(weighted(tp, tq, tape), tape)
    for idx in [(0, 0), (1, 2), (3, 1)]:
        fd_p = finite_diff(lambda arr: weighted(Tensor(arr), Tensor(zq)).item(), zp, idx)
        fd_q = finite_diff(lambda arr: weighted(Tensor(zp), Tensor(arr)).item(), zq, idx)
        assert rel_err(grads.wrt(tp)[idx], fd_p) < 1e-6
        assert rel_err(grads.wrt(tq)[idx], fd_q) < 1e-6


# ---------------------------------------------------------------------------
# backward plumbing


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    tape = Tape()
    loss = ad.tsum(x, tape)
    g = backward(loss, tape).wrt(x)
    assert np.array_equal(g, np.ones((2, 3)))


def test_tmean_value_and_gradient():
    x = Tensor(np.array([1.0, 2.0, 3.0, 6.0]))
    tape = Tape()
    loss = ad.tmean(x, tape)
    assert loss.item() == 3.0
    g = backward(loss, tape).wrt(x)
    assert np.array_equal(g, np.full(4, 0.25))


def test_backward_square():
    x = Tensor([3.0])
    tape = Tape()
    loss = ad.tsum(ad.mul(x, x, tape), tape)
    assert backward(loss, tape).wrt(x)[0] == 6.0


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)))
    tape = Tape()
    y = ad.mul(x, 2.0, tape)
    with pytest.raises(ShapeError):
        backward(y, tape)


def test_tape_consumed_twice():
    x = Tensor([1.0])
    tape = Tape()
    loss = ad.tsum(ad.mul(x, x, tape), tape)
    backward(loss, tape)
    with pytest.raises(RuntimeError):
        backward(loss, tape)
    tape.reset()
    loss2 = ad.tsum(ad.mul(x, x, tape), tape)
    backward(loss2, tape)


def test_unreached_tensor_gets_zeros():
    x = Tensor(np.ones(3))
    y = Tensor(np.ones(3))
    tape = Tape()
    loss = ad.tsum(ad.mul(x, 2.0, tape), tape)
    g = backward(loss, tape)
    assert np.array_equal(g.wrt(y), np.zeros(3))


def test_two_layer_silu_network_gradcheck():
    """100 random parameter probes, central differences, rel err < 1e-5."""
    rng = np.random.default_rng(42)
    w1 = rng.normal(scale=0.5, size=(6, 8))
    b1 = rng.normal(scale=0.1, size=8)
    w2 = rng.normal(scale=0.5, size=(8, 3))
    b2 = rng.normal(scale=0.1, size=3)
    x = rng.normal(size=(5, 6))
    labels = rng.integers(0, 3, size=5)

    def run(w1a, b1a, w2a, b2a, tape=None):
        h = ad.silu(ad.add_bias(ad.matmul(Tensor(x), w1a, tape), b1a, tape), tape)
        logits = ad.add_bias(ad.matmul(h, w2a, tape), b2a, tape)
        return ad.softmax_cross_entropy(logits, labels, tape)

    tw1, tb1, tw2, tb2 = Tensor(w1), Tensor(b1), Tensor(w2), Tensor(b2)
    tape = Tape()
    loss = run(tw1, tb1, tw2, tb2, tape)
    grads = backward(loss, tape)
    analytic = {
        "w1": grads.wrt(tw1),
        "b1": grads.wrt(tb1),
        "w2": grads.wrt(tw2),
        "b2": grads.wrt(tb2),
    }
    params = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}

    probe_rng = np.random.default_rng(43)
    checked = 0
    while checked < 100:
        name = ["w1", "b1", "w2", "b2"][probe_rng.integers(0, 4)]
        arr = params[name]
        idx = tuple(probe_rng.integers(0, s) for s in arr.shape)

        def f(a, name=name):
            vals = dict(params)
            vals[name] = a
            return run(
                Tensor(vals["w1"]), Tensor(vals["b1"]), Tensor(vals["w2"]), Tensor(vals["b2"])
            ).item()

        fd = finite_diff(f, arr, idx, h=1e-5)
        assert rel_err(analytic[name][idx], fd, floor=1e-8) < 1e-5
        checked += 1


# ---------------------------------------------------------------------------
# conv2d


def conv2d_naive(x, w, b, stride, padding):
    bs, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    xp = np.zeros((bs, c, hp, wp))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    out = np.zeros((bs, o, oh, ow))
    for n in range(bs):
        for m in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = b[m]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, ci, i * stride + u, j * stride + v] * w[m, ci, u, v]
                    out[n, m, i, j] = acc
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_against_naive(stride, padding):
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 6, 6))
    w = rng.normal(size=(4, 3, 3, 3))
    b = rng.normal(size=4)
    got = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding).data
    want = conv2d_naive(x, w, b, stride, padding)
    assert np.max(np.abs(got - want)) < 1e-12


def test_conv2d_gradcheck():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 2, 5, 5))
    w = rng.normal(scale=0.5, size=(3, 2, 3, 3))
    b = rng.normal(scale=0.1, size=3)

    tx, tw, tb = Tensor(x), Tensor(w), Tensor(b)
    tape = Tape()
    out = ad.conv2d(tx, tw, tb, stride=2, padding=1, tape=tape)
    loss = ad.tsum(ad.mul(out, out, tape), tape)
    grads = backward(loss, tape)

    def f(which, arr):
        vals = {"x": x, "w": w, "b": b}
        vals[which] = arr
        o = ad.conv2d(Tensor(vals["x"]), Tensor(vals["w"]), Tensor(vals["b"]), stride=2, padding=1)
        return float((o.data**2).sum())

    probe_rng = np.random.default_rng(10)
    for which, arr, g in [("x", x, grads.wrt(tx)), ("w", w, grads.wrt(tw)), ("b", b, grads.wrt(tb))]:
        for _ in range(6):
            idx = tuple(probe_rng.integers(0, s) for s in arr.shape)
            fd = finite_diff(lambda a: f(which, a), arr, idx, h=1e-5)
            assert rel_err(g[idx], fd, floor=1e-8) < 1e-5


# ---------------------------------------------------------------------------
# bit-identity of the one-pass SiLU and of gradient masking


def _silu_masked_reference(z):
    """The former two-mask SiLU: values and local derivative."""
    sig = np.empty_like(z)
    pos = z >= 0
    sig[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    sig[~pos] = ez / (1.0 + ez)
    return z * sig, sig * (1.0 + z * (1.0 - sig))


SILU_EXTREMES = [0.0, 1e-300, 5e-324, 88.0, 104.0, 700.0, 745.0, 800.0, 1e30]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_silu_bitwise_equal_to_masked_formula(dtype):
    rng = np.random.default_rng(31)
    scale = 10.0 ** rng.uniform(-3, 2, size=20000)
    extremes = np.array(SILU_EXTREMES)
    z = np.concatenate([scale * rng.choice([-1.0, 1.0], size=scale.size), extremes, -extremes])
    z = z.astype(dtype)
    want_out, want_local = _silu_masked_reference(z)
    x = Tensor(z)
    tape = Tape()
    out = ad.silu(x, tape)
    local = backward(ad.tsum(out, tape), tape).wrt(x)
    bits = np.int32 if dtype == np.float32 else np.int64
    assert out.dtype == local.dtype == dtype
    # compared as bit patterns, so signed zeros must match too
    assert np.array_equal(out.data.view(bits), want_out.view(bits))
    assert np.array_equal(local.view(bits), want_local.view(bits))

    # Tensors refuse non-finite data, so these go through the plain arrays:
    # NaN in gives NaN out in value and slope (payloads are not compared),
    # and +-inf give the reference's values and NaN slopes
    z = np.array([np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0], dtype=dtype)
    with np.errstate(invalid="ignore"):  # inf * 0
        out, local = ad.silu_arrays(z)
        want_out, want_local = _silu_masked_reference(z)
    assert out.dtype == local.dtype == dtype
    assert np.isnan(out[:2]).all() and np.isnan(local[:2]).all()
    for got, want in ((out, want_out), (local, want_local)):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert np.array_equal(got[finite].view(bits), want[finite].view(bits))


# ---------------------------------------------------------------------------
# bit-identity of the conv matmuls with the einsum forms they replaced


def _einsum_conv(x, w, b, stride, padding):
    """The former conv forward: [B, C*kh*kw, OH*OW] columns through einsum.
    Returns the output and the columns."""
    bs, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    hp, wp = h + 2 * padding, wd + 2 * padding
    oh, ow = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    xp = np.zeros((bs, c, hp, wp), dtype=x.dtype)
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    cols = np.empty((bs, c, kh, kw, oh, ow), dtype=x.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, :, u, v] = xp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
    cols = cols.reshape(bs, c * kh * kw, oh * ow)
    out = np.einsum("ok,bkn->bon", w.reshape(o, c * kh * kw), cols, optimize=True)
    out += b[None, :, None]
    return out.reshape(bs, o, oh, ow), cols


def _einsum_conv_grads(g, w, x_shape, cols, stride, padding):
    """The former conv gradients toward input, weights and bias, given g
    toward the output and the columns of :func:`_einsum_conv`."""
    bs, c, h, wd = x_shape
    o, _, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    g2 = g.reshape(bs, o, oh * ow)
    gcols = np.einsum("ok,bon->bkn", w.reshape(o, c * kh * kw), g2, optimize=True)
    gcols = gcols.reshape(bs, c, kh, kw, oh, ow)
    gxp = np.zeros((bs, c, h + 2 * padding, wd + 2 * padding), dtype=g.dtype)
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride] += gcols[:, :, u, v]
    grad_x = gxp[:, :, padding : padding + h, padding : padding + wd]
    grad_w = np.einsum("bon,bkn->ok", g2, cols, optimize=True).reshape(w.shape)
    return grad_x, grad_w, g2.sum(axis=(0, 2))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int32 if a.dtype == np.float32 else np.int64)


# the small CNN's two 3x3, stride-2, pad-1 layers: at 3x16x16 with channels
# (8, 16), and at criterion 1's 1x8x8 with channels (3, 5)
CONV_LAYERS = [(3, 8, 16), (8, 16, 8), (1, 3, 8), (3, 5, 4)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c,o,hw", CONV_LAYERS, ids=[f"{c}to{o}-{hw}" for c, o, hw in CONV_LAYERS])
def test_conv_bitwise_equal_to_einsum_forms(c, o, hw, dtype):
    """Forward, input gradient and the taped gradients equal the einsum
    forms bit for bit. The forward and weight gradient keep einsum's operand
    layouts (a transposed view at batch 1, a C-ordered copy otherwise); a
    matmul on another layout differs in the last bits at some batch here."""
    rng = np.random.default_rng(c * 100 + o)
    w = rng.normal(scale=0.3, size=(o, c, 3, 3)).astype(dtype)
    b = rng.normal(scale=0.1, size=o).astype(dtype)
    for bs in (0, 1, 7, 32, 64):
        x = rng.uniform(size=(bs, c, hw, hw)).astype(dtype)
        want, cols = _einsum_conv(x, w, b, 2, 1)
        got, _ = ad.conv2d_arrays(x, w, b, 2, 1)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want)), bs
        g = rng.normal(size=want.shape).astype(dtype)
        want_grads = _einsum_conv_grads(g, w, x.shape, cols, 2, 1)
        assert np.array_equal(_bits(ad.conv2d_input_grad(g, w, x.shape, 2, 1)), _bits(want_grads[0])), bs
        tx, tw, tb = Tensor(x), Tensor(w), Tensor(b)
        tape = Tape()
        out = ad.conv2d(tx, tw, tb, stride=2, padding=1, tape=tape)
        grads = backward(ad.tsum(ad.mul(out, Tensor(g), tape), tape), tape)  # g toward out
        for t, want_grad in zip((tx, tw, tb), want_grads):
            got_grad = grads.wrt(t)
            assert got_grad.dtype == dtype and got_grad.shape == t.shape
            assert np.array_equal(_bits(got_grad), _bits(want_grad)), bs


def _model_loss(model, x_t, tape, loss="ce", anchor=None):
    logits = models.forward_logits(model, x_t, tape=tape)
    if loss == "kl":  # TRADES' outer KL term: a constant anchor against the logits
        return ad.kl_divergence(anchor, logits, tape)
    labels = np.arange(x_t.shape[0]) % model.config.num_classes
    return ad.softmax_cross_entropy(logits, labels, tape)


@pytest.mark.parametrize("cfg", [MLP, CNN], ids=["mlp", "cnn"])
def test_masked_tape_gradients_equal_unmasked(cfg):
    model = models.init(cfg)
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(6, *cfg.input_shape))
    x_t = Tensor(x)
    anchor = Tensor(rng.normal(size=(6, cfg.num_classes)))
    for loss in ("ce", "kl"):
        full = Tape()
        full_grads = backward(_model_loss(model, x_t, full, loss, anchor), full)

        input_tape = Tape(wrt=(x_t,))
        input_grads = backward(_model_loss(model, x_t, input_tape, loss, anchor), input_tape)
        assert np.array_equal(input_grads.wrt(x_t), full_grads.wrt(x_t)), loss

        param_tape = Tape(wrt=[t for _, t in model.params.items()])
        param_grads = backward(_model_loss(model, x_t, param_tape, loss, anchor), param_tape)
        for name, g in param_grads.for_params(model.params).items():
            assert np.array_equal(g, full_grads.wrt(model.params[name])), (loss, name)
        if cfg.kind == "mlp":
            assert len(param_tape) == len(full) - 1  # the input reshape is dropped
        if loss == "kl":
            # only the unrestricted tape computes a gradient toward the anchor
            assert np.any(full_grads.wrt(anchor) != 0)
            for grads in (input_grads, param_grads):
                assert id(anchor) not in grads._by_id


def test_masked_tape_records_no_node_without_live_input():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(4, 2)))
    c = Tensor(rng.normal(size=(3, 4)))
    tape = Tape(wrt=(x,))
    ad.matmul(c, w, tape)  # no live input: dropped
    assert len(tape) == 0
    h = ad.matmul(x, w, tape)
    ad.tsum(ad.add(h, 1.0, tape), tape)
    assert len(tape) == 3
    tape.reset()
    ad.tsum(h, tape)  # h belonged to the tape before reset; now it is constant
    assert len(tape) == 0

    model = models.init(MLP)
    x_t = Tensor(rng.uniform(size=(4, *MLP.input_shape)))
    tape = Tape(wrt=(x_t,))
    _model_loss(model, x_t, tape)
    live = {id(x_t)}
    for inputs, output, _ in tape._nodes:
        assert any(id(t) in live for t in inputs)
        live.add(id(output))


def test_masked_tape_gradient_outside_wrt_raises():
    x = Tensor(np.ones(3))
    y = Tensor(np.full(3, 2.0))
    tape = Tape(wrt=(x,))
    loss = ad.tsum(ad.mul(x, y, tape), tape)
    grads = backward(loss, tape)
    assert np.array_equal(grads.wrt(x), np.full(3, 2.0))
    with pytest.raises(KeyError):
        grads.wrt(y)
    with pytest.raises(KeyError):
        grads.wrt(Tensor(np.ones(3)))  # equal values, another tensor


# ---------------------------------------------------------------------------
# label-indexed primitives


def test_gather_and_max_excluding_values():
    z = Tensor(np.array([[3.0, 1.0, 2.0], [0.0, 5.0, 5.0]]))
    labels = np.array([0, 1])
    assert ad.gather_labels(z, labels).data.tolist() == [3.0, 5.0]
    # row 1 excludes class 1; max over {0.0, 5.0} is 5.0
    assert ad.max_excluding(z, labels).data.tolist() == [2.0, 5.0]


def test_max_excluding_gradient_ties_lowest_index():
    z = np.array([[1.0, 4.0, 4.0]])
    t = Tensor(z)
    tape = Tape()
    out = ad.max_excluding(t, np.array([0]), tape)
    loss = ad.tsum(out, tape)
    g = backward(loss, tape).wrt(t)
    assert g.tolist() == [[0.0, 1.0, 0.0]]


# ---------------------------------------------------------------------------
# invariants


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(13)
    z = rng.normal(scale=10.0, size=(20, 7))
    s = ad.softmax(z)
    assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-6


def test_log_softmax_finite_for_finite_logits():
    z = np.array([[1e4, -1e4, 0.0], [-700.0, 700.0, 0.0]])
    assert np.all(np.isfinite(ad.log_softmax(z)))


def test_nan_raises():
    with pytest.raises(NumericError):
        Tensor([np.nan])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        ad.mul(Tensor([1e308]), Tensor([1e308]))


def test_determinism_bit_identical():
    rng1 = np.random.default_rng(99)
    rng2 = np.random.default_rng(99)
    a1, b1 = rng1.normal(size=(4, 4)), rng1.normal(size=(4, 4))
    a2, b2 = rng2.normal(size=(4, 4)), rng2.normal(size=(4, 4))
    o1 = ad.silu(ad.matmul(Tensor(a1), Tensor(b1))).data
    o2 = ad.silu(ad.matmul(Tensor(a2), Tensor(b2))).data
    assert np.array_equal(o1, o2)


def test_param_store_unique_names_and_shape_lock():
    store = ad.ParamStore()
    store.create("w", np.zeros((2, 2)))
    with pytest.raises(KeyError):
        store.create("w", np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        store.assign("w", np.zeros((3, 2)))
    store.assign("w", np.ones((2, 2)))
    assert store["w"].data[0, 0] == 1.0
