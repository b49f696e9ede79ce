"""Correctness checks run after the timed part of each benchmark run.

Each check recomputes a result with plain numpy, independently of the
program's own code path, or tests a property the method must have. A check
raises ``CheckFailed`` with a short reason when the output is wrong.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# plain-numpy reference models (weights read from the trained parameters)


def _silu(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return z / (1.0 + np.exp(-z))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _mlp_layers(weights: dict) -> int:
    n = 0
    while f"w{n}" in weights:
        n += 1
    return n


def mlp_forward(weights: dict, images: np.ndarray) -> np.ndarray:
    """Logits of the dense SiLU stack: weights w0, b0, w1, b1, ..."""
    h = np.asarray(images, dtype=np.float64).reshape(len(images), -1)
    n = _mlp_layers(weights)
    for i in range(n):
        h = h @ weights[f"w{i}"] + weights[f"b{i}"]
        if i < n - 1:
            h = _silu(h)
    return h


def _conv_s2p1(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """3x3 cross-correlation, stride 2, zero padding 1, one kernel tap at a time."""
    bs, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh, ow = (h + 2 - kh) // 2 + 1, (wd + 2 - kw) // 2 + 1
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((bs, oh, ow, o))
    for u in range(kh):
        for v in range(kw):
            patch = xp[:, :, u : u + 2 * oh : 2, v : v + 2 * ow : 2]  # [B,C,OH,OW]
            out += np.tensordot(patch, w[:, :, u, v], axes=([1], [1]))
    return out.transpose(0, 3, 1, 2) + b[None, :, None, None]


def cnn_forward(weights: dict, images: np.ndarray) -> np.ndarray:
    """Logits of the two-conv small CNN: conv0, conv1 (stride 2, pad 1), fc."""
    h = _silu(_conv_s2p1(np.asarray(images, dtype=np.float64), weights["conv0.w"], weights["conv0.b"]))
    h = _silu(_conv_s2p1(h, weights["conv1.w"], weights["conv1.b"]))
    return h.reshape(len(h), -1) @ weights["fc.w"] + weights["fc.b"]


def reference_forward(kind: str, weights: dict, images: np.ndarray) -> np.ndarray:
    return mlp_forward(weights, images) if kind == "mlp" else cnn_forward(weights, images)


# ---------------------------------------------------------------------------
# analytic input gradients and a plain-numpy PGD for the attack-strength check


def _silu_grad(z: np.ndarray) -> np.ndarray:
    s = _sigmoid(z)
    return s * (1.0 + z * (1.0 - s))


def _mlp_input_backprop(weights: dict, x: np.ndarray, logit_grad) -> tuple[np.ndarray, np.ndarray]:
    h = x.reshape(len(x), -1)
    n = _mlp_layers(weights)
    pre = []
    for i in range(n):
        z = h @ weights[f"w{i}"] + weights[f"b{i}"]
        if i < n - 1:
            pre.append(z)
            h = _silu(z)
        else:
            h = z
    logits = h
    g = logit_grad(logits)
    for i in range(n - 1, -1, -1):
        g = g @ weights[f"w{i}"].T
        if i > 0:
            g = g * _silu_grad(pre[i - 1])
    return logits, g.reshape(x.shape)


def _conv_s2p1_input_grad(g: np.ndarray, w: np.ndarray, x_shape: tuple) -> np.ndarray:
    """d loss / d input of ``_conv_s2p1``, given d loss / d output ``g`` [B,O,OH,OW]."""
    bs, c, h, wd = x_shape
    _, _, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    gxp = np.zeros((bs, c, h + 2, wd + 2))
    for u in range(kh):
        for v in range(kw):
            tap = np.tensordot(g, w[:, :, u, v], axes=([1], [0]))  # [B,OH,OW,C]
            gxp[:, :, u : u + 2 * oh : 2, v : v + 2 * ow : 2] += tap.transpose(0, 3, 1, 2)
    return gxp[:, :, 1:-1, 1:-1]


def _cnn_input_backprop(weights: dict, x: np.ndarray, logit_grad) -> tuple[np.ndarray, np.ndarray]:
    z0 = _conv_s2p1(x, weights["conv0.w"], weights["conv0.b"])
    h0 = _silu(z0)
    z1 = _conv_s2p1(h0, weights["conv1.w"], weights["conv1.b"])
    h1 = _silu(z1)
    logits = h1.reshape(len(x), -1) @ weights["fc.w"] + weights["fc.b"]
    g = (logit_grad(logits) @ weights["fc.w"].T).reshape(h1.shape) * _silu_grad(z1)
    g = _conv_s2p1_input_grad(g, weights["conv1.w"], h0.shape) * _silu_grad(z0)
    return logits, _conv_s2p1_input_grad(g, weights["conv0.w"], x.shape)


def input_gradient(kind: str, weights: dict, images: np.ndarray, logit_grad) -> tuple[np.ndarray, np.ndarray]:
    """(logits, d loss / d input) by the analytic chain rule.

    ``logit_grad(logits)`` gives d loss / d logits, as ``d_cross_entropy``
    and ``d_margin`` build it.
    """
    backprop = _mlp_input_backprop if kind == "mlp" else _cnn_input_backprop
    return backprop(weights, np.asarray(images, dtype=np.float64), logit_grad)


def d_cross_entropy(labels: np.ndarray):
    """d (summed cross-entropy) / d logits."""
    def grad(logits):
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(labels)), labels] -= 1.0
        return p
    return grad


def d_margin(labels: np.ndarray, targets: np.ndarray):
    """d (summed z_target - z_label) / d logits."""
    def grad(logits):
        g = np.zeros_like(logits)
        g[np.arange(len(labels)), targets] += 1.0
        g[np.arange(len(labels)), labels] -= 1.0
        return g
    return grad


def _per_example_l2(delta: np.ndarray) -> np.ndarray:
    return np.sqrt((delta.reshape(len(delta), -1) ** 2).sum(axis=1)).reshape((-1,) + (1,) * (delta.ndim - 1))


def _random_start(norm: str, epsilon: float, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    if norm == "linf":
        return rng.uniform(-epsilon, epsilon, size=shape)
    direction = rng.normal(size=shape)
    norms = _per_example_l2(direction)
    radius = epsilon * rng.uniform(size=norms.shape) ** (1.0 / np.prod(shape[1:]))
    return direction / norms * radius


def _project(delta: np.ndarray, norm: str, epsilon: float) -> np.ndarray:
    if norm == "linf":
        return np.clip(delta, -epsilon, epsilon)
    return delta * np.minimum(1.0, epsilon / np.maximum(_per_example_l2(delta), 1e-300))


def _pgd_survives(kind, weights, x, labels, logit_grad, rng, norm, epsilon, optimizer, steps,
                  restarts, step_size) -> np.ndarray:
    """Projected gradient ascent on the loss ``logit_grad`` defines.

    Sign steps or Adam steps, each restart from a uniform draw from the
    ball. An example survives if the model still predicts its label at the
    end of every restart.
    """
    survived = np.ones(len(x), dtype=bool)
    for _ in range(restarts):
        delta = _project(_random_start(norm, epsilon, x.shape, rng), norm, epsilon)
        delta = np.clip(x + delta, 0.0, 1.0) - x
        m, v = np.zeros_like(x), np.zeros_like(x)
        for t in range(1, steps + 1):
            _, g = input_gradient(kind, weights, x + delta, logit_grad)
            if optimizer == "sign-sgd":
                delta = delta + step_size * np.sign(g)
            else:
                m, v = 0.9 * m + 0.1 * g, 0.999 * v + 0.001 * g * g
                delta = delta + step_size * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            delta = _project(delta, norm, epsilon)
            delta = np.clip(x + delta, 0.0, 1.0) - x
        survived &= np.argmax(reference_forward(kind, weights, x + delta), axis=1) == labels
    return survived


def numpy_stage1_survival(kind: str, weights: dict, images, labels, rng, **attack) -> np.ndarray:
    """Per example: clean-correct and unbroken by untargeted cross-entropy PGD.

    ``attack`` holds norm, epsilon, optimizer, steps, restarts and step_size.
    """
    x = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    clean = np.argmax(reference_forward(kind, weights, x), axis=1) == labels
    return clean & _pgd_survives(kind, weights, x, labels, d_cross_entropy(labels), rng, **attack)


def numpy_stage2_survival(kind: str, weights: dict, images, labels, survivors, top_k: int, rng,
                          **attack) -> np.ndarray:
    """Per example: among ``survivors``, unbroken by targeted-margin PGD.

    The targets are the top_k wrong classes ranked by clean logit, tried in
    that order; an example broken by one target is not attacked again.
    """
    x = np.asarray(images, dtype=np.float64)
    labels = np.asarray(labels)
    clean_logits = reference_forward(kind, weights, x)
    masked = clean_logits.copy()
    masked[np.arange(len(x)), labels] = -np.inf
    order = np.argsort(-masked, axis=1, kind="stable")
    alive = np.asarray(survivors, dtype=bool).copy()
    for rank in range(min(top_k, clean_logits.shape[1] - 1)):
        idx = np.flatnonzero(alive)
        if not len(idx):
            break
        ys = labels[idx]
        alive[idx] = _pgd_survives(kind, weights, x[idx], ys, d_margin(ys, order[idx, rank]), rng, **attack)
    return alive


# ---------------------------------------------------------------------------
# the checks


def check_clean_predictions(kind: str, weights: dict, images, labels, clean_correct) -> None:
    pred = np.argmax(reference_forward(kind, weights, images), axis=1)
    expected = pred == np.asarray(labels)
    got = np.asarray(clean_correct, dtype=bool)
    mismatch = int(np.sum(expected != got))
    _require(mismatch == 0, f"clean_correct disagrees with a numpy forward on {mismatch} examples")


def check_stage_nesting(clean_correct, stage1_survived, stage2_survived) -> None:
    c, s1, s2 = (np.asarray(a, dtype=bool) for a in (clean_correct, stage1_survived, stage2_survived))
    _require(not np.any(s1 & ~c), "an example survives stage 1 without being clean-correct")
    _require(not np.any(s2 & ~s1), "an example survives stage 2 without surviving stage 1")


def check_attack_strength(stage: str, cascade_rate: float, reference_rate: float, slack: float) -> None:
    _require(
        cascade_rate <= reference_rate + slack,
        f"{stage}: the cascade leaves {cascade_rate:.4f} of the examples unbroken, an independent "
        f"numpy PGD {reference_rate:.4f}; the gap is over the slack {slack}",
    )


def check_robustness_gain(robust: float, labeler_robust: float) -> None:
    _require(
        robust > labeler_robust,
        f"robust training gave {robust:.4f}, not above the non-robust labeler's {labeler_robust:.4f}",
    )


def check_l2_ball(x, delta, epsilon: float, rel_tol: float = 1e-9) -> None:
    """||delta||_2 <= epsilon up to rounding, and x + delta inside [0, 1].

    Clipping x + delta to [0, 1] after the projection can leave the norm a
    few ulps above epsilon; ``rel_tol`` admits that and nothing larger.
    """
    x, delta = np.asarray(x, dtype=np.float64), np.asarray(delta, dtype=np.float64)
    norms = np.sqrt((delta.reshape(len(delta), -1) ** 2).sum(axis=1))
    _require(bool(np.all(norms <= epsilon * (1.0 + rel_tol))),
             f"l2 norm {norms.max():.17g} exceeds epsilon {epsilon}")
    adv = x + delta
    _require(adv.min() >= 0.0 and adv.max() <= 1.0, "x + delta leaves [0, 1]")


def check_pseudo_labels(weights: dict, images, pseudo_labels) -> None:
    expected = np.argmax(mlp_forward(weights, images), axis=1)
    mismatch = int(np.sum(expected != np.asarray(pseudo_labels)))
    _require(mismatch == 0, f"{mismatch} pseudo-labels differ from the labeler's argmax")


def _nearest(queries: np.ndarray, refs: np.ndarray, skip_diag: bool):
    """Exact nearest neighbours against every reference point.

    All pairwise squared distances come from one Gram product; every
    reference within a rounding margin of a query's minimum is then
    re-measured as sum((r - q)^2), and the least of those (lowest index on
    ties) is the neighbour.
    """
    qq = (queries**2).sum(axis=1)
    rr = (refs**2).sum(axis=1)
    gram = qq[:, None] + rr[None, :] - 2.0 * (queries @ refs.T)
    if skip_diag:
        np.fill_diagonal(gram, np.inf)
    margin = 1e-9 * (qq[:, None] + rr.max()) + 1e-12
    near = gram <= gram.min(axis=1, keepdims=True) + margin
    mins = np.empty(len(queries))
    args = np.empty(len(queries), dtype=np.int64)
    for i in range(len(queries)):
        cand = np.flatnonzero(near[i])
        d = ((refs[cand] - queries[i]) ** 2).sum(axis=1)
        j = int(np.argmin(d))
        mins[i], args[i] = d[j], cand[j]
    return mins, args


def nn_figures(train_f, test_f, gen_f) -> dict:
    """Complementarity and coverage by brute force, ties to train, test, self."""
    train_f, test_f, gen_f = (np.asarray(a, dtype=np.float64) for a in (train_f, test_f, gen_f))
    n = len(gen_f)
    d_tr, a_tr = _nearest(gen_f, train_f, False)
    d_te, a_te = _nearest(gen_f, test_f, False)
    d_se, _ = _nearest(gen_f, gen_f, True)
    to_train = (d_tr <= d_te) & (d_tr <= d_se)
    to_test = ~to_train & (d_te <= d_se)
    return {
        "c_train": int(to_train.sum()) / n,
        "c_test": int(to_test.sum()) / n,
        "c_self": int((~to_train & ~to_test).sum()) / n,
        "v_train": len(np.unique(a_tr)) / n,
        "v_test": len(np.unique(a_te)) / n,
    }


def check_nn_figures(train_f, test_f, gen_f, report) -> None:
    expected = nn_figures(train_f, test_f, gen_f)
    for name, value in expected.items():
        got = getattr(report, name)
        _require(got == value, f"{name} = {got!r}, brute force gives {value!r}")


def fid_reference(a, b) -> float:
    """Frechet distance with tr sqrt(Sa Sb) from the eigenvalues of Sa Sb."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    sa, sb = np.atleast_2d(np.cov(a, rowvar=False)), np.atleast_2d(np.cov(b, rowvar=False))
    eig = np.linalg.eigvals(sa @ sb).real
    diff = a.mean(axis=0) - b.mean(axis=0)
    return float(diff @ diff + np.trace(sa) + np.trace(sb) - 2.0 * np.sqrt(np.clip(eig, 0.0, None)).sum())


def check_fid(a, b, value: float, rel: float = 1e-6) -> None:
    _require(value >= 0.0, f"FID {value} is negative")
    ref = fid_reference(a, b)
    _require(abs(value - ref) <= rel * max(1.0, abs(ref)), f"FID {value!r} != eigenvalue reference {ref!r}")


def check_container_crc(path: str) -> None:
    """The trailing CRC-32 of a container file matches its body."""
    with open(path, "rb") as fh:
        blob = fh.read()
    _require(len(blob) > 4, f"{path} is truncated")
    stored = struct.unpack("<I", blob[-4:])[0]
    _require(stored == (zlib.crc32(blob[:-4]) & 0xFFFFFFFF), f"{path}: CRC mismatch")


def check_pixels(images, what: str) -> None:
    images = np.asarray(images)
    _require(images.size > 0, f"{what}: no images")
    _require(images.min() >= 0.0 and images.max() <= 1.0, f"{what}: pixel outside [0, 1]")


def check_bit_identical(untraced: str, traced: str) -> None:
    _require(untraced == traced, "results with tracing on differ from results with it off")


def check_layers_used(counts: dict, required, unused=()) -> None:
    missing = sorted(name for name in required if counts.get(name, 0) == 0)
    _require(not missing, f"layers the workload must use report zero calls: {missing}")
    extra = sorted(name for name in unused if counts.get(name, 0) != 0)
    _require(not extra, f"layers the workload must not use report calls: {extra}")


def fingerprint(*parts) -> str:
    """SHA-256 over arrays, bytes and reprs, in order."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str(p.dtype).encode() + str(p.shape).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, bytes):
            h.update(p)
        else:
            h.update(repr(p).encode())
    return h.hexdigest()
