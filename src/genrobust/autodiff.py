"""Dense-tensor engine with reverse-mode automatic differentiation.

The engine is deliberately small: contiguous row-major numpy storage, a
handful of primitives sufficient for small SiLU classifiers and inner-loop
attack optimization, and an explicit gradient tape.

Design notes
------------
* Tensors are immutable after construction. Optimizer steps build new
  tensors instead of mutating in place.
* Every public operation validates that its result is finite; a NaN or Inf
  raises :class:`NumericError` instead of propagating silently (min-max
  loops otherwise diverge without a trace).
* The formulas the primitives share with tape-free callers live in
  plain-array helpers: the SiLU value and slope (:func:`silu_arrays`), the
  convolution forward and input scatter (:func:`conv2d_arrays`,
  :func:`conv2d_input_grad`), the label scatter and the margin's argmax
  (:func:`scatter_rows`, :func:`argmax_excluding`), the
  loss gradients toward logits (:func:`cross_entropy_grad`,
  :func:`kl_q_grad`) and the spread of a scalar gradient (:func:`spread`).
  Each primitive's forward and backward calls them, so a tape-free pass
  built from them (the models' plain forward and input gradient, the
  attack objectives) runs the same numpy expressions as the tape, bit for
  bit. Such a caller checks finiteness itself, once per pass rather than
  per op. Besides parameter stores, only the training step builds Tensors;
  the untaped ``tape=None`` path serves tests and the benchmark, and
  ``neg``, ``tsum``, ``sub``, ``gather_labels`` and ``max_excluding`` stay
  because ``perfbench/tracer.py`` binds them by name.
* A :class:`Tape` records primitives in construction order, which is a
  topological order of the computation graph; :func:`backward` replays it
  once in reverse. A tape is owned by a single logical thread and must be
  ``reset()`` before reuse.
* ``Tape(wrt=...)`` names the tensors whose gradients are wanted. Such a
  tape drops every primitive none of whose inputs depends on them, and
  primitives skip the gradients of inputs that do not (``tape.wants``).
  This only removes work: every requested gradient is bit-identical to
  the one an unrestricted tape gives.
* Broadcasting is restricted to elementwise-with-scalar plus one explicit
  row-broadcast primitive (:func:`add_bias`) used for dense-layer biases.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

__all__ = [
    "NumericError",
    "ShapeError",
    "check_finite",
    "check_labels",
    "Tensor",
    "Tape",
    "ParamStore",
    "Gradients",
    "backward",
    "add",
    "sub",
    "mul",
    "neg",
    "matmul",
    "add_bias",
    "silu",
    "reshape",
    "tsum",
    "tmean",
    "conv2d",
    "softmax",
    "log_softmax",
    "softmax_cross_entropy_rows",
    "softmax_cross_entropy",
    "kl_divergence_rows",
    "kl_divergence",
    "gather_labels",
    "max_excluding",
    "silu_arrays",
    "spread",
    "conv2d_arrays",
    "conv2d_input_grad",
    "scatter_rows",
    "argmax_excluding",
    "cross_entropy_grad",
    "kl_q_grad",
]

SINGLE = np.float32
DOUBLE = np.float64
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class NumericError(ArithmeticError):
    """A public operation produced a NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes (or dtypes) are incompatible."""


def check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in result of {what}")


class Tensor:
    """Dense row-major array of IEEE-754 values (single or double).

    Invariants: ``data`` is C-contiguous with ``data.size == prod(shape)``
    and contains only finite values.
    """

    __slots__ = ("data",)

    def __init__(self, data, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DOUBLE)
        arr = np.ascontiguousarray(arr)
        check_finite(arr, "Tensor construction")
        self.data = arr

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


Scalar = Union[int, float]
TensorLike = Union[Tensor, Scalar]


class Tape:
    """Ordered record of primitive operations and their input references.

    Appending happens in construction order, so iterating the records in
    reverse visits nodes in reverse topological order exactly once.

    With ``wrt`` given, only gradients toward those tensors are wanted: a
    tensor is live when it is in ``wrt`` or is the output of a recorded
    node, and a primitive with no live input is not recorded. The tape
    keeps a reference to every live tensor, so their ids stay unique.
    """

    __slots__ = ("_nodes", "_consumed", "_wrt", "_live")

    def __init__(self, wrt: Optional[Iterable[Tensor]] = None):
        self._nodes: list[tuple[tuple[Tensor, ...], Tensor, Callable]] = []
        self._consumed = False
        self._wrt: Optional[dict[int, Tensor]] = None
        self._live: Optional[set[int]] = None
        if wrt is not None:
            self._wrt = {id(t): t for t in wrt}
            self._live = set(self._wrt)

    def wants(self, t: Tensor) -> bool:
        """Whether a gradient toward ``t`` can reach a requested tensor."""
        return self._live is None or id(t) in self._live

    def record(
        self,
        inputs: Sequence[Tensor],
        output: Tensor,
        backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
    ) -> None:
        """Append one primitive. ``backward_fn(g_out) -> per-input grads``."""
        live = self._live
        if live is not None:
            for t in inputs:
                if id(t) in live:
                    break
            else:
                return
            live.add(id(output))
        self._nodes.append((tuple(inputs), output, backward_fn))

    def reset(self) -> None:
        self._nodes.clear()
        self._consumed = False
        if self._wrt is not None:
            self._live = set(self._wrt)

    def __len__(self) -> int:
        return len(self._nodes)


class ParamStore:
    """Named map from identifier to Tensor (parameters, EMA copies, state).

    Names are unique; the shape and dtype bound to a name are immutable
    after creation (``assign`` replaces the tensor but checks both).
    """

    __slots__ = ("_tensors",)

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def create(self, name: str, value) -> Tensor:
        if name in self._tensors:
            raise KeyError(f"parameter {name!r} already exists")
        t = value if isinstance(value, Tensor) else Tensor(value)
        self._tensors[name] = t
        return t

    def assign(self, name: str, value) -> Tensor:
        old = self._tensors[name]
        t = value if isinstance(value, Tensor) else Tensor(value)
        if t.shape != old.shape:
            raise ShapeError(
                f"parameter {name!r}: shape {t.shape} != declared {old.shape}"
            )
        if t.dtype != old.dtype:
            raise ShapeError(
                f"parameter {name!r}: dtype {t.dtype} != declared {old.dtype}"
            )
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self._tensors.items():
            out.create(name, Tensor(t.data.copy()))
        return out


class Gradients:
    """Result of :func:`backward`: gradient lookup by tensor or by name."""

    __slots__ = ("_by_id", "_wrt")

    def __init__(self, by_id: dict[int, np.ndarray], wrt: Optional[dict[int, Tensor]] = None):
        self._by_id = by_id
        self._wrt = wrt

    def wrt(self, t: Tensor) -> np.ndarray:
        """Gradient w.r.t. ``t``; zeros if ``t`` never influenced the loss.

        On a tape built with ``wrt``, asking for any other tensor raises
        ``KeyError``: its gradient was never computed.
        """
        if self._wrt is not None and self._wrt.get(id(t)) is not t:
            raise KeyError(f"gradient of {t!r} was not requested from the tape")
        g = self._by_id.get(id(t))
        if g is None:
            return np.zeros(t.shape, dtype=t.dtype)
        return g

    def for_params(self, store: ParamStore) -> dict[str, np.ndarray]:
        return {name: self.wrt(t) for name, t in store.items()}


def backward(loss: Tensor, tape: Tape) -> Gradients:
    """Reverse-mode gradients of a taped scalar loss.

    Returns exact gradients for every tensor that participated in the taped
    computation (parameters and, when taped, inputs), or, when the tape was
    built with ``wrt``, for those tensors only.
    """
    if loss.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if tape._consumed:
        raise RuntimeError("tape already consumed; call reset() before reuse")
    tape._consumed = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones(loss.shape, dtype=loss.dtype)}
    for inputs, output, backward_fn in reversed(tape._nodes):
        g_out = grads.get(id(output))
        if g_out is None:
            continue
        in_grads = backward_fn(g_out)
        for t, g in zip(inputs, in_grads):
            if g is None:
                continue
            acc = grads.get(id(t))
            if acc is None:
                grads[id(t)] = g
            else:
                grads[id(t)] = acc + g
    return Gradients(grads, tape._wrt)


# ---------------------------------------------------------------------------
# primitive helpers


def _as_pair(a: TensorLike, b: TensorLike) -> tuple[Tensor, Tensor]:
    """Coerce a (tensor, scalar) pair; scalars adopt the tensor's dtype."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if a.shape != b.shape:
            raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
        if a.dtype != b.dtype:
            raise ShapeError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
        return a, b
    if isinstance(a, Tensor):
        return a, Tensor(np.full(a.shape, float(b), dtype=a.dtype))
    if isinstance(b, Tensor):
        return Tensor(np.full(b.shape, float(a), dtype=b.dtype)), b
    raise TypeError("at least one operand must be a Tensor")


def _result(out_data: np.ndarray, what: str) -> Tensor:
    t = Tensor.__new__(Tensor)
    arr = np.ascontiguousarray(out_data)
    check_finite(arr, what)
    t.data = arr
    return t


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a: TensorLike, b: TensorLike, tape: Optional[Tape] = None) -> Tensor:
    """Elementwise sum (same shape, or tensor + scalar)."""
    ta, tb = _as_pair(a, b)
    out = _result(ta.data + tb.data, "add")
    if tape is not None:
        tape.record((ta, tb), out, lambda g: (g, g))
    return out


def sub(a: TensorLike, b: TensorLike, tape: Optional[Tape] = None) -> Tensor:
    ta, tb = _as_pair(a, b)
    out = _result(ta.data - tb.data, "sub")
    if tape is not None:
        tape.record((ta, tb), out, lambda g: (g, -g))
    return out


def mul(a: TensorLike, b: TensorLike, tape: Optional[Tape] = None) -> Tensor:
    """Elementwise product (same shape, or tensor * scalar)."""
    ta, tb = _as_pair(a, b)
    out = _result(ta.data * tb.data, "mul")
    if tape is not None:
        da, db = ta.data, tb.data
        tape.record((ta, tb), out, lambda g: (g * db, g * da))
    return out


def neg(a: Tensor, tape: Optional[Tape] = None) -> Tensor:
    out = _result(-a.data, "neg")
    if tape is not None:
        tape.record((a,), out, lambda g: (-g,))
    return out


def silu_arrays(z: np.ndarray, slope: bool = True) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """SiLU value z * sigmoid(z) and, when ``slope``, its derivative (plain arrays)."""
    # stable sigmoid in one pass: e = exp(-|z|) never overflows, and it
    # equals exp(-z) where z >= 0 and exp(z) elsewhere, so sig is
    # 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)) on the two sides
    e = np.exp(-np.abs(z))
    sig = np.where(z >= 0, 1.0, e)
    sig /= 1.0 + e
    # d/dz [z*s(z)] = s(z) * (1 + z * (1 - s(z)))
    return z * sig, (sig * (1.0 + z * (1.0 - sig)) if slope else None)


def silu(x: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Elementwise x * sigmoid(x) (Swish/SiLU)."""
    out_data, local = silu_arrays(x.data, slope=tape is not None)
    out = _result(out_data, "silu")
    if tape is not None:
        tape.record((x,), out, lambda g: (g * local,))
    return out


def reshape(x: Tensor, shape: Sequence[int], tape: Optional[Tape] = None) -> Tensor:
    new_shape = tuple(int(s) for s in shape)
    out = _result(x.data.reshape(new_shape), "reshape")
    if tape is not None:
        old_shape = x.shape
        tape.record((x,), out, lambda g: (g.reshape(old_shape),))
    return out


def spread(g: np.ndarray, shape: tuple, dtype, n: int = 1) -> np.ndarray:
    """Gradient of a sum (n = 1) or a mean over n elements toward its input,
    given the scalar gradient ``g`` of the result (plain arrays)."""
    return np.full(shape, g / n, dtype=dtype)


def tsum(x: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Sum of all elements (scalar tensor)."""
    out = _result(np.asarray(x.data.sum(), dtype=x.dtype), "tsum")
    if tape is not None:
        shape, dtype = x.shape, x.dtype
        tape.record((x,), out, lambda g: (spread(g, shape, dtype),))
    return out


def tmean(x: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Mean of all elements (scalar tensor)."""
    out = _result(np.asarray(x.data.mean(), dtype=x.dtype), "tmean")
    if tape is not None:
        shape, dtype, n = x.shape, x.dtype, x.size
        tape.record((x,), out, lambda g: (spread(g, shape, dtype, n),))
    return out


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Standard matrix product [m,k] @ [k,n] -> [m,n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if a.dtype != b.dtype:
        raise ShapeError(f"matmul dtype mismatch: {a.dtype} vs {b.dtype}")
    out = _result(a.data @ b.data, "matmul")
    if tape is not None:
        da, db = a.data, b.data
        want_a, want_b = tape.wants(a), tape.wants(b)
        tape.record(
            (a, b), out,
            lambda g: (g @ db.T if want_a else None, da.T @ g if want_b else None),
        )
    return out


def add_bias(x: Tensor, b: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Row broadcast [B,N] + [N]; the one sanctioned non-scalar broadcast."""
    if x.data.ndim != 2 or b.data.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias needs [B,N] + [N], got {x.shape} + {b.shape}")
    if x.dtype != b.dtype:
        raise ShapeError(f"add_bias dtype mismatch: {x.dtype} vs {b.dtype}")
    out = _result(x.data + b.data[None, :], "add_bias")
    if tape is not None:
        want_b = tape.wants(b)
        tape.record((x, b), out, lambda g: (g, g.sum(axis=0) if want_b else None))
    return out


# ---------------------------------------------------------------------------
# 2-D convolution (direct, small kernels, zero padding)


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    b, c = xp.shape[0], xp.shape[1]
    cols = np.empty((b, c, kh, kw, oh, ow), dtype=xp.dtype)
    for u in range(kh):
        for v in range(kw):
            cols[:, :, u, v] = xp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride]
    return cols.reshape(b, c * kh * kw, oh * ow)


def _conv_geometry(x_shape, w_shape, stride: int, padding: int) -> tuple[int, int, int, int]:
    """(padded height, padded width, output height, output width)."""
    hp, wp = x_shape[2] + 2 * padding, x_shape[3] + 2 * padding
    kh, kw = w_shape[2], w_shape[3]
    return hp, wp, (hp - kh) // stride + 1, (wp - kw) // stride + 1


def conv2d_arrays(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray]:
    """Convolution output [B,O,OH,OW] and its im2col columns (plain arrays)."""
    bs, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    hp, wp, oh, ow = _conv_geometry(x.shape, w.shape, stride, padding)
    if padding:
        xp = np.zeros((bs, c, hp, wp), dtype=x.dtype)
        xp[:, :, padding : padding + h, padding : padding + wd] = x
    else:
        xp = x
    cols = _im2col(xp, kh, kw, stride, oh, ow)  # [B, C*kh*kw, OH*OW]
    out2 = np.einsum("ok,bkn->bon", w.reshape(o, c * kh * kw), cols, optimize=True)
    out2 += b[None, :, None]
    return out2.reshape(bs, o, oh, ow), cols


def conv2d_input_grad(
    g: np.ndarray, w: np.ndarray, x_shape: tuple, stride: int, padding: int
) -> np.ndarray:
    """Gradient toward the convolution input, given g toward its output
    (plain arrays): the weights' transpose, then a scatter of the columns."""
    bs, c, h, wd = x_shape
    o, _, kh, kw = w.shape
    hp, wp, oh, ow = _conv_geometry(x_shape, w.shape, stride, padding)
    g2 = g.reshape(bs, o, oh * ow)
    gcols = np.einsum("ok,bon->bkn", w.reshape(o, c * kh * kw), g2, optimize=True)
    gcols = gcols.reshape(bs, c, kh, kw, oh, ow)
    gxp = np.zeros((bs, c, hp, wp), dtype=g.dtype)
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u : u + stride * oh : stride, v : v + stride * ow : stride] += gcols[:, :, u, v]
    if padding:
        return gxp[:, :, padding : padding + h, padding : padding + wd]
    return gxp


def conv2d(
    x: Tensor,
    w: Tensor,
    b: Tensor,
    stride: int = 1,
    padding: int = 0,
    tape: Optional[Tape] = None,
) -> Tensor:
    """Direct 2-D convolution: x [B,C,H,W], w [O,C,kh,kw], b [O].

    Zero padding, integer stride; sized for desk-scale images (<= 16x16).
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or b.data.ndim != 1:
        raise ShapeError("conv2d needs x[B,C,H,W], w[O,C,kh,kw], b[O]")
    c = x.shape[1]
    o, cw, kh, kw = w.shape
    if cw != c or b.shape[0] != o:
        raise ShapeError(f"conv2d channel mismatch: x{x.shape} w{w.shape} b{b.shape}")
    if x.dtype != w.dtype or x.dtype != b.dtype:
        raise ShapeError("conv2d dtype mismatch")
    hp, wp, _, _ = _conv_geometry(x.shape, w.shape, stride, padding)
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")

    out_data, cols = conv2d_arrays(x.data, w.data, b.data, stride, padding)
    out = _result(out_data, "conv2d")

    if tape is not None:
        want_x, want_w, want_b = tape.wants(x), tape.wants(w), tape.wants(b)

        def bwd(g: np.ndarray):
            g2 = g.reshape(g.shape[0], o, -1)
            grad_b = g2.sum(axis=(0, 2)) if want_b else None
            grad_w = None
            if want_w:
                grad_w = np.einsum("bon,bkn->ok", g2, cols, optimize=True).reshape(w.shape)
            grad_x = conv2d_input_grad(g, w.data, x.shape, stride, padding) if want_x else None
            return grad_x, grad_w, grad_b

        tape.record((x, w, b), out, bwd)
    return out


# ---------------------------------------------------------------------------
# classification losses


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log softmax, stabilized by max subtraction (plain ndarray)."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction (plain ndarray)."""
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def check_labels(labels: np.ndarray, n_rows: int, n_classes: int) -> np.ndarray:
    """Integer class labels [n_rows] in [0, n_classes), as int64."""
    lab = np.asarray(labels)
    if lab.shape != (n_rows,):
        raise ShapeError(f"labels shape {lab.shape} != ({n_rows},)")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ShapeError(f"labels must be integers, got {lab.dtype}")
    if lab.size and (lab.min() < 0 or lab.max() >= n_classes):
        raise ValueError(f"label out of range [0, {n_classes})")
    return lab.astype(np.int64)


def scatter_rows(values: np.ndarray, idx: np.ndarray, n_classes: int) -> np.ndarray:
    """[B, C] zeros with out[i, idx[i]] = values[i] (plain arrays): the
    gradient of picking one logit per row, and a one-hot for unit values."""
    out = np.zeros((len(idx), n_classes), dtype=values.dtype)
    out[np.arange(len(idx)), idx] = values
    return out


def argmax_excluding(z: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row index of the largest entry other than the label, lowest index
    first on ties (plain arrays)."""
    masked = z.copy()
    masked[np.arange(len(labels)), labels] = -np.inf
    return masked.argmax(axis=1)


def cross_entropy_grad(logp: np.ndarray, onehot: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum_i g[i] * CE_i toward the logits, from their log
    softmax and the one-hot labels (plain arrays)."""
    return (np.exp(logp) - onehot) * g[:, None]


def kl_q_grad(p: np.ndarray, logq: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of sum_i g[i] * KL(p_i || q_i) toward the q logits, from the
    p probabilities and the log softmax of q (plain arrays)."""
    return (np.exp(logq) - p) * g[:, None]


def softmax_cross_entropy_rows(
    logits: Tensor, labels: np.ndarray, tape: Optional[Tape] = None
) -> Tensor:
    """Per-row -log softmax(logits)[label], shape [B]."""
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be [B,C], got {logits.shape}")
    n, c = logits.shape
    lab = check_labels(labels, n, c)
    logp = log_softmax(logits.data)
    out = _result(-logp[np.arange(n), lab], "softmax_cross_entropy_rows")
    if tape is not None:
        onehot = scatter_rows(np.ones(n, dtype=logp.dtype), lab, c)
        tape.record((logits,), out, lambda g: (cross_entropy_grad(logp, onehot, g),))
    return out


def softmax_cross_entropy(
    logits: Tensor, labels: np.ndarray, tape: Optional[Tape] = None
) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]."""
    return tmean(softmax_cross_entropy_rows(logits, labels, tape), tape)


def kl_divergence_rows(p_logits: Tensor, q_logits: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Per-row KL(softmax(p) || softmax(q)), shape [B].

    Differentiable w.r.t. both logit arguments; pass a constant (untaped)
    tensor to stop gradients on one side.
    """
    if p_logits.shape != q_logits.shape or p_logits.data.ndim != 2:
        raise ShapeError(
            f"kl_divergence needs matching [B,C] logits, got {p_logits.shape} vs {q_logits.shape}"
        )
    logp = log_softmax(p_logits.data)
    logq = log_softmax(q_logits.data)
    p = np.exp(logp)
    per_row = (p * (logp - logq)).sum(axis=1)
    out = _result(per_row, "kl_divergence_rows")
    if tape is not None:
        want_p, want_q = tape.wants(p_logits), tape.wants(q_logits)

        def bwd(g: np.ndarray):
            gp = None
            if want_p:
                gp = p * ((logp - logq) - per_row[:, None]) * g[:, None]
            return gp, kl_q_grad(p, logq, g) if want_q else None

        tape.record((p_logits, q_logits), out, bwd)
    return out


def kl_divergence(p_logits: Tensor, q_logits: Tensor, tape: Optional[Tape] = None) -> Tensor:
    """Mean over the batch of KL(softmax(p) || softmax(q))."""
    return tmean(kl_divergence_rows(p_logits, q_logits, tape), tape)


def gather_labels(logits: Tensor, labels: np.ndarray, tape: Optional[Tape] = None) -> Tensor:
    """Per-row logit at the label index: out[i] = logits[i, labels[i]]."""
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be [B,C], got {logits.shape}")
    n, c = logits.shape
    lab = check_labels(labels, n, c)
    out = _result(logits.data[np.arange(n), lab], "gather_labels")
    if tape is not None:
        tape.record((logits,), out, lambda g: (scatter_rows(g, lab, c),))
    return out


def max_excluding(logits: Tensor, labels: np.ndarray, tape: Optional[Tape] = None) -> Tensor:
    """Per-row max over classes other than the label (C >= 2).

    The subgradient flows to the lowest-index maximizer, matching the
    argmax tie rule used everywhere else.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be [B,C], got {logits.shape}")
    n, c = logits.shape
    if c < 2:
        raise ShapeError("max_excluding needs at least 2 classes")
    lab = check_labels(labels, n, c)
    arg = argmax_excluding(logits.data, lab)
    out = _result(logits.data[np.arange(n), arg], "max_excluding")
    if tape is not None:
        tape.record((logits,), out, lambda g: (scatter_rows(g, arg, c),))
    return out
