"""Small SiLU classifiers (MLP and small CNN) with EMA weight averaging.

Architectures stand in for large residual networks at desk scale; the
capacity axis of the experiments is the hidden width, not depth. No batch
norm anywhere: the min-max training loop stays stateless between train
and eval modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import json

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tape, Tensor
from .container import decode_metadata, load_container, metadata_entries, save_container
from .data import LabeledDataset, derive_rng

__all__ = [
    "ModelConfig",
    "Classifier",
    "init",
    "forward_logits",
    "forward_arrays",
    "forward_penultimate",
    "input_gradient",
    "ema_update",
    "accuracy",
    "predict_logits",
    "predict_labels",
    "save_checkpoint",
    "load_checkpoint",
]

_KINDS = ("mlp", "small-cnn")
_PRECISIONS = {"single": np.float32, "double": np.float64}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture description.

    kind: "mlp" (dense SiLU stack) or "small-cnn" (2 conv + 1 dense).
    hidden: dense widths for the MLP; channels: conv channels for the CNN.
    """

    kind: str
    input_shape: tuple  # (C, H, W)
    num_classes: int
    hidden: tuple = (128, 128)
    channels: tuple = (8, 16)
    seed: int = 0
    precision: str = "double"

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(s) for s in self.input_shape))
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if len(self.input_shape) != 3 or any(s <= 0 for s in self.input_shape):
            raise ValueError(f"bad input shape {self.input_shape}")
        if self.num_classes < 2:
            raise ValueError("class count must be >= 2")
        if self.precision not in _PRECISIONS:
            raise ValueError(f"precision must be single or double, got {self.precision!r}")
        if self.kind == "mlp" and (not self.hidden or any(h <= 0 for h in self.hidden)):
            raise ValueError("mlp needs at least one positive hidden width")
        if self.kind == "small-cnn":
            if len(self.channels) != 2 or any(c <= 0 for c in self.channels):
                raise ValueError("small-cnn needs two positive channel counts")

    @property
    def dtype(self):
        return _PRECISIONS[self.precision]

    @property
    def input_dim(self) -> int:
        c, h, w = self.input_shape
        return c * h * w


@dataclass
class Classifier:
    config: ModelConfig
    params: ParamStore


def _dense_init(rng, fan_in: int, fan_out: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    w = rng.normal(scale=1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
    return w.astype(dtype), np.zeros(fan_out, dtype=dtype)


def _conv_init(rng, c_in: int, c_out: int, k: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    fan_in = c_in * k * k
    w = rng.normal(scale=1.0 / np.sqrt(fan_in), size=(c_out, c_in, k, k))
    return w.astype(dtype), np.zeros(c_out, dtype=dtype)


def _cnn_flat_dim(config: ModelConfig) -> int:
    _, h, w = config.input_shape
    for _ in range(2):  # two stride-2, pad-1, 3x3 convs
        h = (h + 2 - 3) // 2 + 1
        w = (w + 2 - 3) // 2 + 1
    if h < 1 or w < 1:
        raise ValueError(f"input {config.input_shape} too small for small-cnn")
    return config.channels[1] * h * w


def init(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> Classifier:
    """Fan-in-scaled normal initialization."""
    if rng is None:
        rng = derive_rng("model-init", config.seed)
    dtype = config.dtype
    params = ParamStore()
    if config.kind == "mlp":
        dims = [config.input_dim, *config.hidden, config.num_classes]
        for i in range(len(dims) - 1):
            w, b = _dense_init(rng, dims[i], dims[i + 1], dtype)
            params.create(f"w{i}", w)
            params.create(f"b{i}", b)
    else:
        c_in = config.input_shape[0]
        w0, b0 = _conv_init(rng, c_in, config.channels[0], 3, dtype)
        w1, b1 = _conv_init(rng, config.channels[0], config.channels[1], 3, dtype)
        params.create("conv0.w", w0)
        params.create("conv0.b", b0)
        params.create("conv1.w", w1)
        params.create("conv1.b", b1)
        wf, bf = _dense_init(rng, _cnn_flat_dim(config), config.num_classes, dtype)
        params.create("fc.w", wf)
        params.create("fc.b", bf)
    return Classifier(config=config, params=params)


def _forward_mlp(params: ParamStore, config: ModelConfig, x: Tensor, tape: Optional[Tape]) -> Tensor:
    h = ad.reshape(x, (x.shape[0], config.input_dim), tape)
    n_layers = len(config.hidden) + 1
    for i in range(n_layers):
        h = ad.add_bias(ad.matmul(h, params[f"w{i}"], tape), params[f"b{i}"], tape)
        if i < n_layers - 1:
            h = ad.silu(h, tape)
    return h


def _forward_cnn(params: ParamStore, config: ModelConfig, x: Tensor, tape: Optional[Tape]) -> Tensor:
    h = ad.silu(ad.conv2d(x, params["conv0.w"], params["conv0.b"], stride=2, padding=1, tape=tape), tape)
    h = ad.silu(ad.conv2d(h, params["conv1.w"], params["conv1.b"], stride=2, padding=1, tape=tape), tape)
    flat = ad.reshape(h, (x.shape[0], _cnn_flat_dim(config)), tape)
    return ad.add_bias(ad.matmul(flat, params["fc.w"], tape), params["fc.b"], tape)


def _check_input_shape(shape: tuple, config: ModelConfig) -> None:
    if len(shape) != 4 or shape[1:] != config.input_shape:
        raise ad.ShapeError(f"input shape {shape} does not match (B, {config.input_shape})")


def _coerce_input(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        if x.dtype != dtype:
            return Tensor(x.data.astype(dtype))
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def forward_logits(model: Classifier, x, *, tape: Optional[Tape] = None) -> Tensor:
    """Logits [B, C_out] as a taped Tensor, the training step's forward; pure
    w.r.t. params. Untaped passes use :func:`forward_arrays`: the same bits."""
    xt = _coerce_input(x, model.config.dtype)
    _check_input_shape(xt.shape, model.config)
    forward = _forward_mlp if model.config.kind == "mlp" else _forward_cnn
    return forward(model.params, model.config, xt, tape)


def _forward_arrays(p: dict, config: ModelConfig, x, slopes: bool = False) -> tuple:
    """One plain-array forward: (logits, penultimate features, each SiLU
    slope when ``slopes``, else None), each step the numpy expression of the
    matching primitive, so the bits are those of :func:`forward_logits`.
    Only the logits are checked finite: a NaN or Inf anywhere upstream
    reaches them, so overflowing weights still raise ``NumericError``."""
    x = np.ascontiguousarray(x, dtype=config.dtype)
    _check_input_shape(x.shape, config)
    kept = [] if slopes else None

    def act(z):
        h, slope = ad.silu_arrays(z, slope=slopes)
        if slopes:
            kept.append(slope)
        return h

    if config.kind == "mlp":
        h = x.reshape(x.shape[0], config.input_dim)
        for i in range(len(config.hidden)):
            h = act(h @ p[f"w{i}"] + p[f"b{i}"][None, :])
        w, b = p[f"w{len(config.hidden)}"], p[f"b{len(config.hidden)}"]
    else:
        h = act(ad.conv2d_arrays(x, p["conv0.w"], p["conv0.b"], 2, 1)[0])
        h = act(ad.conv2d_arrays(h, p["conv1.w"], p["conv1.b"], 2, 1)[0])
        h = h.reshape(x.shape[0], _cnn_flat_dim(config))
        w, b = p["fc.w"], p["fc.b"]
    logits = h @ w + b[None, :]
    ad.check_finite(logits, "model logits")
    return logits, h, kept


def _arrays(model: Classifier) -> dict:
    return {name: t.data for name, t in model.params.items()}


def forward_arrays(model: Classifier, x) -> tuple[np.ndarray, np.ndarray]:
    """Untaped (logits [B, C_out], penultimate features [B, F]) of one
    forward over the whole batch, as plain arrays; no Tensor is built."""
    logits, features, _ = _forward_arrays(_arrays(model), model.config, x)
    return logits, features


def input_gradient(
    model: Classifier,
    x: np.ndarray,
    logit_grad: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Gradient toward the input x [B,C,H,W] (model dtype) of a loss whose
    gradient toward the logits is ``logit_grad(logits)``; no tape.

    The shared plain forward keeps each SiLU slope, then the chain rule runs
    back to the input in the tape's order, with the expressions of the
    primitives' backward, so the result is bit-identical to ``backward``
    over a ``Tape(wrt=(x,))`` of ``forward_logits``. The caller checks the
    returned gradient finite.
    """
    config = model.config
    p = _arrays(model)
    logits, _, slopes = _forward_arrays(p, config, x, slopes=True)
    g = logit_grad(logits)
    if config.kind == "mlp":
        for i in reversed(range(len(config.hidden) + 1)):
            g = g @ p[f"w{i}"].T
            if i:
                g = g * slopes[i - 1]
        return g.reshape(x.shape)
    g = (g @ p["fc.w"].T).reshape(slopes[1].shape)
    g = ad.conv2d_input_grad(g * slopes[1], p["conv1.w"], slopes[0].shape, 2, 1)
    return ad.conv2d_input_grad(g * slopes[0], p["conv0.w"], x.shape, 2, 1)


# rows per untaped inference forward; bounds the activations held at once
_INFER_ROWS = 256


def _untaped_rows(fn, images: np.ndarray) -> np.ndarray:
    """fn over blocks of _INFER_ROWS rows, joined; an empty input still gets
    one (empty) forward, so the result keeps its trailing shape and dtype."""
    starts = range(0, max(len(images), 1), _INFER_ROWS)
    return np.concatenate([fn(images[s : s + _INFER_ROWS]) for s in starts])


def forward_penultimate(model: Classifier, x) -> np.ndarray:
    """Penultimate-layer activations (feature embedder backbone); untaped,
    one forward per 256 rows."""
    return _untaped_rows(lambda rows: forward_arrays(model, rows)[1], x)


def ema_update(ema: ParamStore, params: ParamStore, tau: float) -> None:
    """ema <- tau * ema + (1 - tau) * params, per tensor, in place."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    for name, t in params.items():
        ema.assign(name, Tensor(tau * ema[name].data + (1.0 - tau) * t.data))


def predict_logits(model: Classifier, images: np.ndarray) -> np.ndarray:
    """Untaped logits [N, C_out], one forward per 256 rows."""
    return _untaped_rows(lambda rows: forward_arrays(model, rows)[0], images)


def predict_labels(model: Classifier, images: np.ndarray) -> np.ndarray:
    """Argmax class per image; ties break toward the lowest class index."""
    return np.argmax(predict_logits(model, images), axis=1)


def accuracy(model: Classifier, data: LabeledDataset) -> float:
    if len(data) == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    pred = predict_labels(model, data.images)
    return float(np.mean(pred == data.labels))


# ---------------------------------------------------------------------------
# checkpoints: named-tensor map plus a metadata record


def save_checkpoint(path, model: Classifier, step: int = 0, config_hash: str = "") -> None:
    entries = {f"param:{name}": t.data for name, t in model.params.items()}
    cfg = model.config
    meta = {
        "model_config": json.dumps(
            {
                "kind": cfg.kind,
                "input_shape": list(cfg.input_shape),
                "num_classes": cfg.num_classes,
                "hidden": list(cfg.hidden),
                "channels": list(cfg.channels),
                "seed": cfg.seed,
                "precision": cfg.precision,
            }
        ),
        "step": str(int(step)),
        "config_hash": config_hash,
    }
    entries.update(metadata_entries(meta))
    save_container(path, entries)


def _check_params(path, store: ParamStore, expected: ParamStore) -> None:
    """Raise ValueError at the first name, shape or dtype that differs from
    what the model config declares."""
    for name, want in expected.items():
        if name not in store:
            raise ValueError(f"{path}: checkpoint lacks parameter {name!r}")
        got = store[name]
        if got.shape != want.shape:
            raise ValueError(
                f"{path}: parameter {name!r}: shape {got.shape} != {want.shape} of the model config"
            )
        if got.dtype != want.dtype:
            raise ValueError(
                f"{path}: parameter {name!r}: dtype {got.dtype} != {want.dtype} of the model config"
            )
    for name in store.names():
        if name not in expected:
            raise ValueError(f"{path}: checkpoint has parameter {name!r}, which the model config lacks")


def _model_config(text: str) -> ModelConfig:
    raw = json.loads(text)
    return ModelConfig(
        kind=raw["kind"],
        input_shape=tuple(raw["input_shape"]),
        num_classes=raw["num_classes"],
        hidden=tuple(raw["hidden"]),
        channels=tuple(raw["channels"]),
        seed=raw["seed"],
        precision=raw["precision"],
    )


def load_checkpoint(path) -> tuple[Classifier, int]:
    """(model, step) from a checkpoint's ``param:`` and ``meta:`` entries;
    other entries (the ``ema:`` copies of older checkpoints) are ignored."""
    entries = load_container(path)
    if "meta:model_config" not in entries:
        raise ValueError(f"{path}: not a checkpoint (no model config)")

    def meta(key: str, parse):
        try:
            return parse(decode_metadata(entries[f"meta:{key}"]))
        except (ValueError, KeyError, TypeError) as exc:  # ContainerError and JSON errors are ValueErrors
            message = f"{path}: bad checkpoint metadata {key!r} ({type(exc).__name__}: {exc})"
            raise ValueError(message) from None

    config = meta("model_config", _model_config)
    step = meta("step", int) if "meta:step" in entries else 0
    params = ParamStore()
    for key, arr in entries.items():
        if key.startswith("param:"):
            params.create(key[len("param:") :], np.asarray(arr))
    _check_params(path, params, init(config).params)
    return Classifier(config=config, params=params), step
