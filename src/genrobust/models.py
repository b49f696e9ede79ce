"""Small SiLU classifiers (MLP and small CNN) with EMA weight averaging.

Architectures stand in for large residual networks at desk scale; the
capacity axis of the experiments is the hidden width, not depth. No batch
norm anywhere: the min-max training loop stays stateless between train
and eval modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

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
    "forward_penultimate",
    "ema_update",
    "ema_snapshot",
    "accuracy",
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
    ema_params: Optional[ParamStore] = field(default=None)

    def __post_init__(self):
        if self.ema_params is not None:
            if set(self.ema_params.names()) != set(self.params.names()):
                raise ValueError("params and ema_params must share names")


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
    """Fan-in-scaled normal initialization; EMA copy starts equal to params."""
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
    return Classifier(config=config, params=params, ema_params=params.copy())


def _forward_mlp(
    params: ParamStore, config: ModelConfig, x: Tensor, tape: Optional[Tape]
) -> tuple[Tensor, Tensor]:
    b = x.shape[0]
    h = ad.reshape(x, (b, config.input_dim), tape)
    n_layers = len(config.hidden) + 1
    penult = h
    for i in range(n_layers):
        if i == n_layers - 1:
            penult = h
        h = ad.add_bias(ad.matmul(h, params[f"w{i}"], tape), params[f"b{i}"], tape)
        if i < n_layers - 1:
            h = ad.silu(h, tape)
    return h, penult


def _forward_cnn(
    params: ParamStore, config: ModelConfig, x: Tensor, tape: Optional[Tape]
) -> tuple[Tensor, Tensor]:
    b = x.shape[0]
    h = ad.silu(ad.conv2d(x, params["conv0.w"], params["conv0.b"], stride=2, padding=1, tape=tape), tape)
    h = ad.silu(ad.conv2d(h, params["conv1.w"], params["conv1.b"], stride=2, padding=1, tape=tape), tape)
    flat = ad.reshape(h, (b, _cnn_flat_dim(config)), tape)
    logits = ad.add_bias(ad.matmul(flat, params["fc.w"], tape), params["fc.b"], tape)
    return logits, flat


def _run(params, config, x, tape):
    """Returns (logits, penultimate activations)."""
    if x.data.ndim != 4 or x.shape[1:] != config.input_shape:
        raise ad.ShapeError(
            f"input shape {x.shape} does not match (B, {config.input_shape})"
        )
    if config.kind == "mlp":
        return _forward_mlp(params, config, x, tape)
    return _forward_cnn(params, config, x, tape)


def _coerce_input(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        if x.dtype != dtype:
            return Tensor(x.data.astype(dtype))
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def forward_logits(
    model: Classifier,
    x,
    use_ema: bool = False,
    tape: Optional[Tape] = None,
) -> Tensor:
    """Logits [B, C_out]; taped when a tape is supplied. Pure w.r.t. params."""
    params = model.ema_params if use_ema else model.params
    if params is None:
        raise ValueError("model has no EMA parameters")
    xt = _coerce_input(x, model.config.dtype)
    logits, _ = _run(params, model.config, xt, tape)
    return logits


def forward_penultimate(model: Classifier, x, use_ema: bool = False) -> np.ndarray:
    """Penultimate-layer activations (feature embedder backbone); untaped."""
    params = model.ema_params if use_ema else model.params
    xt = _coerce_input(x, model.config.dtype)
    _, penult = _run(params, model.config, xt, None)
    return penult.data


def ema_update(model: Classifier, tau: float) -> None:
    """ema <- tau * ema + (1 - tau) * params, per tensor."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if model.ema_params is None:
        raise ValueError("model has no EMA parameters")
    for name, t in model.params.items():
        old = model.ema_params[name].data
        model.ema_params.assign(name, Tensor(tau * old + (1.0 - tau) * t.data))


def ema_snapshot(model: Classifier) -> Classifier:
    """A new classifier whose parameters and EMA copy both hold model's EMA weights."""
    out = Classifier(config=model.config, params=model.ema_params.copy(), ema_params=None)
    out.ema_params = out.params.copy()
    return out


def predict_labels(model: Classifier, images: np.ndarray, use_ema: bool = False, batch: int = 256) -> np.ndarray:
    """Argmax class per image; ties break toward the lowest class index."""
    out = []
    for start in range(0, images.shape[0], batch):
        logits = forward_logits(model, images[start : start + batch], use_ema=use_ema)
        out.append(np.argmax(logits.data, axis=1))
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def accuracy(model: Classifier, data: LabeledDataset, use_ema: bool = False) -> float:
    if len(data) == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    pred = predict_labels(model, data.images, use_ema=use_ema)
    return float(np.mean(pred == data.labels))


# ---------------------------------------------------------------------------
# checkpoints: named-tensor map plus a metadata record


def save_checkpoint(path, model: Classifier, step: int = 0, config_hash: str = "") -> None:
    entries = {}
    for name, t in model.params.items():
        entries[f"param:{name}"] = t.data
    if model.ema_params is not None:
        for name, t in model.ema_params.items():
            entries[f"ema:{name}"] = t.data
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


def _check_params(store: ParamStore, expected: ParamStore, what: str) -> None:
    """Raise ValueError at the first name, shape or dtype that differs from
    what the model config declares."""
    for name, want in expected.items():
        if name not in store:
            raise ValueError(f"checkpoint lacks {what} {name!r}")
        got = store[name]
        if got.shape != want.shape:
            raise ValueError(
                f"checkpoint {what} {name!r}: shape {got.shape} != {want.shape} of the model config"
            )
        if got.dtype != want.dtype:
            raise ValueError(
                f"checkpoint {what} {name!r}: dtype {got.dtype} != {want.dtype} of the model config"
            )
    for name in store.names():
        if name not in expected:
            raise ValueError(f"checkpoint has {what} {name!r}, which the model config lacks")


def load_checkpoint(path) -> tuple[Classifier, int]:
    entries = load_container(path)
    if "meta:model_config" not in entries:
        raise ValueError(f"{path}: not a checkpoint (no model config)")
    raw = json.loads(decode_metadata(entries["meta:model_config"]))
    config = ModelConfig(
        kind=raw["kind"],
        input_shape=tuple(raw["input_shape"]),
        num_classes=raw["num_classes"],
        hidden=tuple(raw["hidden"]),
        channels=tuple(raw["channels"]),
        seed=raw["seed"],
        precision=raw["precision"],
    )
    params = ParamStore()
    ema = ParamStore()
    for key, arr in entries.items():
        if key.startswith("param:"):
            params.create(key[len("param:") :], np.asarray(arr))
        elif key.startswith("ema:"):
            ema.create(key[len("ema:") :], np.asarray(arr))
    expected = init(config).params
    _check_params(params, expected, "parameter")
    if len(ema):
        _check_params(ema, expected, "EMA parameter")
    model = Classifier(config=config, params=params, ema_params=ema if len(ema) else params.copy())
    step = int(decode_metadata(entries["meta:step"])) if "meta:step" in entries else 0
    return model, step
