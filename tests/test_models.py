"""Classifier tests: init determinism, forward purity, EMA algebra, accuracy."""

from dataclasses import replace

import numpy as np
import pytest

from genrobust import autodiff as ad
from genrobust import models
from genrobust.autodiff import Tape, Tensor, backward
from genrobust.container import encode_metadata, load_container, save_container
from genrobust.data import LabeledDataset, derive_rng
from genrobust.models import Classifier, ModelConfig


MLP = ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=3, hidden=(8, 8), seed=1)
CNN = ModelConfig(kind="small-cnn", input_shape=(1, 8, 8), num_classes=4, channels=(4, 8), seed=2)


def test_init_deterministic():
    a = models.init(MLP)
    b = models.init(MLP)
    for name, t in a.params.items():
        assert np.array_equal(t.data, b.params[name].data)


def test_zero_hidden_width_rejected():
    with pytest.raises(ValueError):
        ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=3, hidden=(0,))
    with pytest.raises(ValueError):
        ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=3, hidden=())


def test_one_class_rejected():
    with pytest.raises(ValueError):
        ModelConfig(kind="mlp", input_shape=(1, 4, 4), num_classes=1)


def test_forward_on_zeros_is_finite():
    for cfg in (MLP, CNN):
        m = models.init(cfg)
        x = np.zeros((2, *cfg.input_shape))
        logits = models.forward_logits(m, x)
        assert logits.shape == (2, cfg.num_classes)
        assert np.all(np.isfinite(logits.data))


def test_batch_independence():
    m = models.init(CNN)
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(8, *CNN.input_shape))
    full = models.forward_logits(m, x).data
    row3 = models.forward_logits(m, x[3:4]).data
    assert np.max(np.abs(full[3] - row3[0])) < 1e-6


def test_pixel_sensitivity():
    m = models.init(CNN, rng=derive_rng("sens", 0))
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(1, *CNN.input_shape))
    base = models.forward_logits(m, x).data
    x2 = x.copy()
    x2[0, 0, 3, 3] += 0.25
    bumped = models.forward_logits(m, x2).data
    assert np.max(np.abs(bumped - base)) > 0


def test_ema_update_tau_zero_copies_params():
    m = models.init(MLP)
    ema = m.params.copy()
    for name in m.params.names():
        m.params.assign(name, Tensor(m.params[name].data + 1.0))
    models.ema_update(ema, m.params, 0.0)
    for name, t in m.params.items():
        assert np.array_equal(ema[name].data, t.data)


def test_ema_update_tau_one_freezes():
    m = models.init(MLP)
    ema = m.params.copy()
    before = {n: t.data.copy() for n, t in ema.items()}
    for name in m.params.names():
        m.params.assign(name, Tensor(m.params[name].data + 1.0))
    models.ema_update(ema, m.params, 1.0)
    for name in m.params.names():
        assert np.array_equal(ema[name].data, before[name])


def test_ema_closed_form_recurrence():
    """Constant params over k updates: ema = params + tau^k (ema0 - params)."""
    m = models.init(MLP)
    tau = 0.9
    rng = np.random.default_rng(3)
    ema = m.params.copy()
    ema0 = {}
    for name in m.params.names():
        offset = rng.normal(size=m.params[name].shape)
        ema0[name] = m.params[name].data + offset
        ema.assign(name, Tensor(ema0[name]))
    k = 7
    for _ in range(k):
        models.ema_update(ema, m.params, tau)
    for name, t in m.params.items():
        expected = t.data + tau**k * (ema0[name] - t.data)
        assert np.max(np.abs(ema[name].data - expected)) < 1e-10


def test_ema_tau_out_of_range():
    m = models.init(MLP)
    with pytest.raises(ValueError):
        models.ema_update(m.params.copy(), m.params, 1.5)


def test_ema_contraction():
    m = models.init(MLP)
    rng = np.random.default_rng(4)
    ema = m.params.copy()
    for name in m.params.names():
        ema.assign(name, Tensor(m.params[name].data + rng.normal(size=m.params[name].shape)))

    def gap():
        return sum(float(np.sum((ema[n].data - t.data) ** 2)) for n, t in m.params.items())

    prev = gap()
    for _ in range(5):
        models.ema_update(ema, m.params, 0.8)
        cur = gap()
        assert cur <= prev + 1e-15
        prev = cur


def test_forward_is_pure():
    m = models.init(CNN)
    snapshot = {n: t.data.copy() for n, t in m.params.items()}
    x = np.random.default_rng(0).uniform(size=(4, *CNN.input_shape))
    tape = Tape()
    logits = models.forward_logits(m, x, tape=tape)
    backward(ad.tsum(logits, tape), tape)
    for name, t in m.params.items():
        assert np.array_equal(t.data, snapshot[name])


def test_accuracy_perfect_and_complement():
    cfg = ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=2, hidden=(4,), seed=9)
    m = models.init(cfg)
    rng = np.random.default_rng(6)
    images = rng.uniform(size=(40, 1, 2, 2))
    pred = models.predict_labels(m, images)
    ds_match = LabeledDataset(images, pred)
    assert models.accuracy(m, ds_match) == 1.0
    ds_inverted = LabeledDataset(images, 1 - pred)
    assert models.accuracy(m, ds_inverted) == pytest.approx(1.0 - models.accuracy(m, ds_match))


def test_accuracy_empty_dataset_rejected():
    m = models.init(MLP)
    empty = LabeledDataset(np.zeros((0, *MLP.input_shape)), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        models.accuracy(m, empty)


def test_untrained_accuracy_near_chance():
    cfg = ModelConfig(
        kind="mlp", input_shape=(1, 4, 4), num_classes=10, hidden=(16,), seed=123
    )
    m = models.init(cfg)
    rng = np.random.default_rng(7)
    images = rng.uniform(size=(1000, 1, 4, 4))
    labels = rng.integers(0, 10, size=1000)
    acc = models.accuracy(m, LabeledDataset(images, labels))
    assert abs(acc - 0.1) < 0.03


def test_shape_mismatch_raises():
    m = models.init(MLP)
    with pytest.raises(ad.ShapeError):
        models.forward_logits(m, np.zeros((2, 1, 5, 5)))


def test_checkpoint_round_trip_reproduces_logits(tmp_path):
    m = models.init(CNN)
    rng = np.random.default_rng(17)
    x = rng.uniform(size=(3, *CNN.input_shape))
    before = models.forward_logits(m, x).data
    path = tmp_path / "ckpt.grtc"
    models.save_checkpoint(path, m, step=42, config_hash="feed")
    assert sorted(k.split(":")[0] for k in load_container(path)) == ["meta"] * 3 + ["param"] * 6
    loaded, step = models.load_checkpoint(path)
    assert step == 42
    assert np.array_equal(models.forward_logits(loaded, x).data, before)


def test_load_checkpoint_ignores_the_ema_entries_of_older_checkpoints(tmp_path):
    """Older checkpoints also stored an ``ema:`` copy of every parameter
    (equal to its ``param:`` entry); loading reads the ``param:`` entries."""
    m = models.init(CNN)
    x = np.random.default_rng(17).uniform(size=(3, *CNN.input_shape))
    path = tmp_path / "ckpt.grtc"
    models.save_checkpoint(path, m, step=7)
    entries = load_container(path)
    entries.update({f"ema:{name}": t.data for name, t in m.params.items()})
    save_container(path, entries)
    loaded, step = models.load_checkpoint(path)
    assert step == 7 and loaded.params.names() == m.params.names()
    assert np.array_equal(models.forward_logits(loaded, x).data, models.forward_logits(m, x).data)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("param:w1", np.zeros((8, 9)), "shape"),
        ("meta:model_config", np.array([0xFF], dtype=np.uint32), "not UTF-8"),
        ("param:w9", np.zeros((2, 2)), "lacks"),
        ("param:b1", None, "lacks"),
        ("param:b0", np.zeros(8, dtype=np.float32), "dtype"),
        ("meta:model_config", encode_metadata("{kind: mlp}"), "JSONDecodeError"),
        ("meta:model_config", encode_metadata('{"hidden": [8, 8]}'), "KeyError: 'kind'"),
    ],
)
def test_load_checkpoint_rejects_parameters_that_differ_from_config(tmp_path, key, value, message):
    path = tmp_path / "ckpt.grtc"
    models.save_checkpoint(path, models.init(MLP))
    entries = load_container(path)
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    save_container(path, entries)
    name = key.split(":")[1]
    with pytest.raises(ValueError, match=f"{name!r}.*{message}|{message}.*{name!r}") as err:
        models.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_load_checkpoint_rejects_a_container_without_model_config(tmp_path):
    path = tmp_path / "data.grtc"
    save_container(path, {"param:w0": np.zeros((16, 8))})
    with pytest.raises(ValueError, match="not a checkpoint"):
        models.load_checkpoint(path)


def test_gradcheck_through_both_architectures():
    """Random parameter probes through full model graphs match finite differences."""
    rng = np.random.default_rng(21)
    for cfg in (MLP, CNN):
        m = models.init(cfg)
        x = rng.uniform(size=(3, *cfg.input_shape))
        labels = rng.integers(0, cfg.num_classes, size=3)
        tape = Tape()
        loss = ad.softmax_cross_entropy(models.forward_logits(m, x, tape=tape), labels, tape)
        grads = backward(loss, tape)

        def loss_at(name, arr):
            saved = m.params[name].data
            m.params.assign(name, Tensor(arr))
            try:
                return ad.softmax_cross_entropy(
                    models.forward_logits(m, x), labels
                ).item()
            finally:
                m.params.assign(name, Tensor(saved))

        for name, t in m.params.items():
            g = grads.wrt(t)
            arr = t.data
            for _ in range(3):
                idx = tuple(rng.integers(0, s) for s in arr.shape)
                plus = arr.copy()
                plus[idx] += 1e-5
                minus = arr.copy()
                minus[idx] -= 1e-5
                fd = (loss_at(name, plus) - loss_at(name, minus)) / 2e-5
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                assert abs(fd - g[idx]) / denom < 1e-5


def _taped_forward(m, x):
    """Logits and penultimate features of a taped Tensor forward, built from
    the autodiff primitives layer by layer."""
    cfg, tape, p = m.config, Tape(), m.params
    h = Tensor(np.asarray(x, dtype=cfg.dtype))
    if cfg.kind == "mlp":
        h = ad.reshape(h, (len(x), cfg.input_dim), tape)
        for i in range(len(cfg.hidden)):
            h = ad.silu(ad.add_bias(ad.matmul(h, p[f"w{i}"], tape), p[f"b{i}"], tape), tape)
        w, b = p[f"w{len(cfg.hidden)}"], p[f"b{len(cfg.hidden)}"]
    else:
        for layer in ("conv0", "conv1"):
            conv = ad.conv2d(h, p[f"{layer}.w"], p[f"{layer}.b"], stride=2, padding=1, tape=tape)
            h = ad.silu(conv, tape)
        h = ad.reshape(h, (len(x), p["fc.w"].shape[0]), tape)
        w, b = p["fc.w"], p["fc.b"]
    logits = models.forward_logits(m, x, tape=Tape())
    assert np.array_equal(ad.add_bias(ad.matmul(h, w, tape), b, tape).data, logits.data)
    return logits.data, h.data


@pytest.mark.parametrize(
    "cfg",
    [MLP, CNN, replace(MLP, precision="single"), replace(CNN, precision="single")],
    ids=["mlp", "small-cnn", "mlp-single", "small-cnn-single"],
)
def test_predict_logits_equals_forward_per_256_rows(cfg):
    """predict_logits and forward_penultimate equal the taped Tensor forward
    run per 256 rows, bit for bit and in the model dtype, on two sets of
    weights, at 0, 1 and 600 (256 + 256 + 88) rows."""
    m = models.init(cfg)
    scaled = models.Classifier(cfg, m.params.copy())  # a second model with other weights
    for name, t in m.params.items():
        scaled.params.assign(name, Tensor(t.data * np.asarray(0.75, dtype=t.dtype)))
    images = np.random.default_rng(3).uniform(size=(600, *cfg.input_shape))
    for n in (0, 1, 600):
        for model in (m, scaled):
            rows = images[:n]
            blocks = [_taped_forward(model, rows[s : s + 256]) for s in range(0, max(n, 1), 256)]
            want_logits = np.concatenate([z for z, _ in blocks])
            want_features = np.concatenate([f for _, f in blocks])
            got_logits = models.predict_logits(model, rows)
            got_features = models.forward_penultimate(model, rows)
            for got, want in ((got_logits, want_logits), (got_features, want_features)):
                assert got.dtype == want.dtype == cfg.dtype
                assert got.shape == want.shape and got.shape[0] == n
                assert np.array_equal(got, want), (n, model is scaled)
