"""The benchmark's tracer wraps program functions by module attribute.

``perfbench/tracer.py`` rebinds names such as ``attacks.backward`` or
``labeling.backward`` in each module that holds them. A refactor that
drops one of those names would only show in a traced benchmark run; this
test installs and removes every wrapper instead. The hooks also read
arguments by position or keyword (``ema_update`` by name, the tape of
``forward_logits`` as ``args[3]`` or ``kwargs["tape"]``), so a traced
training run checks the counts they record.
"""

import importlib.util
import os

import numpy as np

from genrobust import attacks, autodiff, labeling, models, training
from genrobust.data import LabeledDataset
from genrobust.training import EarlyStopConfig, TrainConfig

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes_every_layer_wrapper():
    tracing = _load_tracer()
    watched = [
        (attacks, "backward"), (attacks, "derive_rng"), (attacks, "pgd"),
        (labeling, "backward"), (training, "backward"), (training, "trades_loss"),
        (autodiff, "silu"), (models, "forward_logits"),
    ]
    before = [getattr(owner, attr) for owner, attr in watched]
    tr = tracing.Tracer()
    try:
        tracing.install_layers(tr)
        assert tr._patches, "install_layers wrapped nothing"
        for (owner, attr), original in zip(watched, before):
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} is not wrapped"
    finally:
        tr.uninstall()
    for (owner, attr), original in zip(watched, before):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} was not restored"


def test_traced_training_records_one_ema_update_per_optimizer_step():
    tracing = _load_tracer()
    cfg = models.ModelConfig(kind="mlp", input_shape=(1, 2, 2), num_classes=2, hidden=(4,), seed=0)
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.uniform(size=(12, 1, 2, 2)), rng.integers(0, 2, size=12))
    tcfg = TrainConfig(
        epochs=2, batch_size=8, early_stop=EarlyStopConfig(validation_size=4, pgd_steps=2, eval_every=1)
    )
    tr = tracing.Tracer()
    try:
        tracing.install_layers(tr)
        _, report = training.train(tcfg, data, None, models.init(cfg))
    finally:
        tr.uninstall()
    summary = tr.summary()
    assert report.stopped_step == 2 and len(report.rows) == 2
    assert summary["optim.step"]["calls"] == 2
    assert summary["models.ema_update"]["calls"] == summary["optim.step"]["calls"]
    assert summary["models.forward_logits"]["calls"] == 4  # clean and adversarial, per TRADES step
    assert tr.counters["models.forward_logits.untaped_calls"] == 0
