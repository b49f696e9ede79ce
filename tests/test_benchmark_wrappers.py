"""The benchmark's tracer wraps program functions by module attribute.

``perfbench/tracer.py`` rebinds names such as ``attacks.backward`` or
``labeling.backward`` in each module that holds them. A refactor that
drops one of those names would only show in a traced benchmark run; this
test installs and removes every wrapper instead.
"""

import importlib.util
import os

from genrobust import attacks, autodiff, labeling, models, training

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
