"""Outside-in span tracer for the genrobust pipeline.

Timing wrappers are installed by rebinding module attributes. A function a
module imported by name (``from .attacks import pgd``) lives in that
module's namespace too, so every such namespace is wrapped separately.
Spans are kept in memory as ``[name, start, end, parent, outer]`` and
summarised after the run; ``outer`` is false for a span nested inside a
span of the same name, so totals never count a nested call twice.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._active[name] == 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self._active[name] += 1
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._active[span[0]] -= 1
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording span ``name``.

        ``hook(tracer, args, kwargs, result)`` runs after each call, outside
        the span, to update counters or capture outputs.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of benchmark code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def summary(self) -> dict:
        """Per span name: calls, total (outermost spans) and self seconds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            d = s[2] - s[1]
            row = out.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += d - child[i]
            if s[4]:
                row["total_s"] += d
        return out

    def total_under(self, name: str, parent_name: str) -> float:
        """Seconds in outermost ``name`` spans whose direct parent is ``parent_name``."""
        return sum(
            s[2] - s[1]
            for s in self.spans
            if s[0] == name and s[4] and s[3] >= 0 and self.spans[s[3]][0] == parent_name
        )


# ---------------------------------------------------------------------------
# the layer wrappers


PRIMITIVES = (
    "add", "sub", "mul", "neg", "silu", "reshape", "tsum", "tmean", "matmul",
    "add_bias", "conv2d", "softmax_cross_entropy", "kl_divergence",
    "gather_labels", "max_excluding",
)
TIMED_PRIMITIVES = ("silu", "matmul", "add_bias", "conv2d", "kl_divergence", "softmax_cross_entropy")
SUBCOMMANDS = (
    "make-data", "train-nonrobust", "fit-gaussian", "generate",
    "pseudo-label", "train", "attack-eval", "diagnose",
)
DIAGNOSTICS = ("complementarity_coverage", "unique_nn_coverage", "fid", "is_score", "loss_landscape")


def _count_tape(tracer, args, kwargs, result):
    tape = args[1] if len(args) > 1 else kwargs["tape"]
    tracer.counters["autodiff.tape_nodes"] += len(tape)


def _count_untaped(tracer, args, kwargs, result):
    tape = args[3] if len(args) > 3 else kwargs.get("tape")
    if tape is None:
        tracer.counters["models.forward_logits.untaped_calls"] += 1


def _count_steps(tracer, args, kwargs, result):
    tracer.counters["training.steps"] += result[1].stopped_step


def _count_written(tracer, args, kwargs, result):
    tracer.counters["container.bytes_written"] += os.path.getsize(args[0])


def _count_read(tracer, args, kwargs, result):
    tracer.counters["container.bytes_read"] += os.path.getsize(args[0])


def install_layers(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics are read from."""
    from genrobust import (
        attacks, autodiff, cli, diagnostics, experiments, generation,
        labeling, models, optim, training,
    )

    for prim in PRIMITIVES:
        tracer.wrap(autodiff, prim, f"autodiff.{prim}")
    for ns in (autodiff, attacks, training, labeling):
        tracer.wrap(ns, "backward", "autodiff.backward", _count_tape)
    tracer.wrap(models, "forward_logits", "models.forward_logits", _count_untaped)
    tracer.wrap(models, "ema_update", "models.ema_update")
    tracer.wrap(attacks, "derive_rng", "data.derive_rng")
    for ns in (attacks, training, diagnostics):
        tracer.wrap(ns, "pgd", "attacks.pgd")
    for ns in (attacks, experiments, cli):
        tracer.wrap(ns, "attack_cascade", "attacks.attack_cascade")
    for ns in (training, experiments, cli):
        tracer.wrap(ns, "train", "training.train", _count_steps)
    tracer.wrap(training, "trades_loss", "training.trades_loss")
    tracer.wrap(optim.NesterovSGD, "step", "optim.step")
    for ns in (labeling, experiments, cli):
        tracer.wrap(ns, "train_nonrobust", "labeling.train_nonrobust")
        tracer.wrap(ns, "pseudo_label", "labeling.pseudo_label")
    for ns in (generation, experiments, cli):
        tracer.wrap(ns, "fit_pca", "generation.fit")
        tracer.wrap(ns, "fit_class_gaussians", "generation.fit")
        tracer.wrap(ns, "sample", "generation.sample")
    tracer.wrap(experiments, "prepare_sources", "experiments.prepare_sources")
    tracer.wrap(experiments, "run_mixing_sweep", "experiments.run_mixing_sweep")
    for fn in DIAGNOSTICS:
        for ns in (diagnostics, cli):
            tracer.wrap(ns, fn, f"diagnostics.{fn}")
    for ns in (models, labeling, generation, cli):
        tracer.wrap(ns, "save_container", "container.save_container", _count_written)
        tracer.wrap(ns, "load_container", "container.load_container", _count_read)


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric, by name, as (value, unit)."""
    summ = tracer.summary()

    def get(name, field):
        return summ.get(name, {}).get(field, 0.0 if field.endswith("_s") else 0)

    m = {}
    for prim in TIMED_PRIMITIVES:
        m[f"autodiff.{prim}.self_s"] = (get(f"autodiff.{prim}", "self_s"), "s")
    m["autodiff.backward.self_s"] = (get("autodiff.backward", "self_s"), "s")
    m["autodiff.backward.calls"] = (get("autodiff.backward", "calls"), "count")
    m["autodiff.tape_nodes"] = (tracer.counters["autodiff.tape_nodes"], "count")
    m["autodiff.primitive.calls"] = (sum(get(f"autodiff.{p}", "calls") for p in PRIMITIVES), "count")
    m["models.forward_logits.calls"] = (get("models.forward_logits", "calls"), "count")
    m["models.forward_logits.untaped_calls"] = (
        tracer.counters["models.forward_logits.untaped_calls"], "count")
    m["models.ema_update.self_s"] = (get("models.ema_update", "self_s"), "s")
    m["data.derive_rng.calls"] = (get("data.derive_rng", "calls"), "count")
    m["data.derive_rng.self_s"] = (get("data.derive_rng", "self_s"), "s")
    m["attacks.pgd.calls"] = (get("attacks.pgd", "calls"), "count")
    m["attacks.pgd.self_s"] = (get("attacks.pgd", "self_s"), "s")
    m["attacks.attack_cascade.total_s"] = (get("attacks.attack_cascade", "total_s"), "s")
    m["training.train.total_s"] = (get("training.train", "total_s"), "s")
    m["training.steps"] = (tracer.counters["training.steps"], "count")
    m["training.trades_loss.total_s"] = (get("training.trades_loss", "total_s"), "s")
    m["training.inner_attack.total_s"] = (tracer.total_under("attacks.pgd", "training.trades_loss"), "s")
    m["training.validation.total_s"] = (tracer.total_under("attacks.pgd", "training.train"), "s")
    m["optim.step.self_s"] = (get("optim.step", "self_s"), "s")
    m["optim.step.calls"] = (get("optim.step", "calls"), "count")
    for name in ("labeling.train_nonrobust", "labeling.pseudo_label", "generation.fit",
                 "generation.sample", "experiments.prepare_sources",
                 "experiments.run_mixing_sweep"):
        m[f"{name}.total_s"] = (get(name, "total_s"), "s")
    for fn in DIAGNOSTICS:
        m[f"diagnostics.{fn}.total_s"] = (get(f"diagnostics.{fn}", "total_s"), "s")
    m["container.save_container.total_s"] = (get("container.save_container", "total_s"), "s")
    m["container.load_container.total_s"] = (get("container.load_container", "total_s"), "s")
    m["container.bytes_written"] = (tracer.counters["container.bytes_written"], "bytes")
    m["container.bytes_read"] = (tracer.counters["container.bytes_read"], "bytes")
    for cmd in SUBCOMMANDS:
        m[f"cli.{cmd}.total_s"] = (get(f"cli.{cmd}", "total_s"), "s")
    return m


def call_counts(tracer: Tracer) -> dict:
    """Span calls and counters; these repeat exactly between traced runs."""
    counts = {name: row["calls"] for name, row in tracer.summary().items()}
    counts.update(tracer.counters)
    return dict(sorted(counts.items()))
