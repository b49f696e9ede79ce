"""Mixed-batch robust training: TRADES or standard adversarial training over
batches blending original data (true labels) with generated data (pseudo
labels), Nesterov SGD with a cosine schedule, EMA weight averaging, and
PGD-based early stopping on a held-out validation split.

The mixing factor alpha sets the original fraction of every batch
(n_orig = round(alpha * B), rounded half-up); alpha = 1 reduces the loop to
plain adversarial training, step for step. Epoch accounting always follows
the original-dataset size, whatever alpha is.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import numpy as np

from . import autodiff as ad
from . import models as mdl
from .attacks import AttackConfig, CascadeConfig, PerturbationSet, attack_cascade, pgd
from .autodiff import NumericError, Tape, Tensor, backward
from .data import LabeledDataset, PseudoLabeledSet, derive_rng
from .models import Classifier
from .optim import NesterovSGD, cosine_lr

__all__ = [
    "EarlyStopConfig",
    "TrainConfig",
    "TrainReport",
    "cosine_lr",
    "mixed_counts",
    "build_mixed_batches",
    "trades_loss",
    "standard_at_loss",
    "train",
]


@dataclass(frozen=True)
class EarlyStopConfig:
    validation_size: int = 256
    pgd_steps: int = 40
    eval_every: int = 5  # epochs between validation attacks

    def __post_init__(self):
        if self.validation_size < 0:
            raise ValueError("validation_size must be >= 0")
        if self.pgd_steps < 0:
            raise ValueError("pgd_steps must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


def _default_inner_attack() -> AttackConfig:
    # TRADES inner loop: Adam ascent, step 0.1, 10 steps
    return AttackConfig(
        steps=10, step_size=0.1, inner_optimizer="adam", restarts=1,
        objective="kl-vs-clean", random_start=True,
    )


@dataclass(frozen=True)
class TrainConfig:
    """Full parameterization of one robust training run.

    beta is the TRADES trade-off (6.0, the customary default for that
    loss). lr0 defaults to 0.05 for desk-size batches; 0.4 is the usual
    value at batch 1024.
    """

    alpha: float = 1.0
    beta: float = 6.0
    epochs: int = 30
    batch_size: int = 64
    lr0: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    ema_tau: float = 0.995
    loss: str = "trades"  # "trades" | "standard-at"
    inner_attack: AttackConfig = field(default_factory=_default_inner_attack)
    perturbation: PerturbationSet = field(default_factory=lambda: PerturbationSet("linf", 4 / 255))
    early_stop: EarlyStopConfig = field(default_factory=EarlyStopConfig)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.lr0 > 0:
            raise ValueError("lr0 must be > 0")
        if self.loss not in ("trades", "standard-at"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if not 0.0 <= self.ema_tau <= 1.0:
            raise ValueError("ema_tau must lie in [0, 1]")


def mixed_counts(alpha: float, batch_size: int) -> tuple[int, int]:
    """(n_orig, n_gen) with n_orig = round(alpha * B), rounded half-up."""
    n_orig = int(np.floor(alpha * batch_size + 0.5))
    return n_orig, batch_size - n_orig


def build_mixed_batches(
    orig: Optional[LabeledDataset],
    gen: Optional[PseudoLabeledSet],
    alpha: float,
    batch_size: int,
    steps: int,
    shuffle_rng: np.random.Generator,
    gen_rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """One epoch of ``steps`` mixed batches, each (images, labels).

    Every batch holds n_orig originals first, then n_gen generated
    examples. The originals walk one permutation of ``orig`` drawn from
    ``shuffle_rng`` for the epoch, wrapping to its start when a batch runs
    past the end; the generated part draws with replacement from
    ``gen_rng`` (pools may be any size).
    """
    n_orig, n_gen = mixed_counts(alpha, batch_size)
    if n_orig > 0 and (orig is None or len(orig) < n_orig):
        raise ValueError(f"alpha > 0 needs at least {n_orig} originals per batch")
    if n_gen > 0 and (gen is None or len(gen) == 0):
        raise ValueError("alpha < 1 requires a non-empty generated pool")
    order = shuffle_rng.permutation(len(orig)) if n_orig > 0 else None

    def batch(s: int) -> tuple[np.ndarray, np.ndarray]:
        images, labels = [], []
        if n_orig > 0:
            lo = (s * n_orig) % len(orig)
            take = order[lo : lo + n_orig]
            if take.size < n_orig:  # wrap the epoch shuffle
                take = np.concatenate([take, order[: n_orig - take.size]])
            images.append(orig.images[take])
            labels.append(orig.labels[take])
        if n_gen > 0:
            gidx = gen_rng.integers(0, len(gen), size=n_gen)
            images.append(gen.images[gidx])
            labels.append(gen.pseudo_labels[gidx])
        return np.concatenate(images), np.concatenate(labels)

    return map(batch, range(steps))


# ---------------------------------------------------------------------------
# robust losses


def trades_loss(
    model: Classifier,
    x: np.ndarray,
    labels: np.ndarray,
    beta: float,
    inner: AttackConfig,
    pset: PerturbationSet,
    tape: Optional[Tape] = None,
    example_ids: Optional[np.ndarray] = None,
) -> Tensor:
    """CE(f(x), y) + beta * KL(f(x) || f(x + delta*)).

    delta* maximizes the KL between clean and perturbed predictions (found
    with the inner attack config); the clean logits anchoring the KL term
    are constants for the outer gradient.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    clean_logits = mdl.forward_logits(model, x, tape=tape)
    ce = ad.softmax_cross_entropy(clean_logits, labels, tape)
    if beta == 0.0 or pset.epsilon == 0.0 or inner.steps == 0:
        return ce  # KL term is zero at delta = 0 (and drops out at beta = 0)
    inner_cfg = replace(inner, objective="kl-vs-clean")
    attacked = pgd(
        model, x, clean_logits.data, pset, inner_cfg, example_ids=example_ids
    )
    adv_logits = mdl.forward_logits(model, attacked.x_adv, tape=tape)
    anchor = Tensor(clean_logits.data.copy())  # stop-gradient on the KL anchor
    kl = ad.kl_divergence(anchor, adv_logits, tape)
    return ad.add(ce, ad.mul(kl, float(beta), tape), tape)


def standard_at_loss(
    model: Classifier,
    x: np.ndarray,
    labels: np.ndarray,
    inner: AttackConfig,
    pset: PerturbationSet,
    tape: Optional[Tape] = None,
    example_ids: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy at the inner cross-entropy-PGD maximizer."""
    if pset.epsilon == 0.0 or inner.steps == 0:
        logits = mdl.forward_logits(model, x, tape=tape)
        return ad.softmax_cross_entropy(logits, labels, tape)
    inner_cfg = replace(inner, objective="cross-entropy")
    attacked = pgd(model, x, labels, pset, inner_cfg, example_ids=example_ids)
    adv_logits = mdl.forward_logits(model, attacked.x_adv, tape=tape)
    return ad.softmax_cross_entropy(adv_logits, labels, tape)


# ---------------------------------------------------------------------------
# the training loop


@dataclass
class TrainReport:
    rows: list = field(default_factory=list)  # step, lr, train_loss, val_clean, val_robust
    best_step: int = -1
    best_val_robust: float = -1.0
    stopped_step: int = 0

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("step,lr,train_loss,val_clean,val_robust\n")
        for r in self.rows:
            buf.write(
                f"{r['step']},{r['lr']:.8g},{r['train_loss']:.8g},"
                f"{r['val_clean']:.8g},{r['val_robust']:.8g}\n"
            )
        return buf.getvalue()


def train(
    config: TrainConfig,
    orig: LabeledDataset,
    gen: Optional[PseudoLabeledSet],
    model: Classifier,
    shuffle_rng: Optional[np.random.Generator] = None,
) -> tuple[Classifier, TrainReport]:
    """Run the mixed-batch robust loop; returns (EMA model at the best
    validation step, per-evaluation report). The input model is not mutated.

    The original dataset's last ``early_stop.validation_size`` examples are
    held out for validation and never trained on: stage 1 of the evaluation
    cascade, one restart of sign-gradient PGD, on the EMA weights.
    ``shuffle_rng`` orders the originals (default: derived from the seed).
    """
    n_orig, n_gen = mixed_counts(config.alpha, config.batch_size)
    if n_gen > 0 and (gen is None or len(gen) == 0):
        raise ValueError("alpha < 1 requires a generated pool")
    work = Classifier(config=model.config, params=model.params.copy(), ema_params=model.ema_params.copy())
    report = TrainReport()
    if config.epochs == 0:
        report.best_step = 0
        return mdl.ema_snapshot(work), report

    val_n = min(config.early_stop.validation_size, max(len(orig) - 1, 0))
    if len(orig) - val_n < n_orig:
        raise ValueError(
            f"early_stop.validation_size={config.early_stop.validation_size} holds out {val_n} "
            f"of {len(orig)} originals, leaving {len(orig) - val_n}; each batch needs {n_orig}"
        )
    train_split = orig.subset(np.arange(len(orig) - val_n))
    val_split = orig.subset(np.arange(len(orig) - val_n, len(orig)))

    steps_per_epoch = max(1, len(train_split) // config.batch_size)
    total_steps = config.epochs * steps_per_epoch
    if shuffle_rng is None:
        shuffle_rng = derive_rng("train-shuffle", config.seed)
    gen_rng = derive_rng("train-gen", config.seed)
    optimizer = NesterovSGD(work.params, momentum=config.momentum, weight_decay=config.weight_decay)

    pgd_steps = config.early_stop.pgd_steps
    val_cascade = CascadeConfig(
        stage1_steps=pgd_steps, stage1_restarts=1, top_k=0, inner_optimizer="sign-sgd",
        seed=config.seed,
    )
    step = 0
    losses: list[float] = []
    best = (-1.0, -1)  # (val robust accuracy, step)
    best_model = mdl.ema_snapshot(work)

    def evaluate(at_step: int) -> None:
        nonlocal best, best_model
        if val_n == 0:
            return
        if config.perturbation.epsilon == 0.0 or pgd_steps == 0:
            val_clean = val_robust = mdl.accuracy(work, val_split, use_ema=True)
        else:
            res = attack_cascade(work, val_split, config.perturbation, val_cascade, use_ema=True)
            val_clean, val_robust = res.clean_accuracy, res.robust_accuracy
        mean_loss = float(np.mean(losses)) if losses else 0.0
        losses.clear()
        report.rows.append(
            {
                "step": at_step,
                "lr": cosine_lr(min(at_step, total_steps), total_steps, config.lr0),
                "train_loss": mean_loss,
                "val_clean": val_clean,
                "val_robust": val_robust,
            }
        )
        if val_robust > best[0]:
            best = (val_robust, at_step)
            best_model = mdl.ema_snapshot(work)

    try:
        for epoch in range(config.epochs):
            batches = build_mixed_batches(
                train_split, gen, config.alpha, config.batch_size, steps_per_epoch,
                shuffle_rng, gen_rng,
            )
            for x, y in batches:
                tape = Tape(wrt=[t for _, t in work.params.items()])
                ids = np.arange(step * config.batch_size, step * config.batch_size + len(y))
                if config.loss == "trades":
                    loss = trades_loss(
                        work, x, y, config.beta, config.inner_attack,
                        config.perturbation, tape, example_ids=ids,
                    )
                else:
                    loss = standard_at_loss(
                        work, x, y, config.inner_attack, config.perturbation,
                        tape, example_ids=ids,
                    )
                grads = backward(loss, tape).for_params(work.params)
                optimizer.step(grads, cosine_lr(step, total_steps, config.lr0))
                mdl.ema_update(work, config.ema_tau)
                losses.append(loss.item())
                step += 1
            if (epoch + 1) % config.early_stop.eval_every == 0 or epoch == config.epochs - 1:
                evaluate(step)
    except NumericError as exc:
        raise RuntimeError(
            f"training diverged with a non-finite loss at step {step} "
            f"(alpha={config.alpha}, lr0={config.lr0}): {exc}"
        ) from exc

    if val_n == 0:
        best_model = mdl.ema_snapshot(work)
        best = (0.0, step)
    report.best_step = best[1]
    report.best_val_robust = best[0]
    report.stopped_step = step
    return best_model, report
