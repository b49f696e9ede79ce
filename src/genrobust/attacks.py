"""Inner maximization and robust evaluation.

Norm-ball projections, multi-restart PGD with sign or Adam inner updates
over several objectives, and a two-stage evaluation cascade
(untargeted cross-entropy PGD, then targeted-margin PGD against the top-k
incorrect classes). Every returned perturbation satisfies the ball
constraint and keeps the adversarial input inside [0,1]. No attack builds
a Tensor: all run on the model's plain forward and input gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import models as mdl
from .autodiff import NumericError
from .autodiff import backward  # noqa: F401  (perfbench's tracer wraps attacks.backward)
from .data import LabeledDataset, derive_rng
from .parallel import fork_map

__all__ = [
    "PerturbationSet",
    "AttackConfig",
    "AttackResult",
    "CascadeConfig",
    "CascadeResult",
    "project",
    "random_start",
    "margin_loss",
    "pgd",
    "pgd_on_objective",
    "attack_cascade",
]

LINF = "linf"
L2 = "l2"
_OBJECTIVES = ("cross-entropy", "kl-vs-clean", "margin", "targeted-margin")
_OPTIMIZERS = ("sign-sgd", "adam")

CHUNK = 64  # fixed evaluation chunk


@dataclass(frozen=True)
class PerturbationSet:
    """Allowed perturbations: a norm ball of radius epsilon (pixels in [0,1])."""

    norm: str
    epsilon: float

    def __post_init__(self):
        if self.norm not in (LINF, L2):
            raise ValueError(f"norm must be {LINF!r} or {L2!r}, got {self.norm!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class AttackConfig:
    steps: int
    step_size: float
    inner_optimizer: str = "sign-sgd"
    restarts: int = 1
    objective: str = "cross-entropy"
    random_start: bool = True
    seed: int = 0
    target: Optional[int] = None  # fixed class for targeted-margin

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be finite and positive, got {self.step_size}")
        if self.inner_optimizer not in _OPTIMIZERS:
            raise ValueError(f"unknown inner optimizer {self.inner_optimizer!r}")
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass
class AttackResult:
    """Per-example best-over-restarts perturbation and bookkeeping."""

    delta: np.ndarray
    x_adv: np.ndarray
    objective_value: np.ndarray  # [B] final objective at the kept delta
    success: np.ndarray  # [B] bool, misclassified at the kept delta
    logits: np.ndarray  # [B,C] model logits at x_adv


def _flat_norms(delta: np.ndarray) -> np.ndarray:
    return np.sqrt((delta.reshape(delta.shape[0], math.prod(delta.shape[1:])) ** 2).sum(axis=1))


def project(delta: np.ndarray, pset: PerturbationSet) -> np.ndarray:
    """Project each example's perturbation onto the ball; idempotent.

    Linf: elementwise clamp to [-eps, eps]. L2: rescale onto the sphere
    only when outside the ball.
    """
    eps = pset.epsilon
    if pset.norm == LINF:
        return np.clip(delta, -eps, eps)
    out = delta
    # rescale until the recomputed norm is inside; float rounding can leave
    # a one-ulp overshoot after a single pass, breaking exact idempotence
    for _ in range(4):
        norms = _flat_norms(out)
        outside = norms > eps
        if not outside.any():
            break
        scale = np.ones_like(norms)
        scale[outside] = np.nextafter(eps / norms[outside], 0.0)
        out = out * scale.reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def random_start(pset: PerturbationSet, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """One uniform draw from the ball (a single example's perturbation)."""
    eps = pset.epsilon
    if pset.norm == LINF:
        return rng.uniform(-eps, eps, size=shape)
    direction = rng.normal(size=shape)
    norm = np.sqrt((direction**2).sum())
    if norm == 0.0:
        return np.zeros(shape)
    n = int(np.prod(shape))
    radius = eps * rng.uniform() ** (1.0 / n)
    return direction * (radius / norm)


def _rows(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-row entry z[i, idx[i]]."""
    return z[np.arange(len(idx)), idx]


def margin_loss(logits, labels: np.ndarray) -> np.ndarray:
    """Per-example z_y - max_{i != y} z_i; negative iff misclassified."""
    z = np.asarray(logits)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ad.ShapeError(f"margin_loss needs [B,C] logits with C >= 2, got {z.shape}")
    ad.check_finite(z, "margin_loss input")
    labels = ad.check_labels(labels, *z.shape)
    out = _rows(z, labels) - _rows(z, ad.argmax_excluding(z, labels))
    ad.check_finite(out, "margin_loss")
    return out


# ---------------------------------------------------------------------------
# objectives (maximized by the attack)


# the ascent follows the batch mean of these objectives, the sum of the others
_MEAN_OBJECTIVES = ("cross-entropy", "kl-vs-clean")


def _objective(
    objective: str,
    labels: np.ndarray,
    targets: Optional[np.ndarray],
    logp_clean: Optional[np.ndarray],
    n_classes: int,
    dtype,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """One attack objective as (values(z), logit_grad(z)) of the logits z.

    ``values`` gives the per-example value [B] in the expressions of the
    matching autodiff primitive's forward. ``logit_grad`` gives the gradient
    toward the logits of the ascended scalar, the batch mean or sum of the
    values, in the expressions of the taped objective's backward pass.
    kl-vs-clean takes the clean log-probabilities ``logp_clean``. What does
    not depend on the logits is built here, once per attack: the spread of
    the unit seed gradient over the rows, the label and target one-hots,
    and the clean probabilities.
    """
    b = len(labels)
    n = max(b, 1) if objective in _MEAN_OBJECTIVES else 1  # an empty batch spreads nothing
    fill = ad.spread(np.ones((), dtype=dtype), (b,), dtype, n)
    if objective == "cross-entropy":
        onehot = ad.scatter_rows(np.ones(b, dtype=dtype), labels, n_classes)
        return (
            lambda z: -_rows(ad.log_softmax(z), labels),
            lambda z: ad.cross_entropy_grad(ad.log_softmax(z), onehot, fill),
        )
    if objective == "kl-vs-clean":
        p_clean = np.exp(logp_clean)
        return (
            lambda z: (p_clean * (logp_clean - ad.log_softmax(z))).sum(axis=1),
            lambda z: ad.kl_q_grad(p_clean, ad.log_softmax(z), fill),
        )
    # high - z_label, whose difference passes (fill, -fill) to its two terms
    toward_label = ad.scatter_rows(-fill, labels, n_classes)
    if objective == "margin":  # max_{i != y} z_i - z_y, the negated margin
        return (
            lambda z: _rows(z, ad.argmax_excluding(z, labels)) - _rows(z, labels),
            lambda z: toward_label + ad.scatter_rows(fill, ad.argmax_excluding(z, labels), n_classes),
        )
    toward_targets = toward_label + ad.scatter_rows(fill, targets, n_classes)
    return lambda z: _rows(z, targets) - _rows(z, labels), lambda z: toward_targets  # z_target - z_y


# ---------------------------------------------------------------------------
# the PGD engine


def _adam_ascend(delta, grad, state, lr):
    """One Adam ascent step: the new delta and state. The moments m and v
    of ``state`` are updated in place; delta and grad are left unchanged."""
    m, v, t = state
    t += 1
    m *= 0.9
    m += 0.1 * grad
    sq = 0.001 * grad
    sq *= grad
    v *= 0.999
    v += sq
    step = np.divide(m, 1.0 - 0.9**t)
    step *= lr
    den = np.divide(v, 1.0 - 0.999**t)
    np.sqrt(den, out=den)
    den += 1e-8
    step /= den
    step += delta
    return step, (m, v, t)


def pgd_on_objective(
    gradient: Callable[[np.ndarray], np.ndarray],
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    pset: PerturbationSet,
    cfg: AttackConfig,
    labels: Optional[np.ndarray] = None,
    example_ids: Optional[np.ndarray] = None,
    dtype=np.float64,
) -> AttackResult:
    """Multi-restart projected gradient ascent of an objective of x + delta.

    ``gradient`` maps the attacked input (a ``dtype`` array shaped like x)
    to the gradient of the ascended scalar, the objective's batch sum or
    mean; each step checks it finite once. ``evaluate`` maps the attacked
    input to (logits [B,C], per-example objective values [B]). One
    evaluation at the end of each restart gives the values and, when
    labels are given, success (argmax != label); the per-example keeper
    prefers successful restarts first, then higher values.

    Restart r of example i draws its random start from an rng keyed by
    (cfg.seed, r, example_ids[i]); restart results are therefore shared
    prefixes between runs that differ only in the restart budget.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("attack input must be finite")
    if x.size and (x.min() < -1e-12 or x.max() > 1.0 + 1e-12):
        raise ValueError("attack input must lie in [0,1]")
    b = x.shape[0]
    if example_ids is None:
        example_ids = np.arange(b)

    best_delta = np.zeros_like(x)
    best_val = np.full(b, -np.inf)
    best_success = np.zeros(b, dtype=bool)

    for restart in range(cfg.restarts):
        delta = np.zeros_like(x)
        if cfg.random_start:
            for i in range(b):
                delta[i] = random_start(pset, x.shape[1:], derive_rng(cfg.seed, restart, int(example_ids[i])))
        delta = project(delta, pset)
        delta = np.clip(x + delta, 0.0, 1.0) - x

        state = (np.zeros_like(x), np.zeros_like(x), 0)  # Adam state, per restart
        for _ in range(cfg.steps):
            grad = gradient((x + delta).astype(dtype, copy=False))
            if not np.isfinite(grad).all():
                raise NumericError("NaN/Inf gradient inside PGD")
            if cfg.inner_optimizer == "sign-sgd":
                delta = delta + cfg.step_size * np.sign(grad)
            else:
                delta, state = _adam_ascend(delta, grad, state, cfg.step_size)
            delta = project(delta, pset)
            delta = np.clip(x + delta, 0.0, 1.0) - x

        # x + delta equals the clipped x_adv, so these logits stand for it
        logits, vals = evaluate((x + delta).astype(dtype, copy=False))
        if labels is not None:
            succ = np.argmax(logits, axis=1) != labels
        else:
            succ = np.zeros(b, dtype=bool)
        if restart == 0:
            best_logits = np.empty_like(logits)
        better = (succ & ~best_success) | ((succ == best_success) & (vals > best_val))
        best_delta[better] = delta[better]
        best_val[better] = vals[better]
        best_success[better] = succ[better]
        best_logits[better] = logits[better]

    x_adv = np.clip(x + best_delta, 0.0, 1.0)
    return AttackResult(
        delta=best_delta, x_adv=x_adv, objective_value=best_val, success=best_success,
        logits=best_logits,
    )


def pgd(
    model: mdl.Classifier,
    x: np.ndarray,
    y_or_reference,
    pset: PerturbationSet,
    cfg: AttackConfig,
    targets: Optional[np.ndarray] = None,
    example_ids: Optional[np.ndarray] = None,
) -> AttackResult:
    """PGD on a classifier; objective and inner optimizer set by cfg.

    y_or_reference holds integer labels [B], or for kl-vs-clean the clean
    logits [B,C].
    """
    n, n_classes, dtype = len(x), model.config.num_classes, model.config.dtype
    logp_clean = None
    if cfg.objective == "kl-vs-clean":
        ref = np.asarray(y_or_reference)
        if ref.shape != (n, n_classes):
            raise ValueError(f"kl-vs-clean needs clean logits [{n},{n_classes}] as reference")
        labels = np.argmax(ref, axis=1)
        clean = np.asarray(ref, dtype=dtype)
        ad.check_finite(clean, "kl-vs-clean reference")
        logp_clean = ad.log_softmax(clean)
    else:
        labels = np.asarray(y_or_reference)
        if labels.ndim != 1:
            raise ValueError(f"objective {cfg.objective!r} needs integer labels [B]")
        if cfg.objective == "targeted-margin":
            if targets is None:
                if cfg.target is None:
                    raise ValueError("targeted-margin needs target classes")
                targets = np.full(labels.shape, cfg.target, dtype=np.int64)
            targets = ad.check_labels(targets, n, n_classes)
    labels = ad.check_labels(labels, n, n_classes)
    values, logit_grad = _objective(cfg.objective, labels, targets, logp_clean, n_classes, dtype)

    def gradient(x_adv):
        return mdl.input_gradient(model, x_adv, logit_grad)

    def evaluate(x_adv):
        z = mdl.forward_arrays(model, x_adv)[0]
        vals = values(z)
        ad.check_finite(vals, "attack objective")
        return z, vals

    return pgd_on_objective(
        gradient, evaluate, x, pset, cfg, labels=labels, example_ids=example_ids, dtype=dtype,
    )


# ---------------------------------------------------------------------------
# evaluation cascade


@dataclass(frozen=True)
class CascadeConfig:
    """Two-stage worst-case evaluation.

    Stage 1: untargeted cross-entropy PGD with several restarts.
    Stage 2: targeted-margin PGD against each of the top_k incorrect
    classes ranked by clean logits. Defaults (5x100 untargeted, 10x200
    targeted on margins) suit full-size runs and are meant to be scaled
    down for desk-size experiments.
    """

    stage1_steps: int = 100
    stage1_restarts: int = 5
    stage2_steps: int = 200
    stage2_restarts: int = 10
    top_k: int = 3
    inner_optimizer: str = "adam"
    step_size: Optional[float] = None  # None: 0.1 for adam, 2.5*eps/steps for sign
    seed: int = 0

    def __post_init__(self):
        if self.stage1_steps < 0 or self.stage2_steps < 0:
            raise ValueError("stage1_steps and stage2_steps must be >= 0")
        if self.stage1_restarts < 1 or self.stage2_restarts < 1:
            raise ValueError("stage1_restarts and stage2_restarts must be >= 1")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0 (0 runs stage 1 only)")
        if self.inner_optimizer not in _OPTIMIZERS:
            raise ValueError(f"unknown inner optimizer {self.inner_optimizer!r}")
        if self.step_size is not None and not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be None or finite and positive, got {self.step_size}")

    def resolved_step(self, pset: PerturbationSet, steps: int) -> float:
        if self.step_size is not None:
            return self.step_size
        if self.inner_optimizer == "adam":
            return 0.1
        return max(2.5 * pset.epsilon / max(steps, 1), 1e-12)


@dataclass
class CascadeResult:
    robust_accuracy: float
    clean_accuracy: float
    records: list  # dict per example: id, clean_correct, stage survival, worst_margin


def _cascade_chunk(
    model: mdl.Classifier,
    images: np.ndarray,
    labels: np.ndarray,
    ids: np.ndarray,
    pset: PerturbationSet,
    ccfg: CascadeConfig,
) -> list[dict]:
    clean_logits = mdl.predict_logits(model, images)
    clean_pred = np.argmax(clean_logits, axis=1)
    clean_correct = clean_pred == labels
    worst_margin = margin_loss(clean_logits, labels)

    n_classes = clean_logits.shape[1]
    stage1 = pgd(
        model,
        images,
        labels,
        pset,
        AttackConfig(
            steps=ccfg.stage1_steps,
            step_size=ccfg.resolved_step(pset, ccfg.stage1_steps),
            inner_optimizer=ccfg.inner_optimizer,
            restarts=ccfg.stage1_restarts,
            objective="cross-entropy",
            random_start=True,
            seed=ccfg.seed,
        ),
        example_ids=ids,
    )
    worst_margin = np.minimum(worst_margin, margin_loss(stage1.logits, labels))
    stage1_survived = clean_correct & ~stage1.success

    # top-k incorrect classes by clean logit rank, per example
    masked = clean_logits.copy()
    masked[np.arange(len(labels)), labels] = -np.inf
    order = np.argsort(-masked, axis=1, kind="stable")
    k = min(ccfg.top_k, n_classes - 1)

    stage2_survived = stage1_survived.copy()
    for rank in range(k):
        live = stage2_survived
        if not live.any():
            break
        targets = order[:, rank]
        attacked = pgd(
            model,
            images[live],
            labels[live],
            pset,
            AttackConfig(
                steps=ccfg.stage2_steps,
                step_size=ccfg.resolved_step(pset, ccfg.stage2_steps),
                inner_optimizer=ccfg.inner_optimizer,
                restarts=ccfg.stage2_restarts,
                objective="targeted-margin",
                random_start=True,
                seed=ccfg.seed + 1000 + rank,
            ),
            targets=targets[live],
            example_ids=ids[live],
        )
        live_idx = np.flatnonzero(live)
        worst_margin[live_idx] = np.minimum(
            worst_margin[live_idx], margin_loss(attacked.logits, labels[live])
        )
        stage2_survived[live_idx[attacked.success]] = False

    return [
        {
            "example_id": int(ids[i]),
            "clean_correct": bool(clean_correct[i]),
            "stage1_survived": bool(stage1_survived[i]),
            "stage2_survived": bool(stage2_survived[i]),
            "worst_margin": float(worst_margin[i]),
        }
        for i in range(len(labels))
    ]


def attack_cascade(
    model: mdl.Classifier,
    data: LabeledDataset,
    pset: PerturbationSet,
    ccfg: CascadeConfig = CascadeConfig(),
) -> CascadeResult:
    """Robust accuracy under the full cascade plus per-example records.

    An example counts robust only if it is clean-correct and survives both
    stages. Examples are attacked in fixed chunks of CHUNK; each chunk is a
    pure function of its rows and ids, so the chunks run in forked workers
    (``parallel.fork_map``) and the records equal those of a serial loop.
    """
    n = len(data)
    chunks = fork_map(
        lambda s: _cascade_chunk(
            model, data.images[s : s + CHUNK], data.labels[s : s + CHUNK],
            np.arange(s, min(s + CHUNK, n)), pset, ccfg,
        ),
        range(0, n, CHUNK),
    )
    records = [r for chunk in chunks for r in chunk]
    robust = sum(1 for r in records if r["clean_correct"] and r["stage1_survived"] and r["stage2_survived"])
    clean = sum(1 for r in records if r["clean_correct"])
    return CascadeResult(
        robust_accuracy=robust / n if n else 0.0,
        clean_accuracy=clean / n if n else 0.0,
        records=records,
    )
