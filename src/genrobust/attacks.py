"""Inner maximization and robust evaluation.

Norm-ball projections, FGSM, multi-restart PGD with sign or Adam inner
updates over several objectives, and a two-stage evaluation cascade
(untargeted cross-entropy PGD, then targeted-margin PGD against the top-k
incorrect classes). Every returned perturbation satisfies the ball
constraint and keeps the adversarial input inside [0,1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import autodiff as ad
from . import models as mdl
from .autodiff import NumericError, Tape, Tensor, backward
from .data import LabeledDataset, derive_rng

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
    "fgsm",
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
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")


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
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
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
    return np.sqrt((delta.reshape(delta.shape[0], -1) ** 2).sum(axis=1))


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


def margin_loss(logits, labels: np.ndarray) -> np.ndarray:
    """Per-example z_y - max_{i != y} z_i; negative iff misclassified."""
    z = logits if isinstance(logits, Tensor) else Tensor(logits)
    return ad.sub(ad.gather_labels(z, labels), ad.max_excluding(z, labels)).data


# ---------------------------------------------------------------------------
# objectives (maximized by the attack)


def _objective_rows(
    objective: str,
    logits: Tensor,
    tape: Optional[Tape],
    labels: Optional[np.ndarray] = None,
    targets: Optional[np.ndarray] = None,
    clean: Optional[Tensor] = None,
) -> Tensor:
    """Per-example value [B] of one attack objective, taped when a tape is given."""
    if objective == "cross-entropy":
        return ad.softmax_cross_entropy_rows(logits, labels, tape)
    if objective == "kl-vs-clean":
        return ad.kl_divergence_rows(clean, logits, tape)
    if objective == "margin":  # max_{i != y} z_i - z_y, the negated margin
        high = ad.max_excluding(logits, labels, tape)
    else:  # targeted-margin: z_target - z_y
        high = ad.gather_labels(logits, targets, tape)
    return ad.sub(high, ad.gather_labels(logits, labels, tape), tape)


# the ascent follows the batch mean of these objectives, the sum of the others
_MEAN_OBJECTIVES = ("cross-entropy", "kl-vs-clean")


# ---------------------------------------------------------------------------
# the PGD engine


def _adam_ascend(delta, grad, state, lr):
    m, v, t = state
    t += 1
    m = 0.9 * m + 0.1 * grad
    v = 0.999 * v + 0.001 * grad * grad
    mhat = m / (1.0 - 0.9**t)
    vhat = v / (1.0 - 0.999**t)
    return delta + lr * mhat / (np.sqrt(vhat) + 1e-8), (m, v, t)


def pgd_on_objective(
    forward: Callable[[Tensor, Optional[Tape]], Tensor],
    objective: Callable[[Tensor, Optional[Tape]], Tensor],
    x: np.ndarray,
    pset: PerturbationSet,
    cfg: AttackConfig,
    mean: bool = False,
    labels: Optional[np.ndarray] = None,
    example_ids: Optional[np.ndarray] = None,
    dtype=np.float64,
) -> AttackResult:
    """Multi-restart projected gradient ascent on objective(forward(x + delta)).

    forward maps the attacked input (a ``dtype`` tensor) to logits [B,C];
    objective maps logits to per-example values [B]. Each step ascends
    their batch sum, or their mean when ``mean`` is set. One untaped
    forward at the end of each restart gives the values and, when labels
    are given, success (argmax != label); the per-example keeper prefers
    successful restarts first, then higher values.

    Restart r of example i draws its random start from an rng keyed by
    (cfg.seed, r, example_ids[i]); restart results are therefore shared
    prefixes between runs that differ only in the restart budget.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and (x.min() < -1e-12 or x.max() > 1.0 + 1e-12):
        raise ValueError("attack input must lie in [0,1]")
    b = x.shape[0]
    if example_ids is None:
        example_ids = np.arange(b)

    best_delta = np.zeros_like(x)
    best_val = np.full(b, -np.inf)
    best_success = np.zeros(b, dtype=bool)

    for restart in range(cfg.restarts):
        if cfg.random_start:
            delta = np.stack(
                [
                    random_start(pset, x.shape[1:], derive_rng(cfg.seed, restart, int(example_ids[i])))
                    for i in range(b)
                ]
            )
        else:
            delta = np.zeros_like(x)
        delta = project(delta, pset)
        delta = np.clip(x + delta, 0.0, 1.0) - x

        state = (np.zeros_like(x), np.zeros_like(x), 0)  # Adam state, per restart
        for _ in range(cfg.steps):
            x_t = Tensor((x + delta).astype(dtype, copy=False))
            tape = Tape(wrt=(x_t,))
            rows = objective(forward(x_t, tape), tape)
            obj = ad.tmean(rows, tape) if mean else ad.tsum(rows, tape)
            grad = backward(obj, tape).wrt(x_t)
            if not np.all(np.isfinite(grad)):
                raise NumericError("NaN/Inf gradient inside PGD")
            if cfg.inner_optimizer == "sign-sgd":
                delta = delta + cfg.step_size * np.sign(grad)
            else:
                delta, state = _adam_ascend(delta, grad, state, cfg.step_size)
            delta = project(delta, pset)
            delta = np.clip(x + delta, 0.0, 1.0) - x

        # x + delta equals the clipped x_adv, so these logits stand for it
        z = forward(Tensor((x + delta).astype(dtype, copy=False)), None)
        vals = objective(z, None).data
        logits = z.data
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
    use_ema: bool = False,
) -> AttackResult:
    """PGD on a classifier; objective and inner optimizer set by cfg.

    y_or_reference holds integer labels [B], or for kl-vs-clean the clean
    logits [B,C] (None: computed here, and success is not tracked).
    """
    labels = clean = None
    if cfg.objective == "kl-vs-clean":
        if y_or_reference is None:
            # clean logits computed once, never re-taped
            ref = mdl.forward_logits(model, x, use_ema=use_ema).data
        else:
            ref = np.asarray(y_or_reference)
            if ref.ndim != 2:
                raise ValueError("kl-vs-clean needs clean logits [B,C] as reference")
            labels = np.argmax(ref, axis=1)
        clean = Tensor(np.asarray(ref, dtype=model.config.dtype))
    else:
        labels = np.asarray(y_or_reference)
        if labels.ndim != 1:
            raise ValueError(f"objective {cfg.objective!r} needs integer labels [B]")
        if cfg.objective == "targeted-margin" and targets is None:
            if cfg.target is None:
                raise ValueError("targeted-margin needs target classes")
            targets = np.full(labels.shape, cfg.target, dtype=np.int64)

    def forward(x_t, tape):
        return mdl.forward_logits(model, x_t, use_ema=use_ema, tape=tape)

    def objective(logits, tape):
        return _objective_rows(cfg.objective, logits, tape, labels, targets, clean)

    return pgd_on_objective(
        forward,
        objective,
        x,
        pset,
        cfg,
        mean=cfg.objective in _MEAN_OBJECTIVES,
        labels=labels,
        example_ids=example_ids,
        dtype=model.config.dtype,
    )


def fgsm(
    model: mdl.Classifier,
    x: np.ndarray,
    y: np.ndarray,
    pset: PerturbationSet,
    step: Optional[float] = None,
) -> AttackResult:
    """Single normalized gradient step of size epsilon (Linf only)."""
    if pset.norm != LINF:
        raise ValueError("fgsm is defined for Linf perturbation sets")
    size = pset.epsilon if step is None else step
    if size == 0.0 or pset.epsilon == 0.0:
        logits = mdl.forward_logits(model, x)
        return AttackResult(
            delta=np.zeros_like(np.asarray(x, dtype=np.float64)),
            x_adv=np.asarray(x, dtype=np.float64).copy(),
            objective_value=ad.softmax_cross_entropy_rows(logits, np.asarray(y)).data,
            success=np.argmax(logits.data, axis=1) != np.asarray(y),
            logits=logits.data,
        )
    cfg = AttackConfig(
        steps=1, step_size=size, inner_optimizer="sign-sgd", restarts=1,
        objective="cross-entropy", random_start=False,
    )
    return pgd(model, x, y, pset, cfg)


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

    def to_rows(self) -> list[dict]:
        return self.records


def _cascade_chunk(
    model: mdl.Classifier,
    images: np.ndarray,
    labels: np.ndarray,
    ids: np.ndarray,
    pset: PerturbationSet,
    ccfg: CascadeConfig,
    use_ema: bool,
) -> list[dict]:
    clean_logits = mdl.forward_logits(model, images, use_ema=use_ema).data
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
        use_ema=use_ema,
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
            use_ema=use_ema,
        )
        live_idx = np.flatnonzero(live)
        worst_margin[live_idx] = np.minimum(
            worst_margin[live_idx], margin_loss(attacked.logits, labels[live])
        )
        stage2_survived[live_idx[attacked.success]] = False

    rows = []
    for i in range(len(labels)):
        rows.append(
            {
                "example_id": int(ids[i]),
                "clean_correct": bool(clean_correct[i]),
                "stage1_survived": bool(stage1_survived[i]),
                "stage2_survived": bool(stage2_survived[i]),
                "worst_margin": float(worst_margin[i]),
            }
        )
    return rows


def attack_cascade(
    model: mdl.Classifier,
    data: LabeledDataset,
    pset: PerturbationSet,
    ccfg: CascadeConfig = CascadeConfig(),
    use_ema: bool = False,
) -> CascadeResult:
    """Robust accuracy under the full cascade plus per-example records.

    An example counts robust only if it is clean-correct and survives both
    stages. Examples are attacked in fixed chunks of CHUNK.
    """
    n = len(data)
    records = []
    for s in range(0, n, CHUNK):
        records += _cascade_chunk(
            model, data.images[s : s + CHUNK], data.labels[s : s + CHUNK],
            np.arange(s, min(s + CHUNK, n)), pset, ccfg, use_ema,
        )
    robust = sum(1 for r in records if r["clean_correct"] and r["stage1_survived"] and r["stage2_survived"])
    clean = sum(1 for r in records if r["clean_correct"])
    return CascadeResult(
        robust_accuracy=robust / n if n else 0.0,
        clean_accuracy=clean / n if n else 0.0,
        records=records,
    )
