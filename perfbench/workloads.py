"""The benchmark's three workloads.

Each workload builds its inputs in ``setup``, runs one round
of identical operations in ``run_round`` and checks the round's outputs in
``check``. The program is reached only through its public functions, always
as module attributes, so the tracer's wrappers see every call.

``--seed`` sets the random starts of the evaluation cascade. The data and
the training runs use the fixed seed 0, so every seed trains the same
models and does the same work; only the attacks' starting points change.
When the seed also drove the data or the training, the trained models
differed in how many test examples survive stage 1, and so in how much
work stage 2 does: ten mixing-cell seeds gave robust accuracies from 0.61
to 0.77, and the spread of eval_examples_per_s between runs was 0.33.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import replace

import numpy as np

from genrobust import attacks, cli, container, experiments, models, training
from genrobust.attacks import AttackConfig, CascadeConfig, PerturbationSet
from genrobust.experiments import SyntheticDatasetSpec
from genrobust.models import ModelConfig
from genrobust.training import EarlyStopConfig, TrainConfig

import checks
from tracer import SUBCOMMANDS, Tracer


FIXED_SEED = 0  # data and training
SLACK = 0.02  # how far a cascade stage may leave more examples unbroken than the numpy reference


def _weights(model) -> dict:
    return {name: t.data for name, t in model.params.items()}


def _records(result) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(
        np.array([r[k] for r in result.records], dtype=bool)
        for k in ("clean_correct", "stage1_survived", "stage2_survived")
    )


def _check_attack_strength(kind, weights, images, labels, s1, s2, pset, ccfg, seed) -> dict:
    """Both cascade stages against an independent numpy PGD with the same budgets.

    Stage 1 is compared on all examples. Stage 2 is compared on the
    cascade's own stage-1 survivors, so a stage that was weakened or skipped
    fails its own comparison whatever the other stage does.
    """
    rng = np.random.default_rng(seed)

    def budget(steps, restarts):
        return dict(norm=pset.norm, epsilon=pset.epsilon, optimizer=ccfg.inner_optimizer, steps=steps,
                    restarts=restarts, step_size=ccfg.resolved_step(pset, steps))

    ref1 = checks.numpy_stage1_survival(
        kind, weights, images, labels, rng, **budget(ccfg.stage1_steps, ccfg.stage1_restarts))
    ref2 = checks.numpy_stage2_survival(
        kind, weights, images, labels, s1, ccfg.top_k, rng, **budget(ccfg.stage2_steps, ccfg.stage2_restarts))
    figures = {"stage1": float(s1.mean()), "reference_stage1": float(ref1.mean()),
               "robust": float(s2.mean()), "reference_robust": float(ref2.mean())}
    checks.check_attack_strength("stage 1", figures["stage1"], figures["reference_stage1"], SLACK)
    checks.check_attack_strength("stage 2", figures["robust"], figures["reference_robust"], SLACK)
    return figures


class Round:
    """What one round did: operation counts, timings and captured outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.run_s = 0.0
        self.train_examples = 0
        self.train_s = 0.0
        self.eval_examples = 0
        self.eval_s = 0.0
        self.captured: dict[str, list] = {}
        self.accuracy: list[dict] = []  # clean, stage-1 and robust accuracy per cascade
        self.error = ""
        self.fingerprint = ""


def _boundary_probes(owner_attrs, rnd: Round) -> Tracer:
    """Wrap the train and cascade entry points a workload calls through.

    These few calls per round time the training and evaluation phases and
    keep their inputs and outputs for the checks; they add nothing
    measurable to a round.
    """
    probes = Tracer()

    def keep(kind):
        def hook(tracer, args, kwargs, result):
            rnd.captured.setdefault(kind, []).append((args, kwargs, result))
        return hook

    for owner, attr, kind in owner_attrs:
        probes.wrap(owner, attr, kind, keep(kind))
    return probes


def _account(rnd: Round, probes: Tracer) -> None:
    for args, _, (_, report) in rnd.captured.get("train", []):
        rnd.train_examples += report.stopped_step * args[0].batch_size
    for args, _, res in rnd.captured.get("cascade", []):
        rnd.eval_examples += len(args[1])
        rnd.accuracy.append({
            "clean": res.clean_accuracy,
            "stage1": float(np.mean([r["stage1_survived"] for r in res.records])),
            "robust": res.robust_accuracy,
        })
    rnd.train_s = sum(probes.durations("train"))
    rnd.eval_s = sum(probes.durations("cascade"))


# ---------------------------------------------------------------------------
# mixing-cell: one cell of the criterion-7 mixing sweep


class MixingCell:
    name = "mixing-cell"
    cascade = CascadeConfig(
        stage1_steps=20, stage1_restarts=2, stage2_steps=20, stage2_restarts=2,
        top_k=2, inner_optimizer="sign-sgd",
    )
    eval_size = 1200
    required_layers = (
        "autodiff.silu", "autodiff.matmul", "autodiff.add_bias", "autodiff.kl_divergence",
        "autodiff.softmax_cross_entropy", "autodiff.backward", "models.forward_logits",
        "models.ema_update", "data.derive_rng", "attacks.pgd", "attacks.attack_cascade",
        "training.train", "training.trades_loss", "optim.step", "labeling.train_nonrobust",
        "labeling.pseudo_label", "generation.fit", "generation.sample",
        "experiments.prepare_sources", "experiments.run_mixing_sweep",
    )
    unused_layers = ("autodiff.conv2d",)

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = SyntheticDatasetSpec(
            num_classes=4, image_shape=(1, 8, 8), family="gaussian", latent_dim=10,
            class_separation=3.0, noise_scale=0.55, anisotropy=0.15,
            train_size=280, test_size=1200, holdout_size=400, seed=FIXED_SEED,
        )
        self.cascade = replace(self.cascade, seed=seed)
        self.labeler_cfg = ModelConfig(kind="mlp", input_shape=(1, 8, 8), num_classes=4, hidden=(128,), seed=0)
        self.model_cfg = ModelConfig(kind="mlp", input_shape=(1, 8, 8), num_classes=4, hidden=(192,), seed=0)
        self.train_cfg = TrainConfig(
            alpha=0.8, beta=6.0, epochs=100, batch_size=16, lr0=0.05, ema_tau=0.997,
            perturbation=PerturbationSet("linf", 0.02),
            inner_attack=AttackConfig(
                steps=10, step_size=0.1, inner_optimizer="adam", objective="kl-vs-clean",
                random_start=True,
            ),
            early_stop=EarlyStopConfig(validation_size=64, pgd_steps=20, eval_every=10),
            seed=FIXED_SEED,
        )

    def setup(self, work_dir: str) -> None:
        self.sources = experiments.prepare_sources(
            self.spec, self.labeler_cfg, labeler_epochs=150, pool_per_class=1500, pca_components=10,
        )

    def run_round(self, out_dir: str, tracer=None) -> Round:
        rnd = Round()
        probes = _boundary_probes(
            [(experiments, "train", "train"), (experiments, "attack_cascade", "cascade")], rnd
        )
        try:
            result = experiments.run_mixing_sweep(
                self.train_cfg, self.model_cfg, alphas=[0.8], seeds=[0], sources=self.sources,
                cascade=self.cascade, eval_size=self.eval_size, out_dir=out_dir,
            )
        finally:
            probes.uninstall()
        rnd.attempted = len(result.rows)
        rnd.failed = sum(1 for r in result.rows if "error" in r)
        _account(rnd, probes)
        if rnd.failed:
            rnd.error = result.rows[0]["error"]
        else:
            (args, _, cascade_result), = rnd.captured["cascade"]
            rnd.fingerprint = checks.fingerprint(
                *[(k, r[k]) for r in result.rows for k in sorted(r, key=str)],
                *[v for _, v in sorted(_weights(args[0]).items())],
                *[tuple(sorted(r.items())) for r in cascade_result.records],
            )
        return rnd

    def check(self, rnd: Round) -> dict:
        (args, _, res), = rnd.captured["cascade"]
        model, data, pset = args[0], args[1], args[2]
        clean, s1, s2 = _records(res)
        checks.check_clean_predictions("mlp", _weights(model), data.images, data.labels, clean)
        checks.check_stage_nesting(clean, s1, s2)
        figures = _check_attack_strength(
            "mlp", _weights(model), data.images, data.labels, s1, s2, pset, self.cascade, self.seed)
        labeler = attacks.attack_cascade(self.sources.labeler, data, pset, self.cascade)
        checks.check_robustness_gain(res.robust_accuracy, labeler.robust_accuracy)
        checks.check_pixels(self.sources.pool.images, "generated pool")
        return {**figures, "labeler_robust": labeler.robust_accuracy}


# ---------------------------------------------------------------------------
# cnn-l2-cascade: a small CNN under l2, dominated by its evaluation cascade


class CnnL2Cascade:
    name = "cnn-l2-cascade"
    pset = PerturbationSet("l2", 0.5)  # training
    # The cascade evaluates beyond the training radius: at 0.5 it broke 3 of
    # 256 examples, too few for a skipped or weakened stage to show.
    eval_pset = PerturbationSet("l2", 1.0)
    cascade = CascadeConfig(
        stage1_steps=20, stage1_restarts=3, stage2_steps=20, stage2_restarts=2,
        top_k=3, inner_optimizer="adam",
    )
    eval_size = 256
    required_layers = (
        "autodiff.conv2d", "autodiff.silu", "autodiff.matmul", "autodiff.add_bias",
        "autodiff.kl_divergence", "autodiff.softmax_cross_entropy", "autodiff.backward",
        "models.forward_logits", "models.ema_update", "data.derive_rng", "attacks.pgd",
        "attacks.attack_cascade", "training.train", "training.trades_loss", "optim.step",
    )
    unused_layers = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = SyntheticDatasetSpec(
            num_classes=4, image_shape=(3, 16, 16), family="gaussian", latent_dim=12,
            class_separation=3.0, noise_scale=0.5, anisotropy=0.5, pixel_scale=1.0,
            train_size=576, test_size=self.eval_size, holdout_size=64, seed=FIXED_SEED,
        )
        self.cascade = replace(self.cascade, seed=seed)
        self.model_cfg = ModelConfig(
            kind="small-cnn", input_shape=(3, 16, 16), num_classes=4, channels=(8, 16), seed=FIXED_SEED,
        )
        self.train_cfg = TrainConfig(
            alpha=1.0, beta=6.0, epochs=6, batch_size=32, lr0=0.1, ema_tau=0.99,
            perturbation=self.pset,
            inner_attack=AttackConfig(
                steps=5, step_size=0.1, inner_optimizer="adam", objective="kl-vs-clean",
                random_start=True,
            ),
            early_stop=EarlyStopConfig(validation_size=64, pgd_steps=10, eval_every=3),
            seed=FIXED_SEED,
        )

    def setup(self, work_dir: str) -> None:
        self.train_ds, self.test_ds, _ = experiments.make_synthetic_dataset(self.spec)

    def run_round(self, out_dir: str, tracer=None) -> Round:
        del out_dir  # nothing is written
        rnd = Round()
        probes = _boundary_probes(
            [(training, "train", "train"), (attacks, "attack_cascade", "cascade")], rnd
        )
        try:
            for op in (self._train, self._evaluate):
                rnd.attempted += 1
                try:
                    op()
                except Exception as exc:  # an operation that raises counts as failed
                    rnd.failed += 1
                    rnd.error = repr(exc)
                    break
        finally:
            probes.uninstall()
        _account(rnd, probes)
        if not rnd.failed:
            rnd.fingerprint = checks.fingerprint(
                *[v for _, v in sorted(_weights(self.model).items())],
                *[tuple(sorted(r.items())) for r in self.result.records],
            )
        return rnd

    def _train(self) -> None:
        self.model, _ = training.train(self.train_cfg, self.train_ds, None, models.init(self.model_cfg))

    def _evaluate(self) -> None:
        self.result = attacks.attack_cascade(self.model, self.test_ds, self.eval_pset, self.cascade)

    def check(self, rnd: Round) -> dict:
        (args, _, res), = rnd.captured["cascade"]
        model, data, pset = args[0], args[1], args[2]
        clean, s1, s2 = _records(res)
        checks.check_clean_predictions("small-cnn", _weights(model), data.images, data.labels, clean)
        checks.check_stage_nesting(clean, s1, s2)
        figures = _check_attack_strength(
            "small-cnn", _weights(model), data.images, data.labels, s1, s2, pset, self.cascade, self.seed)
        x = data.images[:64]
        for restarts, optimizer in ((1, "sign-sgd"), (2, "adam")):
            attacked = attacks.pgd(
                model, x, data.labels[:64], self.pset,
                AttackConfig(steps=10, step_size=0.1, inner_optimizer=optimizer, restarts=restarts),
            )
            checks.check_l2_ball(x, attacked.delta, self.pset.epsilon)
            checks.check_l2_ball(x, attacked.x_adv - x, self.pset.epsilon)
        return figures


# ---------------------------------------------------------------------------
# cli-pipeline: the eight subcommands on a config file


class CliPipeline:
    name = "cli-pipeline"
    eval_size = 2000
    required_layers = tuple(f"cli.{c}" for c in SUBCOMMANDS) + (
        "labeling.train_nonrobust", "labeling.pseudo_label", "generation.fit",
        "generation.sample", "diagnostics.complementarity_coverage",
        "diagnostics.unique_nn_coverage", "diagnostics.fid", "diagnostics.is_score",
        "diagnostics.loss_landscape", "container.save_container", "container.load_container",
        "training.train", "attacks.attack_cascade", "attacks.pgd", "autodiff.backward",
    )
    unused_layers = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.raw = {
            "dataset": {
                "num_classes": 4, "image_shape": [1, 8, 8], "family": "gaussian",
                "latent_dim": 10, "class_separation": 3.0, "noise_scale": 0.55,
                "anisotropy": 0.15, "train_size": 2000, "test_size": 2000,
                "holdout_size": 500, "seed": FIXED_SEED,
            },
            "model": {"kind": "mlp", "hidden": [64], "seed": FIXED_SEED},
            "labeler": {"hidden": [128], "epochs": 120, "batch_size": 64, "seed": FIXED_SEED},
            "generation": {"samples_per_class": 5000, "pca_components": 10},
            "train": {
                "alpha": 0.5, "beta": 6.0, "epochs": 5, "batch_size": 64, "lr0": 0.05,
                "perturbation": {"norm": "linf", "epsilon": 0.02},
                "inner_attack": {
                    "steps": 5, "step_size": 0.1, "inner_optimizer": "adam",
                    "objective": "kl-vs-clean", "random_start": True,
                },
                "early_stop": {"validation_size": 64, "pgd_steps": 10, "eval_every": 1},
                "seed": FIXED_SEED,
            },
            "cascade": {
                "stage1_steps": 20, "stage1_restarts": 2, "stage2_steps": 20,
                "stage2_restarts": 1, "top_k": 1, "inner_optimizer": "sign-sgd",
                "seed": seed,
            },
        }

    def setup(self, work_dir: str) -> None:
        self.config = os.path.join(work_dir, "config.json")
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self.raw, fh)

    def _argv(self, cmd: str, config: str, out_dir: str) -> list[str]:
        argv = [cmd, "--config", config, "--output-dir", out_dir]
        if cmd == "attack-eval":
            argv += ["--eval-size", str(self.eval_size)]
        return argv

    def run_round(self, out_dir: str, tracer=None) -> Round:
        rnd = Round()
        os.makedirs(out_dir)
        config = self.config
        probes = _boundary_probes(
            [(cli, "train", "train"), (cli, "attack_cascade", "cascade"),
             (cli, "complementarity_coverage", "nn"), (cli, "fid", "fid")], rnd
        )
        try:
            for cmd in SUBCOMMANDS:
                rnd.attempted += 1
                log = io.StringIO()
                span = tracer.span(f"cli.{cmd}") if tracer else contextlib.nullcontext()
                with span, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = cli.cli(self._argv(cmd, config, out_dir))
                if code != 0:
                    rnd.failed += 1
                    rnd.error = f"{cmd} exited {code}: {log.getvalue().strip()[-300:]}"
        finally:
            probes.uninstall()
        _account(rnd, probes)
        rnd.out_dir = out_dir
        parts = []
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                parts += [name, fh.read()]
        rnd.fingerprint = checks.fingerprint(*parts)
        return rnd

    def check(self, rnd: Round) -> dict:
        out = rnd.out_dir
        grtc = sorted(f for f in os.listdir(out) if f.endswith(".grtc"))
        checks._require(len(grtc) == 8, f"expected 8 artifacts, found {grtc}")
        loaded = {}
        for name in grtc:
            checks.check_container_crc(os.path.join(out, name))
            loaded[name] = container.load_container(os.path.join(out, name))
        checks.check_pixels(loaded["samples.grtc"]["images"], "generated samples")
        checks.check_pixels(loaded["pool.grtc"]["images"], "pseudo-labelled pool")

        def params(entries):
            return {k[len("param:"):]: v for k, v in entries.items() if k.startswith("param:")}

        labeler = params(loaded["labeler.grtc"])
        pool = loaded["pool.grtc"]
        checks.check_pseudo_labels(labeler, pool["images"], pool["pseudo_labels"].astype(np.int64))

        table = np.loadtxt(os.path.join(out, "attack_eval.csv"), delimiter=",", skiprows=1, ndmin=2)
        clean, s1, s2 = (table[:, i].astype(bool) for i in (1, 2, 3))
        test = loaded["test.grtc"]
        ids = table[:, 0].astype(np.int64)
        images, labels = test["images"][ids], test["labels"].astype(np.int64)[ids]
        weights = params(loaded["checkpoint.grtc"])
        checks.check_clean_predictions("mlp", weights, images, labels, clean)
        checks.check_stage_nesting(clean, s1, s2)
        (args, _, _), = rnd.captured["cascade"]
        ccfg, pset = args[3], args[2]
        figures = _check_attack_strength(
            "mlp", weights, images, labels, s1, s2, pset, ccfg, self.seed)

        (nn_args, _, report), = rnd.captured["nn"]
        checks.check_nn_figures(*nn_args, report)
        (fid_args, _, fid_value), = rnd.captured["fid"]
        checks.check_fid(*fid_args, fid_value)
        return {**figures, "fid": fid_value}


WORKLOADS = {w.name: w for w in (MixingCell, CnnL2Cascade, CliPipeline)}
