"""Command-line entry point.

Subcommands cover the full pipeline: make-data, train-nonrobust,
fit-gaussian, generate, pseudo-label, train, attack-eval, diagnose, sweep.
Each reads a JSON experiment config (see config.py) plus flag overrides.
Exit codes: 0 success, 1 configuration/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import replace

import numpy as np

from . import models as mdl
from .attacks import attack_cascade
from .config import ConfigError, ExperimentConfig, GenerationSection, load_config, parse_config
from .container import atomic_write_text, load_container, metadata_entries, save_container
from .data import LabeledDataset, derive_rng
from .diagnostics import (
    complementarity_coverage,
    embed,
    fid,
    fit_feature_embedder,
    is_score,
    loss_landscape,
    uniform_unique_nn_baseline,
    unique_nn_coverage,
)
from .experiments import (
    make_synthetic_dataset,
    prepare_sources,
    run_condition1_probe,
    run_condition23_probe,
    run_mixing_sweep,
    run_scaling_study,
    sample_generated_holdout,
    sample_true_sets,
)
from .generation import (
    default_component_count,
    fit_class_gaussians,
    fit_pca,
    load_external_samples,
    load_generator,
    sample,
    save_generator,
    save_sample_set,
)
from .labeling import (
    filter_topk_per_class,
    load_pseudo_labeled,
    pseudo_label,
    save_pseudo_labeled,
    train_nonrobust,
)
from .training import train

__all__ = ["cli", "main"]


def _write_dataset(path, ds: LabeledDataset, split: str, config_hash: str) -> None:
    entries = {"images": ds.images, "labels": ds.labels.astype(np.uint32)}
    entries.update(metadata_entries({"split": split, "config_hash": config_hash}))
    save_container(path, entries)


def _read_dataset(path) -> LabeledDataset:
    entries = load_container(path)
    return LabeledDataset(np.asarray(entries["images"]), entries["labels"].astype(np.int64))


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _out(cfg: ExperimentConfig, args, name: str) -> str:
    base = args.output_dir or cfg.output_dir
    os.makedirs(base, exist_ok=True)
    return os.path.join(base, name)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """Write the train flags into the config document and parse it again,
    so that ``cfg.hash`` covers them; with no flag the config is unchanged."""
    train_raw = dict(cfg.raw.get("train", {}))
    for key in ("alpha", "beta", "epochs", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            train_raw[key] = value
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None:
        train_raw["perturbation"] = {"norm": cfg.train.perturbation.norm, "epsilon": epsilon}
    if train_raw == cfg.raw.get("train", {}):
        return cfg
    return parse_config({**cfg.raw, "train": train_raw})


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_make_data(cfg: ExperimentConfig, args) -> int:
    train_ds, test_ds, holdout_ds = make_synthetic_dataset(cfg.dataset)
    for split, ds in (("train", train_ds), ("test", test_ds), ("holdout", holdout_ds)):
        path = _out(cfg, args, f"{split}.grtc")
        _write_dataset(path, ds, split, cfg.hash)
        print(f"wrote {path} ({len(ds)} examples)")
    return 0


def _labeler_model_config(cfg: ExperimentConfig) -> mdl.ModelConfig:
    return mdl.ModelConfig(
        kind="mlp",
        input_shape=cfg.dataset.image_shape,
        num_classes=cfg.dataset.num_classes,
        hidden=cfg.labeler.hidden,
        seed=cfg.labeler.seed,
    )


def _cmd_train_nonrobust(cfg: ExperimentConfig, args) -> int:
    train_ds = _read_dataset(_out(cfg, args, "train.grtc"))
    labeler = train_nonrobust(
        train_ds,
        _labeler_model_config(cfg),
        epochs=cfg.labeler.epochs,
        lr0=cfg.labeler.lr0,
        batch_size=cfg.labeler.batch_size,
        rng=derive_rng("cli-labeler", cfg.labeler.seed),
    )
    holdout = _read_dataset(_out(cfg, args, "holdout.grtc"))
    acc = mdl.accuracy(labeler, holdout)
    path = _out(cfg, args, "labeler.grtc")
    mdl.save_checkpoint(path, labeler, config_hash=cfg.hash)
    print(f"wrote {path} (holdout accuracy {acc:.4f})")
    return 0


def _cmd_fit_gaussian(cfg: ExperimentConfig, args) -> int:
    train_ds = _read_dataset(_out(cfg, args, "train.grtc"))
    k = cfg.generation.pca_components
    if k is None:
        k = default_component_count(cfg.dataset.flat_dim)
    pca = fit_pca(train_ds.images.reshape(len(train_ds), -1), k)
    generator = fit_class_gaussians(pca, train_ds)
    path = _out(cfg, args, "generator.grtc")
    save_generator(path, generator, config_hash=cfg.hash)
    print(f"wrote {path} (k={k}, {generator.num_classes} classes)")
    return 0


def _cmd_generate(cfg: ExperimentConfig, args) -> int:
    generator = load_generator(_out(cfg, args, "generator.grtc"))
    per_class = args.per_class if args.per_class is not None else cfg.generation.samples_per_class
    images = np.concatenate(
        [
            sample(generator, c, per_class, derive_rng("cli-generate", cfg.dataset.seed, c))
            for c in range(generator.num_classes)
        ]
    )
    path = _out(cfg, args, "samples.grtc")
    save_sample_set(path, images, None, provenance="gaussian-fit", config_hash=cfg.hash)
    print(f"wrote {path} ({images.shape[0]} samples)")
    return 0


def _cmd_pseudo_label(cfg: ExperimentConfig, args) -> int:
    labeler, _ = mdl.load_checkpoint(args.labeler or _out(cfg, args, "labeler.grtc"))
    sample_set = load_external_samples(args.samples or _out(cfg, args, "samples.grtc"))
    if sample_set.labels is not None and sample_set.labels.size:
        if sample_set.labels.max() >= labeler.config.num_classes:
            raise ConfigError("sample-set labels exceed the labeler's class count")
    pool = pseudo_label(
        labeler,
        sample_set.images,
        score_kind=cfg.generation.score_kind,
        labeler_id=f"labeler-{cfg.hash}",
    )
    if cfg.generation.filter_top_k is not None:
        pool = filter_topk_per_class(pool, cfg.generation.filter_top_k)
    path = _out(cfg, args, "pool.grtc")
    save_pseudo_labeled(path, pool, config_hash=cfg.hash)
    print(f"wrote {path} ({len(pool)} pseudo-labeled samples)")
    return 0


def _cmd_train(cfg: ExperimentConfig, args) -> int:
    train_ds = _read_dataset(_out(cfg, args, "train.grtc"))
    pool = None
    pool_path = _out(cfg, args, "pool.grtc")
    if cfg.train.alpha < 1.0:
        pool = load_pseudo_labeled(pool_path)
    model = mdl.init(cfg.model)
    trained, report = train(cfg.train, train_ds, pool, model)
    ckpt = _out(cfg, args, "checkpoint.grtc")
    mdl.save_checkpoint(ckpt, trained, step=report.stopped_step, config_hash=cfg.hash)
    report_path = _out(cfg, args, "train_report.csv")
    atomic_write_text(report_path, report.to_csv())
    print(
        f"wrote {ckpt} (best step {report.best_step}, "
        f"val robust {report.best_val_robust:.4f}); report at {report_path}"
    )
    return 0


def _cmd_attack_eval(cfg: ExperimentConfig, args) -> int:
    model, _ = mdl.load_checkpoint(args.checkpoint or _out(cfg, args, "checkpoint.grtc"))
    test_ds = _read_dataset(_out(cfg, args, "test.grtc"))
    if args.eval_size is not None:
        test_ds = test_ds.subset(np.arange(min(args.eval_size, len(test_ds))))
    pert = cfg.train.perturbation
    if getattr(args, "epsilon", None) is not None:
        pert = replace(pert, epsilon=args.epsilon)
    result = attack_cascade(model, test_ds, pert, cfg.cascade)
    rows = [
        [r["example_id"], int(r["clean_correct"]), int(r["stage1_survived"]),
         int(r["stage2_survived"]), f"{r['worst_margin']:.8g}"]
        for r in result.records
    ]
    path = _out(cfg, args, "attack_eval.csv")
    atomic_write_text(
        path,
        _csv_text(
            ["example_id", "clean_correct", "stage1_survived", "stage2_survived", "worst_margin"],
            rows,
        ),
    )
    print(f"clean accuracy {result.clean_accuracy:.4f}")
    print(f"robust accuracy {result.robust_accuracy:.4f}")
    print(f"wrote {path}")
    return 0


def _cmd_diagnose(cfg: ExperimentConfig, args) -> int:
    train_ds = _read_dataset(_out(cfg, args, "train.grtc"))
    test_ds = _read_dataset(_out(cfg, args, "test.grtc"))
    labeler, _ = mdl.load_checkpoint(args.labeler or _out(cfg, args, "labeler.grtc"))
    pool = load_pseudo_labeled(args.samples or _out(cfg, args, "pool.grtc"))

    n = min(len(train_ds), len(test_ds), len(pool))
    embedder = fit_feature_embedder(labeler, train_ds.images, test_ds.images)
    train_f = embed(embedder, train_ds.images[:n])
    test_f = embed(embedder, test_ds.images[:n])
    gen_f = embed(embedder, pool.images[:n])
    report = complementarity_coverage(train_f, test_f, gen_f)
    fid_value = fid(train_f, gen_f) if n > embedder.dim else float("nan")
    is_mean, is_std = is_score(labeler, pool.images, splits=min(10, max(1, len(pool) // 2)))
    # self-diagnosis: one half of the test features covering the other half
    half = len(test_f) // 2
    split_half = unique_nn_coverage(test_f[:half], test_f[half : 2 * half]) if half else float("nan")

    diag_path = _out(cfg, args, "diagnostics.csv")
    atomic_write_text(
        diag_path,
        _csv_text(
            ["c_train", "c_test", "c_self", "v_train", "v_test", "fid", "is_mean", "is_std",
             "split_half_coverage", "config_hash"],
            [[report.c_train, report.c_test, report.c_self, report.v_train, report.v_test,
              fid_value, is_mean, is_std, split_half, cfg.hash]],
        ),
    )
    print(
        f"complementarity train/test/self = {report.c_train:.3f}/{report.c_test:.3f}/{report.c_self:.3f}; "
        f"coverage train/test = {report.v_train:.3f}/{report.v_test:.3f}; "
        f"fid = {fid_value:.3f}; is = {is_mean:.3f} +/- {is_std:.3f}"
    )
    print(f"test-set split-half self coverage: {split_half:.4f}")
    print(f"uniform unique-NN baseline (n=10^4): "
          f"{uniform_unique_nn_baseline(10_000, derive_rng('cli-baseline', 0)):.4f}")

    scan = loss_landscape(
        labeler, train_ds.images[0], int(train_ds.labels[0]), cfg.train.perturbation,
        resolution=args.resolution,
    )
    land_path = _out(cfg, args, "landscape.csv")
    rows = [[f"{v:.8g}" for v in row] for row in scan["grid"]]
    atomic_write_text(land_path, _csv_text([f"{a:.4g}" for a in scan["axis"]], rows))
    print(f"wrote {diag_path} and {land_path}")
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    # prepare_sources labels the pool by max-prob with no top-k filter
    for name in ("score_kind", "filter_top_k"):
        if getattr(cfg.generation, name) != getattr(GenerationSection(), name):
            raise ConfigError(f"sweep does not apply generation.{name}; leave it at its default")
    sweep = cfg.sweep
    sources = prepare_sources(
        cfg.dataset,
        _labeler_model_config(cfg),
        labeler_epochs=cfg.labeler.epochs,
        labeler_lr0=cfg.labeler.lr0,
        labeler_batch_size=cfg.labeler.batch_size,
        pool_per_class=cfg.generation.samples_per_class,
        pca_components=cfg.generation.pca_components,
    )
    out_dir = os.path.join(args.output_dir or cfg.output_dir, f"sweep-{sweep.kind}")
    print(f"labeler holdout accuracy {sources.labeler_accuracy:.4f}; sweeping into {out_dir}")
    if sweep.kind == "mixing":
        result = run_mixing_sweep(
            cfg.train, cfg.model, sweep.alphas, sweep.seeds, sources,
            cascade=cfg.cascade, eval_size=sweep.eval_size, out_dir=out_dir,
            config_hash=cfg.hash,
        )
    elif sweep.kind == "condition1":
        probe_cfg = replace(cfg.train, alpha=sweep.alpha_for_probe)
        result = run_condition1_probe(
            probe_cfg, cfg.model, sweep.accuracy_levels, sweep.seeds, sources,
            cascade=cfg.cascade, eval_size=sweep.eval_size,
            level_tolerance=sweep.level_tolerance, out_dir=out_dir, config_hash=cfg.hash,
        )
    elif sweep.kind == "condition23":
        true_test, true_pool = sample_true_sets(
            sources, per_class=max(2, sweep.eval_size // cfg.dataset.num_classes),
            pool_per_class=cfg.generation.samples_per_class,
        )
        wide_cfg = None
        if sweep.wide_hidden:
            wide_cfg = replace(cfg.model, hidden=tuple(sweep.wide_hidden))
        probe_cfg = replace(cfg.train, alpha=0.0)
        result = run_condition23_probe(
            probe_cfg, cfg.model, sweep.axis, sweep.grid, sweep.seeds, sources,
            true_test=true_test, true_pool=true_pool, wide_model_cfg=wide_cfg,
            gauss_fraction=sweep.gauss_fraction, pool_total=sweep.pool_total,
            cascade=cfg.cascade, eval_size=sweep.eval_size, out_dir=out_dir,
            config_hash=cfg.hash,
        )
    else:
        gen_holdout = sample_generated_holdout(
            sources, per_class=max(2, sweep.eval_size // cfg.dataset.num_classes)
        )
        probe_cfg = replace(cfg.train, alpha=0.0)
        result = run_scaling_study(
            probe_cfg, cfg.model, sweep.sample_counts, sweep.seeds, sources,
            gen_holdout=gen_holdout, cascade=cfg.cascade, eval_size=sweep.eval_size,
            out_dir=out_dir, config_hash=cfg.hash,
        )
    ok = sum(1 for r in result.rows if "error" not in r)
    print(f"sweep complete: {ok}/{len(result.rows)} cells ok; results in {out_dir}")
    return 0 if ok == len(result.rows) else 2


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="genrobust", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name, fn, **extra_flags):
        p = sub.add_parser(name, add_help=True)
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--output-dir", default=None, help="override the config's output_dir")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("make-data", _cmd_make_data)
    add("train-nonrobust", _cmd_train_nonrobust)
    add("fit-gaussian", _cmd_fit_gaussian)
    add("generate", _cmd_generate, **{"--per-class": dict(type=_positive_int, default=None)})
    add("pseudo-label", _cmd_pseudo_label, **{
        "--samples": dict(default=None), "--labeler": dict(default=None),
    })
    add("train", _cmd_train, **{
        "--alpha": dict(type=float, default=None),
        "--beta": dict(type=float, default=None),
        "--epochs": dict(type=int, default=None),
        "--seed": dict(type=int, default=None, help=(
            "set train.seed: batch order, generated-sample draws and the validation "
            "attack's random starts; model.seed (initial weights) stays as configured, "
            "whereas sweep cells derive both from the seed index")),
        "--epsilon": dict(type=float, default=None),
    })
    add("attack-eval", _cmd_attack_eval, **{
        "--checkpoint": dict(default=None),
        "--epsilon": dict(type=float, default=None),
        "--eval-size": dict(type=_positive_int, default=None),
    })
    add("diagnose", _cmd_diagnose, **{
        "--samples": dict(default=None),
        "--labeler": dict(default=None),
        "--resolution": dict(type=int, default=11),
    })
    add("sweep", _cmd_sweep)
    return parser


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        return args.fn(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())
