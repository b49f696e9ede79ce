"""Config parsing strictness and the full CLI pipeline on a miniature setup."""

import csv
import json
import os

import numpy as np
import pytest

from genrobust.cli import cli
from genrobust.config import ConfigError, config_hash, load_config, parse_config
from genrobust.container import decode_metadata, load_container
from genrobust.models import load_checkpoint


def minimal_raw(**over):
    raw = {
        "dataset": {
            "num_classes": 3,
            "image_shape": [1, 4, 4],
            "family": "gaussian",
            "latent_dim": 4,
            "class_separation": 3.0,
            "noise_scale": 0.4,
            "train_size": 90,
            "test_size": 45,
            "holdout_size": 21,
            "seed": 7,
        },
        "model": {"kind": "mlp", "hidden": [16]},
        "labeler": {"hidden": [16], "epochs": 20},
        "generation": {"samples_per_class": 30, "pca_components": 4},
        "train": {
            "alpha": 1.0,
            "beta": 1.0,
            "epochs": 2,
            "batch_size": 16,
            "lr0": 0.05,
            "perturbation": {"norm": "linf", "epsilon": 0.02},
            "inner_attack": {
                "steps": 2, "step_size": 0.1, "inner_optimizer": "adam",
                "objective": "kl-vs-clean", "random_start": True,
            },
            "early_stop": {"validation_size": 15, "pgd_steps": 3, "eval_every": 2},
            "seed": 0,
        },
        "cascade": {
            "stage1_steps": 2, "stage1_restarts": 1, "stage2_steps": 2,
            "stage2_restarts": 1, "top_k": 1, "inner_optimizer": "sign-sgd",
        },
        "sweep": {"kind": "mixing", "alphas": [1.0], "seeds": [0], "eval_size": 20},
    }
    raw.update(over)
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


# ---------------------------------------------------------------------------
# parsing


def test_parse_valid_config():
    cfg = parse_config(minimal_raw())
    assert cfg.dataset.num_classes == 3
    assert cfg.train.inner_attack.steps == 2
    assert cfg.model.input_shape == (1, 4, 4)
    assert len(cfg.hash) == 16


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        parse_config(minimal_raw(typo_section={}))


def test_unknown_nested_key_rejected():
    raw = minimal_raw()
    raw["train"]["learning_rate"] = 0.1  # typo'd key
    with pytest.raises(ConfigError, match="train"):
        parse_config(raw)


def test_bad_value_reported_with_section():
    raw = minimal_raw()
    raw["train"]["alpha"] = 2.0
    with pytest.raises(ConfigError, match="train"):
        parse_config(raw)


def test_model_shape_mismatch_rejected():
    raw = minimal_raw()
    raw["model"]["input_shape"] = [1, 8, 8]
    with pytest.raises(ConfigError, match="input_shape"):
        parse_config(raw)


def test_config_hash_stable_under_key_order():
    a = {"x": 1, "y": {"b": 2, "a": 3}}
    b = {"y": {"a": 3, "b": 2}, "x": 1}
    assert config_hash(a) == config_hash(b)


def test_missing_config_file_reported():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path.json")


# ---------------------------------------------------------------------------
# CLI


def test_cli_missing_config_exits_one(tmp_path, capsys):
    code = cli(["train", "--config", str(tmp_path / "missing.json")])
    assert code == 1
    assert "missing.json" in capsys.readouterr().err


def test_cli_unknown_subcommand_exits_one(tmp_path, capsys):
    code = cli(["frobnicate", "--config", "x.json"])
    assert code == 1


def test_cli_unknown_flag_exits_one(tmp_path, capsys):
    raw = minimal_raw()
    path = write_config(tmp_path, raw)
    code = cli(["train", "--config", path, "--no-such-flag"])
    assert code == 1


def test_cli_full_pipeline(tmp_path, capsys):
    out = str(tmp_path / "run")
    path = write_config(tmp_path, minimal_raw(output_dir=out))

    assert cli(["make-data", "--config", path]) == 0
    assert os.path.exists(os.path.join(out, "train.grtc"))
    assert cli(["train-nonrobust", "--config", path]) == 0
    assert cli(["fit-gaussian", "--config", path]) == 0
    assert cli(["generate", "--config", path, "--per-class", "20"]) == 0
    assert cli(["pseudo-label", "--config", path]) == 0
    assert cli(["train", "--config", path, "--alpha", "0.5"]) == 0
    assert cli(["attack-eval", "--config", path, "--eval-size", "20"]) == 0
    assert cli(["diagnose", "--config", path, "--resolution", "5"]) == 0

    for name in (
        "labeler.grtc", "generator.grtc", "samples.grtc", "pool.grtc",
        "checkpoint.grtc", "train_report.csv", "attack_eval.csv",
        "diagnostics.csv", "landscape.csv",
    ):
        assert os.path.exists(os.path.join(out, name)), name

    header = open(os.path.join(out, "attack_eval.csv")).readline().strip()
    assert header == "example_id,clean_correct,stage1_survived,stage2_survived,worst_margin"


def test_cli_alpha_override_changes_pool_requirement(tmp_path):
    out = str(tmp_path / "run2")
    path = write_config(tmp_path, minimal_raw(output_dir=out))
    assert cli(["make-data", "--config", path]) == 0
    # alpha=1.0 needs no pool file at all
    assert cli(["train", "--config", path, "--alpha", "1.0"]) == 0


def test_cli_overrides_reach_the_config_hash(tmp_path):
    out = str(tmp_path / "run6")
    path = write_config(tmp_path, minimal_raw(output_dir=out))
    ckpt = os.path.join(out, "checkpoint.grtc")
    for step in (["make-data"], ["train-nonrobust"], ["fit-gaussian"],
                 ["generate", "--per-class", "20"], ["pseudo-label"]):
        assert cli([*step, "--config", path]) == 0

    def stamped(*flags):
        assert cli(["train", "--config", path, *flags]) == 0
        return decode_metadata(load_container(ckpt)["meta:config_hash"])

    plain = stamped()
    assert plain == load_config(path).hash
    half = stamped("--alpha", "0.5")
    reseeded = stamped("--alpha", "1.0", "--seed", "7")
    assert len({plain, half, reseeded}) == 3


def test_cli_checkpoint_round_trip_logits(tmp_path):
    out = str(tmp_path / "run3")
    path = write_config(tmp_path, minimal_raw(output_dir=out))
    assert cli(["make-data", "--config", path]) == 0
    assert cli(["train", "--config", path, "--alpha", "1.0"]) == 0
    model, _ = load_checkpoint(os.path.join(out, "checkpoint.grtc"))
    from genrobust.models import forward_logits

    entries = load_container(os.path.join(out, "train.grtc"))
    x = np.asarray(entries["images"][:4])
    a = forward_logits(model, x).data
    model2, _ = load_checkpoint(os.path.join(out, "checkpoint.grtc"))
    b = forward_logits(model2, x).data
    assert np.array_equal(a, b)


def test_cli_rejects_sample_labels_beyond_class_count(tmp_path):
    out = str(tmp_path / "run5")
    path = write_config(tmp_path, minimal_raw(output_dir=out))
    assert cli(["make-data", "--config", path]) == 0
    assert cli(["train-nonrobust", "--config", path]) == 0
    from genrobust.generation import save_sample_set

    bad = str(tmp_path / "bad_samples.grtc")
    save_sample_set(bad, np.random.default_rng(0).uniform(size=(4, 1, 4, 4)),
                    np.array([0, 1, 2, 7]), provenance="external:test")
    assert cli(["pseudo-label", "--config", path, "--samples", bad]) == 1


def test_cli_sweep_resumes(tmp_path, capsys):
    out = str(tmp_path / "run4")
    path = write_config(tmp_path, minimal_raw(output_dir=out))
    assert cli(["sweep", "--config", path]) == 0
    cells_dir = os.path.join(out, "sweep-mixing", "cells")
    first = {f: os.path.getmtime(os.path.join(cells_dir, f)) for f in os.listdir(cells_dir)}
    assert cli(["sweep", "--config", path]) == 0  # rerun: no retraining
    second = {f: os.path.getmtime(os.path.join(cells_dir, f)) for f in os.listdir(cells_dir)}
    assert first == second
    assert os.path.exists(os.path.join(out, "sweep-mixing", "cells.csv"))
    assert os.path.exists(os.path.join(out, "sweep-mixing", "summary.csv"))


def test_cli_sweep_exits_2_when_a_cell_fails(tmp_path, monkeypatch, capsys):
    from genrobust import experiments

    real_train = experiments.train

    def failing_train(config, *args, **kwargs):
        if config.alpha == 0.5:
            raise RuntimeError("cell failed")
        return real_train(config, *args, **kwargs)

    monkeypatch.setattr(experiments, "train", failing_train)
    out = str(tmp_path / "run7")
    sweep = {"kind": "mixing", "alphas": [0.5, 1.0], "seeds": [0], "eval_size": 20}
    path = write_config(tmp_path, minimal_raw(output_dir=out, sweep=sweep))
    assert cli(["sweep", "--config", path]) == 2
    assert "1/2 cells ok" in capsys.readouterr().out


def test_cli_sweep_recomputes_cells_after_config_change(tmp_path, capsys):
    out = str(tmp_path / "run5")
    raw = minimal_raw(output_dir=out)
    path = write_config(tmp_path, raw)
    assert cli(["sweep", "--config", path]) == 0
    raw["train"]["epochs"] = 3
    changed = write_config(tmp_path, raw, name="changed.json")
    assert cli(["sweep", "--config", changed]) == 0
    new_hash = load_config(changed).hash
    cells_dir = os.path.join(out, "sweep-mixing", "cells")
    for name in os.listdir(cells_dir):
        with open(os.path.join(cells_dir, name), newline="", encoding="utf-8") as fh:
            (cell,) = csv.DictReader(fh)
        assert cell["config_hash"] == new_hash  # recomputed under the new config
