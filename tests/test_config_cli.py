"""Config parsing strictness and the full CLI pipeline on a miniature setup."""

import csv
import json
import os

import numpy as np
import pytest

from genrobust.cli import _apply_overrides, _build_parser, cli
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


BAD_EVALUATION_VALUES = [
    ("train.early_stop", "eval_every", 0),
    ("train.early_stop", "validation_size", -5),
    ("train.early_stop", "pgd_steps", -1),
    ("cascade", "stage1_steps", -1),
    ("cascade", "stage2_steps", -1),
    ("cascade", "stage1_restarts", 0),
    ("cascade", "stage2_restarts", 0),
    ("cascade", "top_k", -1),
    ("cascade", "inner_optimizer", "bogus"),
    ("cascade", "step_size", 0.0),
]


def _with_value(section, key, value, **over):
    raw = minimal_raw(**over)
    target = raw["train"]["early_stop"] if section == "train.early_stop" else raw["cascade"]
    target[key] = value
    return raw


@pytest.mark.parametrize("section, key, value", BAD_EVALUATION_VALUES)
def test_bad_validation_and_cascade_values_rejected(section, key, value):
    with pytest.raises(ConfigError, match=f"^{section}: ") as err:
        parse_config(_with_value(section, key, value))
    assert key in str(err.value) or repr(value) in str(err.value)


def test_cli_train_rejects_a_bad_eval_every_before_any_compute(tmp_path, capsys):
    out = tmp_path / "run8"
    path = write_config(tmp_path, _with_value("train.early_stop", "eval_every", 0, output_dir=str(out)))
    assert cli(["train", "--config", path]) == 1
    assert "eval_every" in capsys.readouterr().err
    assert not out.exists()


def _with_attack_value(where, value, **over):
    raw = minimal_raw(**over)
    if where == "train.perturbation.epsilon":
        raw["train"]["perturbation"]["epsilon"] = value
    elif where == "train.inner_attack.step_size":
        raw["train"]["inner_attack"]["step_size"] = value
    elif where == "train.beta":
        raw["train"]["beta"] = value
    else:
        raw["cascade"]["step_size"] = value
    return raw


NON_FINITE_SETTINGS = [
    "train.perturbation.epsilon", "train.inner_attack.step_size", "train.beta", "cascade.step_size",
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("where", NON_FINITE_SETTINGS)
def test_non_finite_attack_and_loss_settings_rejected(where, value):
    """NaN fails every comparison, so the range checks must ask for finite values."""
    section, key = where.rsplit(".", 1)
    with pytest.raises(ConfigError, match=f"^{section}: {key} must be") as err:
        parse_config(_with_attack_value(where, value))
    assert "finite" in str(err.value)


@pytest.mark.parametrize("where", NON_FINITE_SETTINGS)
def test_cli_train_rejects_a_nan_setting_before_any_compute(tmp_path, capsys, where):
    out = tmp_path / "run10"
    path = write_config(tmp_path, _with_attack_value(where, float("nan"), output_dir=str(out)))
    assert "NaN" in open(path).read()  # Python's json writes and reads NaN
    assert cli(["train", "--config", path]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value", [("epochs", -3), ("batch_size", 0), ("lr0", 0.0), ("hidden", [16, 0])]
)
def test_bad_labeler_values_rejected(key, value):
    raw = minimal_raw()
    raw["labeler"][key] = value
    with pytest.raises(ConfigError, match=f"^labeler: {key}"):
        parse_config(raw)


def test_cli_train_nonrobust_rejects_a_bad_labeler_batch_size(tmp_path, capsys):
    out = tmp_path / "run9"
    raw = minimal_raw(output_dir=str(out))
    path = write_config(tmp_path, raw)
    assert cli(["make-data", "--config", path]) == 0
    raw["labeler"]["batch_size"] = 0
    path = write_config(tmp_path, raw, name="bad.json")
    assert cli(["train-nonrobust", "--config", path]) == 1
    assert "batch_size" in capsys.readouterr().err
    assert not (out / "labeler.grtc").exists()


@pytest.mark.parametrize("key, value", [("score_kind", "max-logit"), ("filter_top_k", 5)])
def test_cli_sweep_rejects_a_generation_setting_it_ignores_before_any_compute(
    tmp_path, capsys, monkeypatch, key, value
):
    """sweep labels its pool by max-prob with no top-k filter, so it refuses
    a config that asks for anything else rather than ignore it."""
    from genrobust import cli as cli_module

    monkeypatch.setattr(cli_module, "prepare_sources", lambda *a, **k: pytest.fail("sweep computed"))
    out = tmp_path / "run11"
    raw = minimal_raw(output_dir=str(out))
    raw["generation"][key] = value
    assert cli(["sweep", "--config", write_config(tmp_path, raw)]) == 1
    assert f"generation.{key}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["attack-eval", "--eval-size", "0"], "--eval-size"),
    (["attack-eval", "--eval-size", "-3"], "--eval-size"),
    (["generate", "--per-class", "0"], "--per-class"),
])
def test_cli_rejects_a_size_below_one_before_any_compute(tmp_path, capsys, argv, flag):
    out = tmp_path / "run12"
    path = write_config(tmp_path, minimal_raw(output_dir=str(out)))
    assert cli([argv[0], "--config", path, *argv[1:]]) == 1
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [0, -2])
def test_cli_sweep_rejects_an_eval_size_below_one_before_any_compute(tmp_path, capsys, monkeypatch, value):
    from genrobust import cli as cli_module

    monkeypatch.setattr(cli_module, "prepare_sources", lambda *a, **k: pytest.fail("sweep computed"))
    out = tmp_path / "run13"
    raw = minimal_raw(output_dir=str(out))
    raw["sweep"]["eval_size"] = value
    assert cli(["sweep", "--config", write_config(tmp_path, raw)]) == 1
    assert f"sweep: eval_size must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_attack_eval_at_epsilon_zero_leaves_every_clean_prediction(tmp_path, capsys):
    """``attack-eval --epsilon 0.3`` breaks some examples; at ``--epsilon 0``
    no perturbation can move an input, so robust accuracy equals clean
    accuracy, and each example survives both stages exactly when it is
    clean-correct."""
    out = str(tmp_path / "run-eps")
    path = write_config(tmp_path, minimal_raw(output_dir=out))
    assert cli(["make-data", "--config", path]) == 0
    assert cli(["train", "--config", path, "--alpha", "1.0", "--epochs", "30"]) == 0  # long enough to classify

    def attack_eval(*flags):
        capsys.readouterr()
        assert cli(["attack-eval", "--config", path, "--eval-size", "20", *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        printed = dict(line.rsplit(" ", 1) for line in lines if "accuracy" in line)
        with open(os.path.join(out, "attack_eval.csv")) as fh:
            return float(printed["clean accuracy"]), float(printed["robust accuracy"]), list(csv.DictReader(fh))

    clean, robust, _ = attack_eval("--epsilon", "0.3")
    assert robust < clean
    clean, robust, rows = attack_eval("--epsilon", "0")
    assert robust == clean and len(rows) == 20
    assert all(row["stage2_survived"] == row["clean_correct"] for row in rows)


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


def test_cli_seed_sets_train_seed_not_model_seed(tmp_path):
    raw = minimal_raw(model={"kind": "mlp", "hidden": [16], "seed": 3})
    path = write_config(tmp_path, raw)
    args = _build_parser().parse_args(["train", "--config", path, "--seed", "5"])
    plain = load_config(path)
    seeded = _apply_overrides(plain, args)
    assert seeded.raw["train"]["seed"] == 5 and seeded.train.seed == 5
    assert seeded.raw["model"] == raw["model"] and seeded.model.seed == 3
    assert seeded.hash != plain.hash


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


def test_cli_dataset_reader_rejects_another_kind_of_container(tmp_path):
    from genrobust.cli import _read_dataset
    from genrobust.labeling import PseudoLabeledSet, save_pseudo_labeled

    path = tmp_path / "pool.grtc"
    save_pseudo_labeled(path, PseudoLabeledSet(np.zeros((2, 1, 4, 4)), np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError, match=r"pool\.grtc: no entry 'labels'"):
        _read_dataset(path)


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


def test_cli_sweep_trains_the_labeler_with_its_lr0_and_batch_size(tmp_path, monkeypatch):
    from genrobust import experiments

    seen = {}

    def spy(data, config, epochs, lr0=0.1, batch_size=64, rng=None):
        seen.update(epochs=epochs, lr0=lr0, batch_size=batch_size)
        raise RuntimeError("stop after the labeler call")

    monkeypatch.setattr(experiments, "train_nonrobust", spy)
    raw = minimal_raw(output_dir=str(tmp_path / "run10"))
    raw["labeler"].update(lr0=0.02, batch_size=8)
    assert cli(["sweep", "--config", write_config(tmp_path, raw)]) == 2
    assert seen == dict(epochs=20, lr0=0.02, batch_size=8)


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
