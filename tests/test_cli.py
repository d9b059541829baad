import dataclasses
import json
import math

import numpy as np
import pytest

from boxdistill.anchors import build_anchor_grid
from boxdistill.cli import main
from boxdistill.config import config_from_dict, default_config, load_config, save_config
from boxdistill.experiments import build_dataset, load_params
from boxdistill.sim import DetectorParams, save_scenes


@pytest.fixture()
def tiny_config_path(tmp_path):
    cfg = config_from_dict(
        {
            "name": "cli-tiny",
            "grid": {
                "x_range": [0.0, 12.0],
                "z_range": [0.0, 12.0],
                "cell": [1.0, 1.0],
                "classes": [
                    {"name": "car", "l": 3.2, "w": 1.5, "h": 1.5, "cy": 0.5,
                     "pos_iou": 0.5, "neg_iou": 0.3, "eval_iou": 0.5},
                ],
            },
            "scene": {"n_objects": [1, 3], "border_margin": 2.0, "class_weights": []},
            "data": {"n_train_scenes": 2, "n_val_scenes": 2},
            "optimizer": {"epochs": 2},
            "seeds": [0],
            "arms": [
                {"name": "baseline", "loss": {"xgd_weight": 0.0, "cld_weight": 0.0}},
                {"name": "xgd_cld", "loss": {}},
            ],
        }
    )
    path = tmp_path / "config.json"
    save_config(cfg, path)
    return path


def test_gen_data_writes_scene_files(tiny_config_path, tmp_path, capsys, monkeypatch):
    import boxdistill.experiments as ex

    # Writing scenes assigns no targets and runs no teacher.
    for name in ("assign_targets", "teacher_predict"):
        monkeypatch.setattr(ex, name, lambda *args, name=name: pytest.fail(f"gen-data called {name}"))
    out = tmp_path / "data"
    assert main(["gen-data", str(tiny_config_path), str(out)]) == 0
    assert (out / "train_seed0.jsonl").exists()
    assert (out / "val_seed0.jsonl").exists()
    lines = (out / "train_seed0.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert set(record) == {"seed", "gts", "class_ids"}
    # The files hold exactly the scenes build_dataset trains and scores on.
    config = load_config(tiny_config_path)
    dataset = build_dataset(config, 0)
    for split, scenes in (("train", dataset.train_scenes), ("val", dataset.val_scenes)):
        save_scenes(tmp_path / "expected.jsonl", scenes)
        assert (out / f"{split}_seed0.jsonl").read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_train_then_eval(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", str(tiny_config_path), "--out", str(out)]) == 0
    params = out / "params_seed0.json"
    assert params.exists()
    assert (out / "history_seed0.json").exists()
    capsys.readouterr()
    assert main(["eval", str(tiny_config_path), str(params)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert "mean_ap3d" in payload
    assert payload["per_class"][0]["class"] == "car"
    assert captured.err == ""


def test_eval_notes_params_trained_under_another_config(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", str(tiny_config_path), "--out", str(out)]) == 0
    params = out / "params_seed0.json"
    trained_under = load_params(params)[1]["config_hash"]
    config, other = load_config(tiny_config_path), tmp_path / "other.json"
    save_config(dataclasses.replace(config, scene=dataclasses.replace(config.scene, n_objects=(2, 4))), other)
    capsys.readouterr()
    assert main(["eval", str(other), str(params)]) == 0
    captured = capsys.readouterr()
    scored_under = json.loads(captured.out)["config_hash"]
    assert scored_under != trained_under
    # The status and the JSON stay as they are; stderr names both hashes.
    assert trained_under in captured.err and scored_under in captured.err


def test_eval_names_the_head_widths_of_params_from_another_grid(tiny_config_path, tmp_path, capsys):
    # Trained with two rotations, scored under one: no teacher is read, so
    # the message speaks of the params and the grid.
    out = tmp_path / "run"
    assert main(["train", str(tiny_config_path), "--out", str(out)]) == 0
    config = load_config(tiny_config_path)
    one_rotation = dataclasses.replace(config, grid=dataclasses.replace(config.grid, rotations=(0.0,)))
    path = tmp_path / "one_rotation.json"
    save_config(one_rotation, path)
    want = r"heads are 2 \(w_cls\) and 14 \(w_reg\) wide, the grid's k_a\*k_c = 1\*1 = 1 and k_a\*7 = 7"
    with pytest.raises(ValueError, match=want):
        main(["eval", str(path), str(out / "params_seed0.json")])


def test_eval_names_the_file_and_the_weight_it_lacks(tiny_config_path, tmp_path):
    grid = build_anchor_grid(load_config(tiny_config_path).grid)
    params = DetectorParams.init(0, 16, grid.k_a, grid.k_c)
    payload = {"seed": 0, "b_cls": params.b_cls.tolist(), "w_reg": params.w_reg.tolist(),
               "b_reg": params.b_reg.tolist()}
    path = tmp_path / "no_w_cls.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match=r"no_w_cls\.json: params file has no 'w_cls'"):
        main(["eval", str(tiny_config_path), str(path)])


def test_train_with_zero_epochs(tiny_config_path, tmp_path, capsys):
    # 0 epochs saves the initialized model; printing the final loss used to
    # raise IndexError on the empty history after both files were written.
    config = load_config(tiny_config_path)
    config = dataclasses.replace(config, optimizer=dataclasses.replace(config.optimizer, epochs=0))
    path = tmp_path / "zero.json"
    save_config(config, path)
    out = tmp_path / "run"
    assert main(["train", str(path), "--out", str(out)]) == 0
    assert "seed 0: 0 epochs, initialized model" in capsys.readouterr().out
    params, _ = load_params(out / "params_seed0.json")
    grid = build_anchor_grid(config.grid)
    init = DetectorParams.init(0, config.scene.feature_dim, grid.k_a, grid.k_c)
    for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
        assert np.array_equal(getattr(params, name), getattr(init, name)), name
    assert json.loads((out / "history_seed0.json").read_text()) == []


def test_ablate_writes_csv(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "abl"
    assert main(["ablate", str(tiny_config_path), "--out", str(out)]) == 0
    text = (out / "ablations.csv").read_text()
    assert text.startswith("experiment,arm,class,iou_thr,seed,")
    assert "baseline" in text and "xgd_cld" in text


def test_replace_single_mode(tiny_config_path, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["replace", str(tiny_config_path), "--mode", "both", "--out", str(out)]) == 0
    text = (out / "replacement.csv").read_text()
    assert ",both," in text
    assert ",none," not in text


def test_config_error_exit_code(tmp_path, capsys):
    # An evaluation setting out of range is refused before training too, and
    # so are the keys of the fixed conventions (Adam's beta1, the scene
    # sampler's gap, the smooth-L1 beta), a repeated seed, a repeated arm
    # name, a negative foreground dilation, scene settings that cannot
    # sample a scene on the grid and a grid without rotations (not left to
    # the dataset build).
    for bad_config in (
        {"optimizer": {"epoch": 3}},
        {"eval": {"nms_iou": 0}},
        {"optimizer": {"beta1": 1.0}},
        {"scene": {"min_gap": -5.0}},
        {"loss": {"smooth_l1_beta": 0.0}},
        {"seeds": [0, 0]},
        {"arms": [{"name": "a", "loss": {}}, {"name": "a", "loss": {"xgd_weight": 0.0}}]},
        {"foreground_dilation": -0.5},
        {"scene": {"n_objects": [5, 2]}},
        {"scene": {"feature_dim": 8}},
        {"scene": {"class_weights": [1, 1]}},
        {"scene": {"max_rejects": 0}},
        {"grid": {"rotations": []}},
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_config))
        assert main(["train", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if "scene" in bad_config:
            assert err.startswith("config error: scene"), err
        assert not (tmp_path / "x").exists()
    with pytest.raises(ValueError, match="foreground_dilation"):
        dataclasses.replace(default_config(), foreground_dilation=math.nan)


def test_default_config_when_omitted(tmp_path, capsys, monkeypatch):
    # verify with --fast exercises the suite end to end (uses defaults)
    from boxdistill import verify as verify_mod

    calls = {}

    def fake_suite(fast=False):
        calls["fast"] = fast
        return [verify_mod.CheckResult("demo", True, "ok", 0.0)]

    monkeypatch.setattr("boxdistill.cli.verify_suite", fake_suite)
    assert main(["verify", "--fast"]) == 0
    assert calls == {"fast": True}
    out = capsys.readouterr().out
    assert "[PASS] demo" in out


def test_verify_failure_exit_code(monkeypatch, capsys):
    from boxdistill import verify as verify_mod

    monkeypatch.setattr(
        "boxdistill.cli.verify_suite",
        lambda fast=False: [verify_mod.CheckResult("broken", False, "bad", 0.0)],
    )
    assert main(["verify"]) == 1
    assert "[FAIL] broken" in capsys.readouterr().out


@pytest.mark.parametrize("passed, status", [(True, 0), (False, 1)])
def test_verify_into_a_closed_pipe_returns_the_checks_status(monkeypatch, tmp_path, passed, status):
    # `boxdistill verify | head` closes the pipe before the output ends.
    import os
    import sys

    from boxdistill import verify as verify_mod

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    monkeypatch.setattr(
        "boxdistill.cli.verify_suite",
        lambda fast=False: [verify_mod.CheckResult("demo", passed, "ok", 0.0)],
    )
    out = tmp_path / "stdout"
    with open(out, "wb") as f:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(f.fileno()))
        assert main(["verify"]) == status
        # The descriptor now writes to devnull, so the exit flush succeeds.
        os.write(f.fileno(), b"flushed at exit")
    assert out.read_bytes() == b""


def test_history_files_keep_their_bytes(tiny_config_path, tmp_path, capsys):
    """history_seed*.json and *_report.json share one EpochStats serializer;
    both must stay byte-identical to the dicts each writer once built by hand."""
    from boxdistill.blas import openblas_corename
    from boxdistill.config import config_hash, config_to_dict, load_config
    from boxdistill.experiments import build_dataset, train_on_dataset

    def hand_built(history):
        return [
            {
                "total": h.total,
                "ori": h.ori,
                "xgd": h.xgd,
                "cld": h.cld,
                "n_pos_mean": h.n_pos_mean,
                "gate_keep": h.gate_keep,
            }
            for h in history
        ]

    config = load_config(tiny_config_path)
    assert main(["train", str(tiny_config_path), "--out", str(tmp_path / "run")]) == 0
    assert main(["ablate", str(tiny_config_path), "--out", str(tmp_path / "abl")]) == 0
    dataset = build_dataset(config, 0)
    trained = {arm.name: train_on_dataset(dataset, arm.loss, config) for arm in config.arms}
    default_run = train_on_dataset(dataset, config.loss, config)

    history_text = json.dumps(hand_built(default_run.history), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "run" / "history_seed0.json").read_text() == history_text
    report = {
        "config": config_to_dict(config),
        "config_hash": config_hash(config),
        "openblas_core": openblas_corename(),
        "runs": [
            {
                "arm": name,
                "seed": 0,
                "gate_keep": trained[name].final_gate_keep(),
                "loss_history": hand_built(trained[name].history),
            }
            for name in sorted(trained)
        ],
    }
    report_text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "abl" / "ablations_report.json").read_text() == report_text
