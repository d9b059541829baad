import dataclasses
import json

import numpy as np
import pytest

from boxdistill.config import (
    ArmConfig,
    ConfigError,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from boxdistill.experiments import (
    CSV_COLUMNS,
    build_dataset,
    load_params,
    run_ablations,
    run_replacement_study,
    save_params,
    train_on_dataset,
)
from boxdistill.sim import DetectorParams, LossConfig
from boxdistill.verify import dense_assignment


def tiny_config(**extra):
    base = {
        "name": "tiny",
        "grid": {
            "x_range": [0.0, 14.0],
            "z_range": [0.0, 14.0],
            "cell": [1.0, 1.0],
            "classes": [
                {"name": "car", "l": 3.2, "w": 1.5, "h": 1.5, "cy": 0.5,
                 "pos_iou": 0.5, "neg_iou": 0.3, "eval_iou": 0.5},
                {"name": "pedestrian", "l": 0.8, "w": 0.6, "h": 1.7, "cy": 0.5,
                 "pos_iou": 0.35, "neg_iou": 0.2, "eval_iou": 0.25},
            ],
        },
        "scene": {"n_objects": [2, 4], "border_margin": 2.0, "class_weights": []},
        "data": {"n_train_scenes": 3, "n_val_scenes": 2},
        "optimizer": {"epochs": 2},
        "seeds": [0, 1],
    }
    base.update(extra)
    return config_from_dict(base)


class TestConfig:
    def test_round_trip(self):
        cfg = default_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_hash_stable_and_sensitive(self):
        cfg = default_config()
        assert config_hash(cfg) == config_hash(config_from_dict(config_to_dict(cfg)))
        other = config_from_dict({"loss": {"xgd_weight": 0.5}})
        assert config_hash(cfg) != config_hash(other)

    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError, match=r"optimizer\.learning_rte"):
            config_from_dict({"optimizer": {"learning_rte": 0.1}})
        with pytest.raises(ConfigError, match=r"loss\.xgd_normalization: unknown key"):
            config_from_dict({"loss": {"xgd_normalization": "sum"}})

    def test_type_error_reports_path(self):
        with pytest.raises(ConfigError, match=r"loss\.tau"):
            config_from_dict({"loss": {"tau": "warm"}})

    def test_nested_list_path(self):
        with pytest.raises(ConfigError, match=r"grid\.classes\[0\]\.l"):
            config_from_dict({"grid": {"classes": [{"name": "x", "l": "wide", "w": 1, "h": 1}]}})

    def test_constraint_violation_wrapped(self):
        with pytest.raises(ConfigError, match="optimizer"):
            config_from_dict({"optimizer": {"batch_size": 0}})
        with pytest.raises(ConfigError, match="optimizer"):
            config_from_dict({"optimizer": {"epochs": -1}})
        with pytest.raises(ConfigError, match=r"scene: ambient_noise"):
            config_from_dict({"scene": {"ambient_noise": -0.02}})
        # An arm with no XGD component used to train without XGD while it
        # still paid for the IoU pass.
        with pytest.raises(ConfigError, match=r"loss: xgd_components"):
            config_from_dict({"loss": {"xgd_components": []}})
        for key, bad in (
            ("score_threshold", 1.5),
            ("nms_iou", 0),
            ("pre_nms_top_k", 0),
            ("recall_positions", 0),
        ):
            with pytest.raises(ConfigError, match=f"eval: {key}"):
                config_from_dict({"eval": {key: bad}})
        # Grid and class values each used to fail mid-run: in the first
        # scene build, assignment, evaluation or scene sampling.
        car, first_class = {"name": "car", "l": 3.9, "w": 1.6, "h": 1.56}, r"grid\.classes\[0\]: "
        for bad, path in (
            ({"grid": {"rotations": []}}, r"grid: rotations"),
            ({"grid": {"classes": []}}, r"grid: classes"),
            ({"grid": {"cell": [0.0, 0.8]}}, r"grid: cell"),
            ({"grid": {"x_range": [0.0, 0.5]}}, r"grid: x_range and z_range"),
            ({"grid": {"z_range": [3.0, 1.0]}}, r"grid: z_range"),
            ({"grid": {"classes": [{**car, "pos_iou": 0.2, "neg_iou": 0.3}]}}, first_class + "neg_iou"),
            ({"grid": {"classes": [{**car, "pos_iou": 0.0, "neg_iou": 0.0}]}}, first_class + "neg_iou"),
            ({"grid": {"classes": [{**car, "eval_iou": 0.0}]}}, first_class + "eval_iou"),
            ({"grid": {"classes": [{**car, "l": -3.9}]}}, first_class + "l, w and h"),
            ({"scene": {"border_margin": 30.0}}, r"scene: border_margin"),
        ):
            with pytest.raises(ConfigError, match=path):
                config_from_dict(bad)
        # A repeated seed used to train twice and count twice in the means.
        with pytest.raises(ConfigError, match="seeds must be distinct"):
            config_from_dict({"seeds": [0, 0, 1]})
        # Repeated arm names used to train both arms under one label.
        with pytest.raises(ConfigError, match="arm names must be distinct"):
            config_from_dict(
                {"arms": [{"name": "a", "loss": {}}, {"name": "a", "loss": {"xgd_weight": 0.0}}]}
            )

    def test_file_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "config.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_default_arm_matrix_names(self):
        cfg = default_config()
        names = [a.name for a in cfg.arms]
        assert names == [
            "baseline",
            "xgd_center",
            "xgd_size",
            "xgd_angle",
            "high_quality_boxes",
            "cld_positive",
            "classical_logits",
            "xgd_cld",
        ]


# A single training run: one arm, "default", with the default loss.
ONE_ARM = [{"name": "default", "loss": {}}]


class TestRunExperiment:
    def test_rows_and_csv_schema(self, tmp_path):
        cfg = tiny_config(arms=ONE_ARM)
        result = run_ablations(cfg, out_dir=tmp_path)
        rows = result.rows()
        # one row per (class, seed)
        assert len(rows) == 2 * 2
        csv_path = tmp_path / "ablations.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)

    def test_csv_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_config(arms=ONE_ARM)
        run_ablations(cfg, out_dir=tmp_path / "a")
        run_ablations(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "ablations.csv").read_bytes()
        b = (tmp_path / "b" / "ablations.csv").read_bytes()
        assert a == b

    def test_epoch_zero_evaluates_initialized_model(self):
        cfg = tiny_config(optimizer={"epochs": 0}, seeds=[0], arms=ONE_ARM)
        result = run_ablations(cfg)
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.train_result is not None and rec.train_result.history == []
        init = DetectorParams.init(0, cfg.scene.feature_dim, 4, 2)
        assert np.array_equal(rec.train_result.params.w_cls, init.w_cls)

    def test_paired_deltas(self):
        cfg = tiny_config(
            arms=[
                {"name": "baseline", "loss": {"xgd_weight": 0.0, "cld_weight": 0.0}},
                {"name": "xgd_cld", "loss": {}},
            ]
        )
        result = run_ablations(cfg)
        deltas = result.paired_deltas("xgd_cld", "baseline")
        assert sorted(deltas) == [0, 1]


class TestRunAblations:
    def test_row_count_is_arms_by_classes_by_seeds(self, tmp_path):
        arms = (
            ArmConfig("baseline", LossConfig(xgd_weight=0.0, cld_weight=0.0)),
            ArmConfig("xgd_cld", LossConfig()),
            ArmConfig("high_quality_boxes", LossConfig(xgd_selection="confidence")),
        )
        cfg = dataclasses.replace(tiny_config(), arms=arms)
        result = run_ablations(cfg, out_dir=tmp_path)
        rows = result.rows()
        assert len(rows) == len(arms) * 2 * len(cfg.seeds)
        # completeness: every (arm, class, seed) appears exactly once
        keys = {(r["arm"], r["class"], r["seed"]) for r in rows}
        assert len(keys) == len(rows)
        trained = {(r.arm, r.seed): r.train_result.params for r in result.records}
        assert set(trained) == {(a.name, s) for a in arms for s in cfg.seeds}
        assert all(isinstance(p, DetectorParams) for p in trained.values())

    def test_gate_rate_columns_empty_for_baseline(self, tmp_path):
        arms = (
            ArmConfig("baseline", LossConfig(xgd_weight=0.0, cld_weight=0.0)),
            ArmConfig("xgd_cld", LossConfig()),
        )
        run_ablations(dataclasses.replace(tiny_config(), arms=arms), out_dir=tmp_path)
        text = (tmp_path / "ablations.csv").read_text().strip().split("\n")
        header = text[0].split(",")
        idx = header.index("gate_keep_rate_center")
        for line in text[1:]:
            cells = line.split(",")
            if cells[1] == "baseline":
                assert cells[idx] == ""
            else:
                assert cells[idx] != ""


class TestReplacementStudy:
    def test_modes_present_and_both_equals_teacher(self, tmp_path):
        cfg = tiny_config()
        result = run_replacement_study(cfg, out_dir=tmp_path)
        arms = {r.arm for r in result.records}
        assert arms == {"none", "regression", "classification", "both"}
        # with the default low-noise teacher, full substitution is at least
        # as good as the student alone on every seed
        by = {(r.arm, r.seed): r.report.mean_ap3d() for r in result.records}
        for seed in cfg.seeds:
            assert by[("both", seed)] >= by[("none", seed)] - 1e-9

    def test_both_runs_no_student_and_params_must_fit_the_grid(self, monkeypatch):
        import boxdistill.experiments as ex

        cfg = tiny_config()
        ds = build_dataset(cfg, 0)
        params = DetectorParams.init(0, cfg.scene.feature_dim, ds.grid.k_a, ds.grid.k_c)
        teacher_only = ex.evaluate_outputs(
            [t.dense() for t in ds.teacher_val], ds.val_scenes, ds.grid,
            iou_thresholds=cfg.eval_iou_thresholds(), seed=ds.seed, config_hash=config_hash(cfg),
        )
        monkeypatch.setattr(ex, "student_forward", lambda *args: pytest.fail("student ran"))
        report = ex.evaluate_params(params, ds, cfg, replace_mode="both")
        assert repr(report.per_class) == repr(teacher_only.per_class)
        wrong = DetectorParams.init(0, cfg.scene.feature_dim, ds.grid.k_a + 1, ds.grid.k_c)
        for mode in ("none", "both"):
            with pytest.raises(ValueError, match="do not fit the grid"):
                ex.evaluate_params(wrong, ds, cfg, replace_mode=mode)


class TestLazyValidationSplit:
    def test_validation_teacher_built_on_first_substitution_only(self, monkeypatch):
        import boxdistill.experiments as ex
        from boxdistill.anchors import assign_targets
        from boxdistill.sim import teacher_predict

        calls = {"assign_targets": 0, "teacher_predict": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(ex, name, counted(name, getattr(ex, name)))

        def added(before):
            return {k: calls[k] - before[k] for k in calls}

        cfg = tiny_config(arms=ONE_ARM, seeds=[0])
        n_train, n_val = cfg.data.n_train_scenes, cfg.data.n_val_scenes
        # Building a dataset only samples its scenes.
        ds = build_dataset(cfg, 0)
        assert calls == {"assign_targets": 0, "teacher_predict": 0}
        params = DetectorParams.init(0, cfg.scene.feature_dim, ds.grid.k_a, ds.grid.k_c)

        before = dict(calls)
        ex.evaluate_params(params, ds, cfg, "none")
        assert added(before) == {"assign_targets": 0, "teacher_predict": 0}
        # The first training run builds the training split, once.
        first = train_on_dataset(ds, cfg.loss, cfg)
        assert added(before) == {"assign_targets": n_train, "teacher_predict": n_train}
        second = train_on_dataset(ds, cfg.loss, cfg)
        assert added(before) == {"assign_targets": n_train, "teacher_predict": n_train}
        assert repr(second.history) == repr(first.history)

        # A one-arm run builds its own training split and nothing else.
        before = dict(calls)
        run_ablations(cfg)
        assert added(before) == {"assign_targets": n_train, "teacher_predict": n_train}

        before = dict(calls)
        both = ex.evaluate_params(params, ds, cfg, "both")
        assert added(before) == {"assign_targets": n_val, "teacher_predict": n_val}
        again = ex.evaluate_params(params, ds, cfg, "both")
        assert added(before) == {"assign_targets": n_val, "teacher_predict": n_val}
        assert repr(again.per_class) == repr(both.per_class)

        # The substitution study builds each seed's validation teacher once
        # over its four modes.
        study = dataclasses.replace(cfg, seeds=(0, 1))
        before = dict(calls)
        run_replacement_study(study)
        per_seed = n_train + n_val
        assert added(before) == {"assign_targets": 2 * per_seed, "teacher_predict": 2 * per_seed}

        # The lazily built rows are those of a direct replay.
        thresholds = cfg.assignment_thresholds()
        assert len(ds.teacher_train) == n_train and len(ds.teacher_val) == n_val
        for scene, teacher in zip(
            ds.train_scenes + ds.val_scenes, ds.teacher_train + ds.teacher_val
        ):
            asg = assign_targets(
                ds.grid, scene.boxes, scene.class_ids, thresholds, cfg.foreground_dilation
            )
            replay = teacher_predict(scene, cfg.teacher_noise, ds.grid, asg)
            for f in dataclasses.fields(replay):
                got, want = getattr(teacher, f.name), getattr(replay, f.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and got.shape == want.shape, f.name
                    assert got.tobytes() == want.tobytes(), f.name
                else:
                    assert got == want, f.name


class TestParamsSerialization:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        ds = build_dataset(cfg, 0)
        tr = train_on_dataset(ds, cfg.loss, cfg)
        path = tmp_path / "params.json"
        save_params(tr.params, path, seed=0, cfg_hash="abc")
        params, meta = load_params(path)
        assert meta == {"seed": 0, "config_hash": "abc"}
        assert np.array_equal(params.w_cls, tr.params.w_cls)
        assert np.array_equal(params.b_reg, tr.params.b_reg)

    def test_summary_json_contains_aggregates(self, tmp_path):
        cfg = tiny_config(arms=ONE_ARM)
        run_ablations(cfg, out_dir=tmp_path)
        payload = json.loads((tmp_path / "ablations_summary.json").read_text())
        assert payload["experiment"] == "tiny"
        assert "aggregate_ap3d" in payload
        assert "default" in payload["aggregate_ap3d"]


class TestDefaultDatasetStorage:
    """The default seed-0 dataset: its bytes pinned, its size bounded."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return build_dataset(default_config(), 0)

    def test_features_and_dense_assignments_are_pinned(self, dataset):
        # Digests recorded while scenes drew their feature noise per call
        # and assignments still stored dense labels and max_iou arrays;
        # those arrays are rebuilt here from the rows.
        import hashlib

        want = {
            "train": (
                "110977da5d1ddee35635798c94b0d0b4454aed8bd4c75b8ba628ede36c51a231",
                "a32ec9aa62c81716f0d56b2267add4fa179820f839508b448051e84ff5db53d7",
                "014e703a1815b9cddf835ccbd5e542de7e8740597c01645e49ca891ca69e9218",
            ),
            "val": (
                "4893acb7d52328b14cddc68bf1f20b2c287b25c42b997f8df6d7adf312f240f3",
                "f546e04579dfc40ed151d651090fa8a2d7c84b716122ccaff9c1bda2c889e2b4",
                "dc8d4216ebad8e25145bdde00446579f1bac49c369467cfe2228db2ff5037b66",
            ),
        }
        for split in ("train", "val"):
            digests = [hashlib.sha256() for _ in range(3)]
            scenes = getattr(dataset, f"{split}_scenes")
            assignments = getattr(dataset, f"{split}_assignments")
            for scene, asg in zip(scenes, assignments):
                dense = dense_assignment(asg, dataset.grid.n_anchors)
                for digest, arr in zip(digests, (scene.features, *dense)):
                    digest.update(arr.tobytes())
            assert tuple(d.hexdigest() for d in digests) == want[split], split

    def test_arrays_total_under_24_mb(self, dataset):
        import dataclasses

        records = (
            dataset.train_scenes + dataset.val_scenes + dataset.train_assignments
            + dataset.val_assignments + dataset.teacher_train + dataset.teacher_val
        )
        total = 0
        for record in records:
            for f in dataclasses.fields(record):
                value = getattr(record, f.name)
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        # 38.9 MB while assignments held dense per-anchor arrays.
        assert total < 24e6, total

    def test_scenes_hold_their_features_as_rows(self, dataset):
        import dataclasses

        def array_bytes(record):
            values = (getattr(record, f.name) for f in dataclasses.fields(record))
            return sum(v.nbytes for v in values if isinstance(v, np.ndarray))

        scenes = dataset.train_scenes + dataset.val_scenes
        # The dense (5400, 16) features took 691 KB per scene.
        assert max(map(array_bytes, scenes)) < 64 * 1024
        records = scenes + (
            dataset.train_assignments + dataset.val_assignments + dataset.teacher_train
            + dataset.teacher_val
        )
        total = sum(map(array_bytes, records))
        assert total < 2e6, total

    def test_evaluation_holds_one_scene_at_a_time(self, dataset):
        import gc
        import tracemalloc

        from boxdistill.experiments import evaluate_params

        cfg = default_config()
        params = DetectorParams.init(0, cfg.scene.feature_dim, dataset.grid.k_a, dataset.grid.k_c)
        gc.collect()
        tracemalloc.start()
        try:
            evaluate_params(params, dataset, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One scene's dense outputs take 2.6 MB; keeping all 16 in a list
        # peaked at 44.7 MB, and two scenes alive at once at 5.3 MB.
        assert peak < 4e6, peak
