import dataclasses
import math

import numpy as np
import pytest

from boxdistill.anchors import assign_targets, build_anchor_grid, decode_deltas
from boxdistill.config import config_from_dict
from boxdistill.geometry import Box3D, bev_iou, iou3d
from boxdistill.sim import (
    DetectorOutputs,
    DetectorParams,
    LossConfig,
    NoiseProfile,
    OptimizerConfig,
    Scene,
    SceneConfig,
    SceneTooDenseError,
    TrainingDivergedError,
    generate_scene,
    replace_outputs,
    save_scenes,
    student_forward,
    teacher_predict,
    total_loss_and_grad,
    train,
)
from boxdistill.verify import dense_assignment, dense_scene


def assign(cfg, grid, scene):
    """The assignment of a scene under the config's thresholds and dilation."""
    return assign_targets(
        grid, scene.boxes, scene.class_ids, cfg.assignment_thresholds(), cfg.foreground_dilation
    )


def small_setup(seed=0, n_objects=(2, 4)):
    cfg = config_from_dict(
        {
            "grid": {"x_range": [0.0, 16.0], "z_range": [0.0, 16.0], "cell": [1.0, 1.0]},
            "scene": {"n_objects": list(n_objects), "border_margin": 2.0, "class_weights": []},
            "seeds": [0],
        }
    )
    grid = build_anchor_grid(cfg.grid)
    scene = generate_scene(seed, cfg.scene, grid)
    assignment = assign(cfg, grid, scene)
    return cfg, grid, scene, assignment


class TestNoiseProfile:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseProfile(center_sigma=-0.1)
        for name in ("center_sigma", "size_sigma", "yaw_sigma", "score_corruption", "depth_bias"):
            with pytest.raises(ValueError, match=name):
                NoiseProfile(**{name: float("nan")})

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            NoiseProfile(score_corruption=1.5)
        # NaN used to pass and gave an uncorrupted teacher.
        with pytest.raises(ValueError):
            NoiseProfile(score_corruption=float("nan"))


class TestLossAndOptimizerConfig:
    def test_rejects_out_of_range_or_nan(self):
        nan = float("nan")
        for bad in ({"xgd_weight": -1.0}, {"xgd_weight": nan}, {"cld_weight": -1.0},
                    {"cld_weight": nan}, {"tau": 0.0}, {"tau": nan},
                    {"confidence_threshold": nan}, {"xgd_components": ()}):
            with pytest.raises(ValueError):
                LossConfig(**bad)
        for bad in ({"learning_rate": -1.0}, {"learning_rate": nan}, {"weight_decay": -1.0},
                    {"weight_decay": nan}, {"epochs": -1}, {"epochs": nan},
                    {"batch_size": 0}, {"batch_size": nan}):
            with pytest.raises(ValueError):
                OptimizerConfig(**bad)


class TestSceneConfig:
    def test_rejects_negative_or_nan_ambient_noise(self):
        # Both used to be treated as no noise: the scene kept no noise state.
        for bad in (-0.02, float("nan")):
            with pytest.raises(ValueError, match="ambient_noise"):
                SceneConfig(ambient_noise=bad)
        assert SceneConfig(ambient_noise=0.0).ambient_noise == 0.0

    def test_rejects_bad_ranges_weights_and_reject_budget(self):
        for bad, match in (
            ({"n_objects": (5, 2)}, "n_objects"),
            ({"n_objects": (-1, 2)}, "n_objects"),
            ({"class_weights": (1.0, -1.0, 1.0)}, "class_weights"),
            ({"class_weights": (0.0, 0.0, 0.0)}, "class_weights"),
            ({"class_weights": (1.0, float("nan"), 1.0)}, "class_weights"),
            ({"class_weights": (1.0, float("inf"), 1.0)}, "class_weights"),
            ({"max_rejects": 0}, "max_rejects"),
        ):
            with pytest.raises(ValueError, match=match):
                SceneConfig(**bad)
        assert SceneConfig(n_objects=(0, 0), class_weights=()).n_objects == (0, 0)


class TestGenerateScene:
    def test_seed_determinism(self):
        cfg, grid, scene, _ = small_setup(seed=7)
        again = generate_scene(7, cfg.scene, grid)
        assert np.array_equal(scene.boxes, again.boxes)
        assert np.array_equal(scene.class_ids, again.class_ids)
        assert np.array_equal(scene.features, again.features)

    def test_zero_objects(self):
        cfg, grid, *_ = small_setup()
        empty_cfg = dataclasses.replace(cfg.scene, n_objects=(0, 0))
        scene = generate_scene(3, empty_cfg, grid)
        assert scene.boxes.shape == (0, 7) and scene.class_ids.shape == (0,)
        assert scene.gts == ()

    def test_footprints_pairwise_disjoint(self):
        cfg, grid, *_ = small_setup()
        for seed in range(100):
            scene = generate_scene(seed, cfg.scene, grid)
            boxes = [b for b, _ in scene.gts]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    assert bev_iou(boxes[i], boxes[j]) == 0.0

    def test_gts_inside_range(self):
        cfg, grid, *_ = small_setup()
        for seed in range(30):
            scene = generate_scene(seed, cfg.scene, grid)
            centers = scene.boxes[:, [0, 2]]
            assert np.all((0 <= centers) & (centers <= 16))

    def test_too_dense_raises(self):
        cfg, grid, *_ = small_setup()
        dense = dataclasses.replace(
            cfg.scene, n_objects=(200, 200), max_rejects=500
        )
        with pytest.raises(SceneTooDenseError):
            generate_scene(0, dense, grid)

    def test_feature_dim_and_noise(self):
        cfg, grid, scene, _ = small_setup()
        assert scene.features.shape == (grid.n_positions, cfg.scene.feature_dim)
        assert np.all(np.isfinite(scene.features))

    def test_class_weights_bias_sampling(self):
        cfg, grid, *_ = small_setup()
        weighted = dataclasses.replace(
            cfg.scene, n_objects=(6, 6), class_weights=(1.0, 0.0, 0.0)
        )
        for seed in range(10):
            scene = generate_scene(seed, weighted, grid)
            assert np.all(scene.class_ids == 0)

    def test_settings_that_do_not_fit_the_grid_rejected(self):
        # SceneConfig cannot see the class count; generate_scene checks it
        # before any draw, also for a scene that places no object.
        cfg, grid, *_ = small_setup()
        for bad, match in (
            ({"class_weights": (1.0, 0.0)}, "class_weights"),
            ({"feature_dim": 9 + grid.k_c}, "feature_dim"),
        ):
            for n_objects in ((2, 2), (0, 0)):
                scene_cfg = dataclasses.replace(cfg.scene, n_objects=n_objects, **bad)
                with pytest.raises(ValueError, match=match):
                    generate_scene(0, scene_cfg, grid)


class TestSceneArrays:
    def test_arrays_reject_writes(self):
        _, _, scene, _ = small_setup()
        assert scene.boxes.dtype == np.float64 and scene.class_ids.dtype == np.int64
        with pytest.raises(ValueError):
            scene.boxes[0, 0] = 1.0
        with pytest.raises(ValueError):
            scene.class_ids[0] = 1

    def test_features_are_read_only_and_equal_on_every_read(self):
        _, _, scene, _ = small_setup()
        first, second = scene.features, scene.features
        assert np.array_equal(first, second)
        for features in (first, second):
            with pytest.raises(ValueError):
                features[0, 0] = 1.0
        dense = dense_scene(scene.boxes, scene.class_ids, first, scene.seed)
        assert dense.features is first and dense.visible.size == dense.n_positions

    def test_features_are_the_visible_rows_plus_ambient_noise(self):
        cfg, grid, scene, _ = small_setup()
        quiet = generate_scene(scene.seed, dataclasses.replace(cfg.scene, ambient_noise=0.0), grid)
        assert quiet.noise_state is None and scene.noise_state is not None
        # The noise is the scene's last draw, so the rows do not depend on it.
        assert np.array_equal(quiet.visible, scene.visible)
        assert np.array_equal(quiet.rows, scene.rows)
        assert np.all(np.diff(scene.visible) > 0)
        dense = np.zeros((grid.n_positions, cfg.scene.feature_dim))
        dense[quiet.visible] = quiet.rows
        assert np.array_equal(quiet.features, dense)
        noise = scene.features - dense
        assert 0 < np.std(noise) < 2 * cfg.scene.ambient_noise

    def test_gts_are_the_rows_as_boxes(self):
        cfg, grid, *_ = small_setup()
        for seed in range(10):
            scene = generate_scene(seed, cfg.scene, grid)
            want = tuple(
                (Box3D.from_array(row), int(c)) for row, c in zip(scene.boxes, scene.class_ids)
            )
            assert scene.gts == want
            assert all(type(c) is int for _, c in scene.gts)
            # the view loses no bits: its boxes give back the stored rows
            back = np.array([box.as_array() for box, _ in scene.gts]).reshape(-1, 7)
            assert np.array_equal(back, scene.boxes)


class TestStudentForward:
    def test_zero_params_give_zero_outputs(self):
        cfg, grid, scene, _ = small_setup()
        f = cfg.scene.feature_dim
        params = DetectorParams(
            np.zeros((f, grid.k_a * grid.k_c)),
            np.zeros(grid.k_a * grid.k_c),
            np.zeros((f, grid.k_a * 7)),
            np.zeros(grid.k_a * 7),
        )
        out = student_forward(params, scene)
        assert np.all(out.logits == 0) and np.all(out.deltas == 0)
        decoded = decode_deltas(out.deltas_flat, grid.anchor_params)
        assert np.allclose(decoded, grid.anchor_params, atol=1e-12)

    def test_identical_features_identical_outputs(self):
        cfg, grid, scene, _ = small_setup()
        feats = scene.features.copy()
        feats[5] = feats[3]
        twin = dense_scene(scene.boxes, scene.class_ids, feats, scene.seed)
        params = DetectorParams.init(1, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        out = student_forward(params, twin)
        assert np.array_equal(out.logits[5], out.logits[3])
        assert np.array_equal(out.deltas[5], out.deltas[3])

    def test_dimension_mismatch_rejected(self):
        cfg, grid, scene, _ = small_setup()
        params = DetectorParams.init(1, cfg.scene.feature_dim + 1, grid.k_a, grid.k_c)
        with pytest.raises(ValueError):
            student_forward(params, scene)

    def test_linear_weight_gradient_matches_fd(self):
        cfg, grid, scene, _ = small_setup()
        params = DetectorParams.init(2, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        # single-output derivative: d logits[p, a, c] / d w_cls[i, a*k_c+c]
        # equals features[p, i]; check a handful of entries by FD
        h = 1e-6
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = int(rng.integers(0, grid.n_positions))
            i = int(rng.integers(0, cfg.scene.feature_dim))
            col = int(rng.integers(0, grid.k_a * grid.k_c))
            a, c = divmod(col, grid.k_c)
            w = params.w_cls.copy()
            w[i, col] += h
            up = student_forward(dataclasses.replace(params, w_cls=w), scene)
            w = params.w_cls.copy()
            w[i, col] -= h
            dn = student_forward(dataclasses.replace(params, w_cls=w), scene)
            fd = (up.logits[p, a, c] - dn.logits[p, a, c]) / (2 * h)
            expected = scene.features[p, i]
            if abs(expected) > 1e-6:
                assert fd == pytest.approx(expected, rel=1e-6)
            else:
                assert fd == pytest.approx(expected, abs=1e-8)


def seed_teacher_predict(scene, profile, grid, assignment):
    """teacher_predict as it stood with one Box3D per object, which wraps
    the yaw and checks the box, and one encode per positive."""
    import boxdistill.sim as sim_mod
    from boxdistill.anchors import encode_deltas

    rng = np.random.default_rng(np.random.SeedSequence((scene.seed, sim_mod._STREAM_TEACHER)))
    logits = np.full((grid.n_positions, grid.k_a, grid.k_c), sim_mod.BACKGROUND_LOGIT)
    deltas = np.zeros((grid.n_positions, grid.k_a, 7))
    rate = profile.score_corruption
    per_gt = []
    for box, class_id in scene.gts:
        cx = box.cx + rng.normal(0.0, profile.center_sigma)
        cy = box.cy + rng.normal(0.0, profile.center_sigma)
        cz = box.cz + rng.normal(0.0, profile.center_sigma + profile.depth_bias * box.cz)
        l, w, h = (box.l, box.w, box.h) * np.exp(rng.normal(0.0, profile.size_sigma, size=3))
        yaw = box.yaw + rng.normal(0.0, profile.yaw_sigma)
        noisy = Box3D(cx, cy, cz, float(l), float(w), float(h), yaw)
        reported = class_id
        if rate > 0:
            if rng.uniform() < rate:
                reported = int(rng.integers(0, grid.k_c))
            cx, cy, cz, l, w, h, yaw = noisy.cx, noisy.cy, noisy.cz, noisy.l, noisy.w, noisy.h, noisy.yaw
            diag = math.hypot(l, w)
            if rng.uniform() < rate:
                cx, cy, cz = (
                    cx + rng.normal(0.0, 0.5 * diag),
                    cy + rng.normal(0.0, 0.25 * h),
                    cz + rng.normal(0.0, 0.5 * diag),
                )
            if rng.uniform() < rate:
                l, w, h = (l, w, h) * np.exp(rng.normal(0.0, 0.35, size=3))
            if rng.uniform() < rate:
                yaw = yaw + rng.uniform(-math.pi / 4, math.pi / 4)
            noisy = Box3D(cx, cy, cz, float(l), float(w), float(h), yaw)
        per_gt.append((noisy, reported, sim_mod.PEAK_LOGIT + rng.normal(0.0, 0.3)))
    for idx, g in zip(assignment.positive_indices, assignment.matched):
        noisy, reported, peak = per_gt[g]
        deltas.reshape(-1, 7)[idx] = encode_deltas(
            noisy.as_array()[None, :], grid.anchor_params[idx][None, :]
        )[0]
        logits.reshape(-1, grid.k_c)[idx, reported] = peak
    return logits, deltas


def dense_setup(seed):
    """A default-grid scene of 16-24 objects, as the dense evaluation draws."""
    from boxdistill.config import default_config

    cfg = default_config()
    grid = build_anchor_grid(cfg.grid)
    scene = generate_scene(seed, dataclasses.replace(cfg.scene, n_objects=(16, 24)), grid)
    assignment = assign(cfg, grid, scene)
    return cfg, grid, scene, assignment


class TestTeacherOracle:
    def test_matches_per_positive_loop(self):
        profiles = (
            NoiseProfile(),
            NoiseProfile(0.01, 0.005, 0.005, score_corruption=0.1, depth_bias=0.0002),
            NoiseProfile(0.2, 0.1, 0.1, score_corruption=0.6, depth_bias=0.005),
            # Wide yaw noise and frequent corruption: the yaw wraps often.
            NoiseProfile(yaw_sigma=5.0, score_corruption=0.9),
        )
        setups = [small_setup(seed=seed) for seed in range(8)] + [dense_setup(seed) for seed in range(4)]
        n_pos = 0
        for cfg, grid, scene, assignment in setups:
            n_pos += assignment.positive_indices.size
            for profile in profiles:
                out = teacher_predict(scene, profile, grid, assignment).dense()
                logits, deltas = seed_teacher_predict(scene, profile, grid, assignment)
                assert np.array_equal(out.logits, logits)
                assert np.array_equal(out.deltas, deltas)
        assert n_pos > 0
        assert all(16 <= s.boxes.shape[0] <= 24 for *_, s, _ in setups[8:])

    def test_extreme_size_noise_rejected(self):
        # exp(N(0, 1e4)) overflows or underflows: no box keeps finite,
        # positive extents.
        cfg, grid, scene, assignment = small_setup()
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for rate in (0.0, 0.5):
                with pytest.raises(ValueError):
                    teacher_predict(scene, NoiseProfile(size_sigma=1e4, score_corruption=rate), grid, assignment)

    def test_zero_noise_recovers_gt_and_gates_open(self):
        cfg, grid, scene, assignment = small_setup()
        out = teacher_predict(scene, NoiseProfile(), grid, assignment)
        pos = assignment.positive_indices
        decoded = decode_deltas(out.dense().deltas_flat[pos], grid.anchor_params[pos])
        gts = scene.boxes[assignment.matched]
        assert np.allclose(decoded[:, :6], gts[:, :6], atol=1e-9)
        from boxdistill.xgd import gate_decisions

        assert gate_decisions(decoded, grid.anchor_params[pos], gts).all()

    def test_determinism(self):
        cfg, grid, scene, assignment = small_setup()
        profile = NoiseProfile(center_sigma=0.1, score_corruption=0.3)
        a = teacher_predict(scene, profile, grid, assignment)
        b = teacher_predict(scene, profile, grid, assignment)
        assert np.array_equal(a.anchors, b.anchors)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.deltas, b.deltas)

    def test_full_corruption_decouples_argmax_from_class(self):
        # chi-squared independence test over many scenes
        cfg, grid, *_ = small_setup()
        profile = NoiseProfile(score_corruption=1.0)
        k = grid.k_c
        table = np.zeros((k, k))
        for seed in range(150):
            scene = generate_scene(seed, cfg.scene, grid)
            asg = assign(cfg, grid, scene)
            out = teacher_predict(scene, profile, grid, asg).dense()
            for idx, g in zip(asg.positive_indices, asg.matched):
                true_c = scene.class_ids[g]
                pred_c = int(out.logits_flat[idx].argmax())
                table[true_c, pred_c] += 1
        n = table.sum()
        row = table.sum(axis=1, keepdims=True)
        col = table.sum(axis=0, keepdims=True)
        expected = row @ col / n
        chi2 = float(((table - expected) ** 2 / np.maximum(expected, 1e-9)).sum())
        # df = (k-1)^2 = 4; 95th percentile of chi2_4 = 9.488
        assert chi2 < 9.488

    def test_noise_shows_partial_gate_keep(self):
        cfg, grid, *_ = small_setup()
        from boxdistill.xgd import gate_decisions

        profile = NoiseProfile(center_sigma=0.2)
        kept, total = 0, 0
        for seed in range(100):
            scene = generate_scene(seed, cfg.scene, grid)
            asg = assign(cfg, grid, scene)
            if asg.positive_indices.size == 0:
                continue
            out = teacher_predict(scene, profile, grid, asg).dense()
            pos = asg.positive_indices
            teachers = decode_deltas(out.deltas_flat[pos], grid.anchor_params[pos])
            gts = scene.boxes[asg.matched]
            # a mid-training student: halfway between anchor and gt
            students = 0.5 * (grid.anchor_params[pos] + gts)
            center_kept = gate_decisions(teachers, students, gts)[:, 0]
            kept += int(center_kept.sum())
            total += center_kept.size
        rate = kept / total
        assert 0.0 < rate < 1.0


class TestTeacherResponse:
    @pytest.fixture(scope="class")
    def default_dataset(self):
        from boxdistill.config import default_config
        from boxdistill.experiments import build_dataset

        return build_dataset(default_config(), 0)

    def test_dense_outputs_are_pinned(self, default_dataset):
        # Digests of the dense teacher outputs of the default config's
        # seed-0 scenes, recorded when teacher_predict still returned them.
        import hashlib

        ds = default_dataset
        want = {
            "train": "90672f888bccc78c33b8f78267732c358af332c53ec18e4462e5ee6d22c7fbb5",
            "val": "d3c4c78fc8015e56619e89015099c8fb1af572085009cc6c672a1c22cad6bd86",
        }
        for split, teachers in (("train", ds.teacher_train), ("val", ds.teacher_val)):
            assert len(teachers) == 16
            digest = hashlib.sha256()
            for teacher in teachers:
                dense = teacher.dense()
                digest.update(dense.logits.tobytes())
                digest.update(dense.deltas.tobytes())
            assert digest.hexdigest() == want[split], split

    def test_logit_map_equals_the_dense_slice(self):
        from boxdistill.sim import cld_positions
        from boxdistill.verify import extract_logit_map

        outside = 0
        for seed in range(6):
            cfg, grid, scene, assignment = small_setup(seed=seed)
            teacher = teacher_predict(scene, cfg.teacher_noise, grid, assignment)
            dense = teacher.dense()
            for region in ("foreground", "positive"):
                positions = cld_positions(assignment, grid, region)
                # Drop a position holding a positive: its rows must be skipped.
                fewer = np.setdiff1d(positions, teacher.anchors[:1] // grid.k_a)
                outside += positions.size - fewer.size
                for chosen in (positions, fewer):
                    for k_a in (grid.k_a, 1):
                        got = teacher.logit_map(chosen, k_a)
                        want = extract_logit_map(dense, chosen, k_a)
                        assert got.k_a == want.k_a
                        assert got.values.tobytes() == want.values.tobytes(), (seed, region, k_a)
        assert outside > 0

    def test_arrays_reject_writes(self):
        cfg, grid, scene, assignment = small_setup()
        teacher = teacher_predict(scene, cfg.teacher_noise, grid, assignment)
        assert teacher.anchors.size > 0
        for arr in (teacher.anchors, teacher.logits, teacher.deltas):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_default_scene_holds_rows_only(self, default_dataset):
        ds = default_dataset
        teacher = ds.teacher_train[0]
        assert np.array_equal(teacher.anchors, ds.train_assignments[0].positive_indices)
        assert teacher.logits.shape == (teacher.anchors.size, ds.grid.k_c)
        assert teacher.deltas.shape == (teacher.anchors.size, 7)
        assert teacher.anchors.nbytes + teacher.logits.nbytes + teacher.deltas.nbytes < 16 * 1024


def hard_label_loss(out, scene, assignment, grid):
    """The hard-label objective: ``ori`` of the one-scene loss with both
    distillation weights at 0."""
    teacher = teacher_predict(scene, NoiseProfile(), grid, assignment)
    cfg = LossConfig(xgd_weight=0.0, cld_weight=0.0)
    return total_loss_and_grad(out, teacher, scene, assignment, grid, cfg)[0].ori


class TestBaseLoss:
    def test_near_perfect_outputs_near_zero(self):
        cfg, grid, scene, assignment = small_setup()
        from boxdistill.anchors import positive_target_deltas

        pos, targets = positive_target_deltas(grid, assignment, scene.boxes)
        logits = np.full((grid.n_positions, grid.k_a, grid.k_c), -12.0)
        deltas = np.zeros((grid.n_positions, grid.k_a, 7))
        flat_logits = logits.reshape(-1, grid.k_c)
        flat_deltas = deltas.reshape(-1, 7)
        for row, i in enumerate(pos):
            flat_logits[i, scene.class_ids[assignment.matched[row]]] = 12.0
            flat_deltas[i] = targets[row]
        out = DetectorOutputs(logits=logits, deltas=deltas)
        value = hard_label_loss(out, scene, assignment, grid)
        assert value < 1e-3

    def test_no_positives_zero_regression(self):
        cfg, grid, scene, _ = small_setup()
        bare = dense_scene(
            boxes=np.zeros((0, 7)), class_ids=np.zeros(0, dtype=np.int64),
            features=scene.features, seed=0,
        )
        empty = assign(cfg, grid, bare)
        params = DetectorParams.init(3, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        out = student_forward(params, bare)
        cls_only = hard_label_loss(out, bare, empty, grid)
        zero_reg = dataclasses.replace(out)
        assert cls_only == hard_label_loss(zero_reg, bare, empty, grid)  # no reg contribution

    @pytest.mark.parametrize("focal_gamma", [2.0, 1.5, 0.0])
    def test_matches_independent_reference(self, focal_gamma, monkeypatch):
        import boxdistill.sim as sim_mod

        # The focal loss has one code path for every gamma; gammas other
        # than the fixed 2.0 are reached by patching the constant it reads.
        monkeypatch.setattr(sim_mod, "FOCAL_GAMMA", focal_gamma)
        cfg, grid, scene, assignment = small_setup()
        params = DetectorParams.init(4, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        out = student_forward(params, scene)
        got = hard_label_loss(out, scene, assignment, grid)

        # plain-loop reference
        from boxdistill.anchors import positive_target_deltas

        gamma, alpha, beta = focal_gamma, sim_mod.FOCAL_ALPHA, sim_mod.SMOOTH_L1_BETA
        logits = out.logits_flat
        n_pos = assignment.positive_indices.size
        labels, _ = dense_assignment(assignment, grid.n_anchors)
        cls = 0.0
        for i in range(grid.n_anchors):
            label = labels[i]
            if label == -2:
                continue
            for c in range(grid.k_c):
                z = logits[i, c]
                p = 1.0 / (1.0 + math.exp(-z))
                y = 1.0 if (label >= 0 and scene.class_ids[label] == c) else 0.0
                if y:
                    cls += -alpha * (1 - p) ** gamma * math.log(p)
                else:
                    cls += -(1 - alpha) * p**gamma * math.log(1 - p)
        cls /= max(1, n_pos)
        pos, targets = positive_target_deltas(grid, assignment, scene.boxes)
        reg = 0.0
        for row, i in enumerate(pos):
            for j in range(7):
                d = out.deltas_flat[i, j] - targets[row, j]
                reg += 0.5 * d * d / beta if abs(d) < beta else abs(d) - 0.5 * beta
        reg /= max(1, n_pos)
        assert got == pytest.approx(cls + reg, abs=1e-10)


class TestTotalLoss:
    def test_zero_weights_equal_base_loss_exactly(self):
        # At zero weights the total is the hard-label objective alone.
        cfg, grid, scene, assignment = small_setup()
        params = DetectorParams.init(5, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        out = student_forward(params, scene)
        teacher = teacher_predict(scene, NoiseProfile(), grid, assignment)
        lc = LossConfig(xgd_weight=0.0, cld_weight=0.0)
        breakdown = total_loss_and_grad(out, teacher, scene, assignment, grid, lc)[0]
        assert breakdown.total == breakdown.ori
        assert breakdown.xgd == 0.0 and breakdown.cld == 0.0

    def test_student_equal_teacher_zero_distill_terms(self):
        cfg, grid, scene, assignment = small_setup()
        teacher = teacher_predict(scene, NoiseProfile(), grid, assignment)
        breakdown = total_loss_and_grad(
            teacher.dense(), teacher, scene, assignment, grid, LossConfig()
        )[0]
        assert breakdown.xgd == pytest.approx(0.0, abs=1e-12)
        assert breakdown.cld == pytest.approx(0.0, abs=1e-12)

    def test_breakdown_recomposes(self):
        cfg, grid, scene, assignment = small_setup()
        rng = np.random.default_rng(6)
        params = DetectorParams.init(6, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        params = dataclasses.replace(
            params, w_reg=params.w_reg + rng.normal(0, 0.05, params.w_reg.shape)
        )
        out = student_forward(params, scene)
        teacher = teacher_predict(
            scene, NoiseProfile(center_sigma=0.1, score_corruption=0.2), grid, assignment
        )
        lc = LossConfig(xgd_weight=0.7, cld_weight=1.3)
        bd = total_loss_and_grad(out, teacher, scene, assignment, grid, lc)[0]
        assert bd.total == pytest.approx(bd.ori + 0.7 * bd.xgd + 1.3 * bd.cld, abs=1e-12)

    def test_confidence_selection_with_impossible_threshold_reduces_to_base(self):
        cfg, grid, scene, assignment = small_setup()
        params = DetectorParams.init(7, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        out = student_forward(params, scene)
        teacher = teacher_predict(scene, NoiseProfile(), grid, assignment)
        lc = LossConfig(xgd_selection="confidence", confidence_threshold=1.01, cld_weight=0.0)
        bd = total_loss_and_grad(out, teacher, scene, assignment, grid, lc)[0]
        assert bd.xgd == 0.0
        assert bd.total == pytest.approx(bd.ori, abs=1e-15)

    def test_zero_noise_teacher_makes_xgd_a_gt_iou_loss(self):
        # gate dominance: with teacher == GT every component is kept, so
        # the distillation term equals the IoU loss against ground truth
        cfg, grid, scene, assignment = small_setup()
        from boxdistill.anchors import decode_deltas
        from boxdistill.xgd import xgd_loss

        rng = np.random.default_rng(11)
        params = DetectorParams.init(9, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        params = dataclasses.replace(
            params, w_reg=params.w_reg + rng.normal(0, 0.03, params.w_reg.shape)
        )
        out = student_forward(params, scene)
        teacher = teacher_predict(scene, NoiseProfile(), grid, assignment)
        bd = total_loss_and_grad(out, teacher, scene, assignment, grid, LossConfig())[0]
        pos = assignment.positive_indices
        student_boxes = decode_deltas(out.deltas_flat[pos], grid.anchor_params[pos])
        gt_boxes = scene.boxes[assignment.matched]
        assert bd.xgd == pytest.approx(xgd_loss(student_boxes, gt_boxes), abs=1e-9)
        assert bd.gate_keep == {"center": 1.0, "size": 1.0, "angle": 1.0}

    def test_cld_region_positive_uses_fewer_positions(self):
        cfg, grid, scene, assignment = small_setup()
        from boxdistill.sim import cld_positions

        fg = cld_positions(assignment, grid, "foreground")
        pos = cld_positions(assignment, grid, "positive")
        assert set(pos.tolist()) <= set(fg.tolist())
        assert len(pos) >= 1


class TestReplaceOutputs:
    def _pair(self):
        cfg, grid, scene, assignment = small_setup()
        params = DetectorParams.init(8, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        student = student_forward(params, scene)
        teacher = teacher_predict(scene, NoiseProfile(), grid, assignment)
        return student, teacher

    def test_none_is_identity(self):
        student, teacher = self._pair()
        out = replace_outputs(student, teacher, "none")
        assert out.logits is student.logits and out.deltas is student.deltas

    def test_both_is_teacher(self):
        student, teacher = self._pair()
        out = replace_outputs(student, teacher, "both")
        dense = teacher.dense()
        assert np.array_equal(out.logits, dense.logits) and np.array_equal(out.deltas, dense.deltas)

    def test_single_head_modes(self):
        student, teacher = self._pair()
        dense = teacher.dense()
        reg = replace_outputs(student, teacher, "regression")
        assert reg.logits is student.logits and np.array_equal(reg.deltas, dense.deltas)
        cls = replace_outputs(student, teacher, "classification")
        assert np.array_equal(cls.logits, dense.logits) and cls.deltas is student.deltas

    def test_unknown_mode_rejected(self):
        student, teacher = self._pair()
        with pytest.raises(ValueError):
            replace_outputs(student, teacher, "everything")

    def test_shape_mismatch_rejected(self):
        student, teacher = self._pair()
        small = DetectorOutputs(
            logits=student.logits[:4].copy(), deltas=student.deltas[:4].copy()
        )
        with pytest.raises(ValueError):
            replace_outputs(small, teacher, "both")


class TestTrain:
    def _datasets(self, n=3):
        cfg, grid, _, _ = small_setup()
        scenes, asgs, teachers = [], [], []
        for seed in range(n):
            sc = generate_scene(100 + seed, cfg.scene, grid)
            a = assign(cfg, grid, sc)
            scenes.append(sc)
            asgs.append(a)
            teachers.append(teacher_predict(sc, cfg.teacher_noise, grid, a))
        return cfg, grid, scenes, teachers, asgs

    def test_zero_learning_rate_keeps_params(self):
        cfg, grid, scenes, teachers, asgs = self._datasets()
        opt = OptimizerConfig(learning_rate=0.0, epochs=1)
        result = train(grid, scenes, teachers, asgs, LossConfig(), opt, seed=0)
        init = DetectorParams.init(0, cfg.scene.feature_dim, grid.k_a, grid.k_c)
        assert np.array_equal(result.params.w_cls, init.w_cls)
        assert np.array_equal(result.params.w_reg, init.w_reg)

    def test_divergence_raises_documented_error(self):
        # The first step lands the weights near 1e308; the next forward
        # pass overflows, which decode would report as a bare ValueError.
        from boxdistill.experiments import build_dataset, train_on_dataset
        from boxdistill.verify import _small_training_config

        cfg = _small_training_config()
        cfg = dataclasses.replace(
            cfg, optimizer=dataclasses.replace(cfg.optimizer, learning_rate=1e308, epochs=3)
        )
        dataset = build_dataset(cfg, 0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
            train_on_dataset(dataset, LossConfig(), cfg)
        snap = info.value.snapshot
        assert "positive-anchor deltas" in str(info.value)
        assert snap["epoch"] == 1
        assert snap["scene_seed"] in {sc.seed for sc in dataset.train_scenes}
        assert math.isfinite(snap["last_finite_breakdown"].total)
        assert set(snap["grad_norms"]) == {"w_cls", "b_cls", "w_reg", "b_reg"}
        assert all(math.isfinite(v) for v in snap["grad_norms"].values())

    def test_non_finite_weights_raise_after_the_step(self):
        cfg, grid, scenes, teachers, asgs = self._datasets()
        opt = OptimizerConfig(learning_rate=math.inf, epochs=2)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
            train(grid, scenes, teachers, asgs, LossConfig(), opt, seed=0)
        assert "weights after the Adam step" in str(info.value)
        assert info.value.snapshot["epoch"] == 0
        assert info.value.snapshot["last_finite_breakdown"] is not None

    def test_seed_reproducibility(self):
        cfg, grid, scenes, teachers, asgs = self._datasets()
        opt = OptimizerConfig(epochs=3)
        r1 = train(grid, scenes, teachers, asgs, LossConfig(), opt, seed=5)
        r2 = train(grid, scenes, teachers, asgs, LossConfig(), opt, seed=5)
        assert [h.total for h in r1.history] == [h.total for h in r2.history]
        assert np.array_equal(r1.params.w_cls, r2.params.w_cls)

    def test_loss_decreases_over_seeds(self):
        cfg, grid, scenes, teachers, asgs = self._datasets()
        opt = OptimizerConfig(epochs=15)
        for seed in range(5):
            result = train(
                grid, scenes, teachers, asgs, LossConfig(xgd_weight=0, cld_weight=0), opt, seed=seed
            )
            assert result.history[-1].ori < result.history[0].ori

    def test_features_are_rebuilt_once_per_call(self, monkeypatch):
        cfg, grid, scenes, teachers, asgs = self._datasets()
        reads = {id(sc): 0 for sc in scenes}
        rebuild = Scene.features.fget

        def counted(scene):
            if id(scene) in reads:
                reads[id(scene)] += 1
            return rebuild(scene)

        monkeypatch.setattr(Scene, "features", property(counted))
        train(grid, scenes, teachers, asgs, LossConfig(), OptimizerConfig(epochs=3, batch_size=2), seed=0)
        assert list(reads.values()) == [1, 1, 1]

    def test_zero_epochs_return_the_initialized_model(self, monkeypatch):
        # The inputs are checked, and nothing else is built: no targets, no
        # workers, no BLAS setting.
        import boxdistill.sim as sim_mod

        cfg, grid, scenes, teachers, asgs = self._datasets()
        opt = OptimizerConfig(epochs=0)
        with pytest.raises(ValueError, match="must align"):
            train(grid, scenes, teachers[:1], asgs, LossConfig(), opt, seed=3)
        for name in ("_scene_targets", "_SceneWorkers", "openblas_threads_set"):
            monkeypatch.setattr(sim_mod, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        result = train(grid, scenes, teachers, asgs, LossConfig(), opt, seed=3)
        init = DetectorParams.init(3, scenes[0].feature_dim, grid.k_a, grid.k_c)
        for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
            assert getattr(result.params, name).tobytes() == getattr(init, name).tobytes(), name
        assert result.history == []

    def test_history_contains_gate_stats(self):
        cfg, grid, scenes, teachers, asgs = self._datasets()
        opt = OptimizerConfig(epochs=2)
        result = train(grid, scenes, teachers, asgs, LossConfig(), opt, seed=2)
        assert result.history[-1].gate_keep  # non-empty when XGD active
        assert set(result.history[-1].gate_keep) == {"center", "size", "angle"}

    def test_input_validation(self):
        cfg, grid, scenes, teachers, asgs = self._datasets()
        with pytest.raises(ValueError):
            train(grid, scenes[:2], teachers, asgs, LossConfig(), OptimizerConfig(), seed=0)
        with pytest.raises(ValueError):
            train(grid, [], [], [], LossConfig(), OptimizerConfig(), seed=0)
        # Each response must hold its own scene's positive anchors.
        assert not np.array_equal(teachers[0].anchors, teachers[1].anchors)
        with pytest.raises(ValueError, match="positive anchors"):
            train(grid, scenes, teachers[1::-1] + teachers[2:], asgs, LossConfig(), OptimizerConfig(), seed=0)


class TestSceneSerialization:
    def test_one_record_per_line(self, tmp_path):
        import json

        cfg, grid, *_ = small_setup()
        scenes = [generate_scene(s, cfg.scene, grid) for s in range(4)]
        path = tmp_path / "scenes.jsonl"
        save_scenes(path, scenes)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4
        for line, scene in zip(lines, scenes):
            rec = json.loads(line)
            assert set(rec) == {"seed", "gts", "class_ids"}
            assert rec["seed"] == scene.seed
            assert np.array_equal(np.array(rec["gts"], dtype=float).reshape(-1, 7), scene.boxes)
            assert rec["class_ids"] == scene.class_ids.tolist()

    def test_default_dataset_files_are_pinned(self, tmp_path):
        # The on-disk scene format must not drift: these are the digests of
        # the default config's seed-0 scene files, recorded when the scene
        # still held (Box3D, class id) pairs.
        import hashlib

        from boxdistill.config import default_config
        from boxdistill.experiments import build_dataset

        dataset = build_dataset(default_config(), 0)
        want = {
            "train": "d2d61ea9dfceda6603e0821d41fd2ade22f32753beae428cb251a7805c7c3b51",
            "val": "ec4036f3d173d87649caf1a8993e4ec0d5093e377343bba43866e5af9362859c",
        }
        for split, scenes in (("train", dataset.train_scenes), ("val", dataset.val_scenes)):
            path = tmp_path / f"{split}.jsonl"
            save_scenes(path, scenes)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want[split], split


class TestNoiseMonotonicity:
    def test_gate_keep_rate_rises_as_teacher_noise_vanishes(self):
        # whole-profile sweep toward zero: the kept fraction approaches 1
        # and is exactly 1 at zero noise
        from boxdistill.xgd import gate_decisions

        cfg, grid, *_ = small_setup()
        scales = [1.0, 0.5, 0.25, 0.1, 0.0]
        rates = []
        for scale in scales:
            profile = NoiseProfile(
                center_sigma=0.3 * scale,
                size_sigma=0.15 * scale,
                yaw_sigma=0.2 * scale,
                score_corruption=0.3 * scale,
                depth_bias=0.005 * scale,
            )
            kept = total = 0
            for seed in range(5):
                scene = generate_scene(seed, cfg.scene, grid)
                asg = assign(cfg, grid, scene)
                if asg.positive_indices.size == 0:
                    continue
                out = teacher_predict(scene, profile, grid, asg).dense()
                pos = asg.positive_indices
                teachers = decode_deltas(out.deltas_flat[pos], grid.anchor_params[pos])
                gts = scene.boxes[asg.matched]
                students = 0.5 * (grid.anchor_params[pos] + gts)
                decisions = gate_decisions(teachers, students, gts)
                kept += int(decisions.sum())
                total += decisions.size
            rates.append(kept / total)
        assert rates[-1] == 1.0  # zero noise keeps everything
        # Spearman rank correlation between noise scale and keep rate < 0
        order_rate = np.argsort(np.argsort(rates))
        order_scale = np.argsort(np.argsort(scales))
        rho = np.corrcoef(order_rate, order_scale)[0, 1]
        assert rho < 0

    def test_teacher_fidelity_non_increasing_in_center_noise(self):
        cfg, grid, *_ = small_setup()
        sigmas = [0.0, 0.1, 0.25, 0.5, 1.0]
        mean_ious = []
        for sigma in sigmas:
            profile = NoiseProfile(center_sigma=sigma)
            vals = []
            for seed in range(5):
                scene = generate_scene(seed, cfg.scene, grid)
                asg = assign(cfg, grid, scene)
                out = teacher_predict(scene, profile, grid, asg).dense()
                pos = asg.positive_indices
                decoded = decode_deltas(out.deltas_flat[pos], grid.anchor_params[pos])
                for g, row in zip(asg.matched, decoded):
                    gt = Box3D.from_array(scene.boxes[g])
                    vals.append(iou3d(Box3D.from_array(row), gt))
            mean_ious.append(np.mean(vals))
        # Spearman rank correlation between sigma and fidelity is negative
        order = np.argsort(np.argsort(mean_ious))
        sig_order = np.argsort(np.argsort(sigmas))
        rho = np.corrcoef(order, sig_order)[0, 1]
        assert rho < 0


class TestStepWorkspace:
    @staticmethod
    def _seed0_dataset():
        from boxdistill.config import DataConfig, default_config
        from boxdistill.experiments import build_dataset

        cfg = dataclasses.replace(default_config(), data=DataConfig(n_train_scenes=3, n_val_scenes=1))
        ds = build_dataset(cfg, 0)
        rng = np.random.default_rng(0)
        init = DetectorParams.init(0, cfg.scene.feature_dim, ds.grid.k_a, ds.grid.k_c)
        params = [
            DetectorParams(
                init.w_cls + rng.normal(0, 0.05, init.w_cls.shape),
                init.b_cls + rng.normal(0, 0.3, init.b_cls.shape),
                init.w_reg + rng.normal(0, 0.02, init.w_reg.shape),
                init.b_reg + rng.normal(0, 0.02, init.b_reg.shape),
            )
            for _ in range(2)
        ]
        return ds, params

    def test_public_results_survive_later_calls(self):
        from boxdistill.sim import total_loss_and_grad

        ds, (p1, p2) = self._seed0_dataset()
        args = [(s, t, a) for s, t, a in zip(ds.train_scenes, ds.teacher_train, ds.train_assignments)]
        scene, teacher, asg = args[0]
        out = student_forward(p1, scene)
        logits, deltas = out.logits.copy(), out.deltas.copy()
        breakdown, dlogits, ddeltas = total_loss_and_grad(out, teacher, scene, asg, ds.grid)
        kept = (dlogits.copy(), ddeltas.copy())
        for s, t, a in args[1:]:
            later = student_forward(p2, s)
            total_loss_and_grad(later, t, s, a, ds.grid)
        assert np.array_equal(out.logits, logits)
        assert np.array_equal(out.deltas, deltas)
        assert np.array_equal(dlogits, kept[0])
        assert np.array_equal(ddeltas, kept[1])
        assert total_loss_and_grad(out, teacher, scene, asg, ds.grid)[0] == breakdown

    def test_public_results_share_no_memory(self):
        from itertools import combinations

        from boxdistill.sim import total_loss_and_grad

        ds, (p1, _) = self._seed0_dataset()
        scene, teacher, asg = ds.train_scenes[0], ds.teacher_train[0], ds.train_assignments[0]
        out = student_forward(p1, scene)
        _, dlogits, ddeltas = total_loss_and_grad(out, teacher, scene, asg, ds.grid)
        for a, b in combinations((out.logits, out.deltas, dlogits, ddeltas), 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("arm_name", ["baseline", "xgd_cld"])
    def test_one_worker_step_peaks_under_4_mb(self, arm_name):
        # A worker holds one arena, 3.11 MB at the default grid, which the
        # delta gradient shares; the rest of a step is small next to it.
        import gc
        import tracemalloc
        from contextlib import closing

        from boxdistill.config import default_arm_matrix
        from boxdistill.sim import _minibatch_grads, _scene_targets, _SceneWorkers, _step_arena_floats

        ds, (params, _) = self._seed0_dataset()
        cfg = next(arm.loss for arm in default_arm_matrix() if arm.name == arm_name)
        targets = [
            _scene_targets(s, a, ds.grid, cfg, t)
            for s, t, a in zip(ds.train_scenes, ds.teacher_train, ds.train_assignments)
        ]
        # Prebuilt, as in train: the step reads each scene's features.
        features = [s.features for s in ds.train_scenes]
        gc.collect()
        tracemalloc.start()
        try:
            with closing(_SceneWorkers(1, _step_arena_floats(ds.grid))) as workers:
                for batch in ([0, 1], [2, 0]):
                    _minibatch_grads(
                        params, [features[i] for i in batch], [targets[i] for i in batch], cfg,
                        None, workers,
                    )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6, peak


class TestMinibatchStep:
    """The minibatch step (one map on workers, one XGD pass for all its
    scenes) must equal a per-scene loop over the public
    total_loss_and_grad, which runs the items in order, bit for bit."""

    @staticmethod
    def _dataset():
        from boxdistill.config import DataConfig, default_config
        from boxdistill.experiments import build_dataset

        cfg = dataclasses.replace(default_config(), data=DataConfig(n_train_scenes=5, n_val_scenes=1))
        ds = build_dataset(cfg, 0)
        init = DetectorParams.init(0, cfg.scene.feature_dim, ds.grid.k_a, ds.grid.k_c)
        noisy = TestMinibatchStep._noisy(init)
        # Log-size deltas of 14 overflow the decode cap on every box.
        b_reg = noisy.b_reg.copy().reshape(ds.grid.k_a, 7)
        b_reg[::2, 3] = 14.0
        clamped = dataclasses.replace(noisy, b_reg=b_reg.ravel())
        return ds, [init, noisy, clamped]

    @staticmethod
    def _noisy(init):
        rng = np.random.default_rng(3)
        return DetectorParams(
            init.w_cls + rng.normal(0, 0.05, init.w_cls.shape),
            init.b_cls + rng.normal(0, 0.3, init.b_cls.shape),
            init.w_reg + rng.normal(0, 0.02, init.w_reg.shape),
            init.b_reg + rng.normal(0, 0.02, init.b_reg.shape),
        )

    @staticmethod
    def _per_scene_loop(params, scenes, teachers, assignments, grid, cfg, flags):
        breakdowns = []
        grads = [np.zeros_like(params.w_cls), np.zeros_like(params.b_cls),
                 np.zeros_like(params.w_reg), np.zeros_like(params.b_reg)]
        for scene, teacher, asg in zip(scenes, teachers, assignments):
            breakdown, dlogits, ddeltas = total_loss_and_grad(
                student_forward(params, scene), teacher, scene, asg, grid, cfg, flags
            )
            n = scene.features.shape[0]
            dl, dd = dlogits.reshape(n, -1), ddeltas.reshape(n, -1)
            grads[0] += scene.features.T @ dl
            grads[1] += dl.sum(axis=0)
            grads[2] += scene.features.T @ dd
            grads[3] += dd.sum(axis=0)  # dense: the step sums only the rows with positives
            breakdowns.append(breakdown)
        return breakdowns, grads

    def test_equals_per_scene_loop_for_every_arm(self):
        from boxdistill.config import default_arm_matrix
        from boxdistill.geometry import GeometryFlags
        from boxdistill.sim import _minibatch_grads, _scene_targets, _SceneWorkers, _step_arena_floats

        ds, param_sets = self._dataset()
        batches = [[0, 1, 2, 3], [4], [3, 0]]
        clamps = 0
        for arm in default_arm_matrix():
            cfg = arm.loss
            targets = [
                _scene_targets(s, a, ds.grid, cfg, t)
                for s, t, a in zip(ds.train_scenes, ds.teacher_train, ds.train_assignments)
            ]
            # Shared by every minibatch, with training's arena, as in train.
            workers = _SceneWorkers(1, _step_arena_floats(ds.grid))
            arena = workers.workspaces[0]._arena
            assert arena is not None
            for params in param_sets:
                for batch in batches:
                    flags_step, flags_loop = GeometryFlags(), GeometryFlags()
                    got, grads = _minibatch_grads(
                        params, [ds.train_scenes[i].features for i in batch],
                        [targets[i] for i in batch], cfg, flags_step, workers,
                    )
                    want, want_grads = self._per_scene_loop(
                        params,
                        [ds.train_scenes[i] for i in batch],
                        [ds.teacher_train[i] for i in batch],
                        [ds.train_assignments[i] for i in batch],
                        ds.grid, cfg, flags_loop,
                    )
                    assert got == want, (arm.name, batch)
                    for g, w in zip(grads, want_grads):
                        assert np.array_equal(g, w), (arm.name, batch)
                    assert flags_step == flags_loop, (arm.name, batch)
                    clamps += flags_step.decode_clamped
                    # Every minibatch writes over the arena of the one before.
                    assert workers.workspaces[0]._arena is arena, (arm.name, batch)
        assert clamps > 0

    @pytest.mark.parametrize("arm_name", ["baseline", "xgd_cld"])
    def test_one_class_grid_whose_delta_gradient_fills_the_arena(self, arm_name):
        from contextlib import closing

        from boxdistill.config import DataConfig, default_arm_matrix, default_config
        from boxdistill.experiments import build_dataset
        from boxdistill.sim import _minibatch_grads, _scene_targets, _SceneWorkers, _step_arena_floats, _train

        base = default_config()
        ds = build_dataset(
            dataclasses.replace(
                base,
                grid=dataclasses.replace(base.grid, classes=base.grid.classes[:1]),
                scene=dataclasses.replace(base.scene, class_weights=(1.0,)),
                data=DataConfig(n_train_scenes=5, n_val_scenes=1),
            ),
            0,
        )
        grid = ds.grid
        # The arena is exactly one (n_anchors, 7) array.
        assert grid.k_c == 1 and _step_arena_floats(grid) == 7 * grid.n_anchors
        cfg = next(arm.loss for arm in default_arm_matrix() if arm.name == arm_name)
        params = self._noisy(DetectorParams.init(0, ds.train_scenes[0].feature_dim, grid.k_a, grid.k_c))
        batch = [0, 1, 2, 3]
        targets = [
            _scene_targets(ds.train_scenes[i], ds.train_assignments[i], grid, cfg, ds.teacher_train[i])
            for i in batch
        ]
        with closing(_SceneWorkers(1, _step_arena_floats(grid))) as workers:
            got, grads = _minibatch_grads(
                params, [ds.train_scenes[i].features for i in batch], targets, cfg, None, workers
            )
        want, want_grads = self._per_scene_loop(
            params,
            [ds.train_scenes[i] for i in batch],
            [ds.teacher_train[i] for i in batch],
            [ds.train_assignments[i] for i in batch],
            grid, cfg, None,
        )
        assert got == want
        for g, w in zip(grads, want_grads):
            assert np.array_equal(g, w)

        weights = []
        for cpus in (1, 2):
            p = _train(
                grid, ds.train_scenes, ds.teacher_train, ds.train_assignments, cfg,
                OptimizerConfig(epochs=3), ds.seed, None, cpus,
            ).params
            weights.append([w.tobytes() for w in (p.w_cls, p.b_cls, p.w_reg, p.b_reg)])
        assert weights[0] == weights[1]

    def test_xgd_pass_equals_grouped_xgd_loss_and_its_gradient(self):
        # The pass scores its losses and gradient in one clip; each scene's
        # loss must equal xgd_loss on that scene's rows.  The gradient that
        # training applies is checked by verify's training_grad_fd.
        from boxdistill.config import default_arm_matrix
        from boxdistill.sim import _regression_terms, _scene_targets, _xgd_terms
        from boxdistill.xgd import positive_component_update, xgd_loss

        ds, param_sets = self._dataset()
        arms = [a for a in default_arm_matrix() if a.loss.xgd_weight > 0]
        assert {a.loss.xgd_selection for a in arms} == {"gate", "confidence"}
        for arm in arms:
            cfg = arm.loss
            targets = [
                _scene_targets(s, a, ds.grid, cfg, t)
                for s, t, a in zip(ds.train_scenes, ds.teacher_train, ds.train_assignments)
            ]
            sizes = [t.xgd_rows.size for t in targets]
            assert all(sizes)
            bounds = np.cumsum([0] + sizes)
            anchors = np.concatenate([t.xgd_anchors for t in targets])
            teacher_rows = np.concatenate([t.xgd_teacher for t in targets])
            for params in param_sets:
                terms = [
                    _regression_terms(student_forward(params, s).deltas_flat[t.pos], t)
                    for s, t in zip(ds.train_scenes, targets)
                ]
                got = _xgd_terms(terms, targets, cfg, None)

                deltas = np.concatenate([r.xgd_deltas for r in terms])
                student_rows = decode_deltas(deltas, anchors)
                box_targets = teacher_rows
                if cfg.xgd_selection == "gate":
                    box_targets = positive_component_update(
                        teacher_rows, student_rows, np.concatenate([t.xgd_gt for t in targets]),
                        components=cfg.xgd_components,
                    )
                want = [
                    xgd_loss(student_rows[lo:hi], box_targets[lo:hi])
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ]
                assert [loss for loss, _, _ in got] == want, arm.name

    def test_one_xgd_pass_per_minibatch(self, monkeypatch):
        import boxdistill.geometry as geometry_mod
        import boxdistill.sim as sim_mod
        import boxdistill.xgd as xgd_mod

        ds, _ = self._dataset()
        counts = {"gate": 0, "fused": 0, "fd": 0, "iou3d": 0, "decode": 0}

        def counting(module, name, key):
            original = getattr(module, name)

            def wrapped(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        counting(sim_mod, "gate_decisions", "gate")
        counting(xgd_mod, "iou3d_and_grad_fd", "fused")
        counting(xgd_mod, "iou3d_grad_fd", "fd")
        counting(xgd_mod, "iou3d", "iou3d")
        counting(sim_mod, "decode_deltas", "decode")
        opt = OptimizerConfig(epochs=2, batch_size=4)
        train(ds.grid, ds.train_scenes, ds.teacher_train, ds.train_assignments, LossConfig(), opt, seed=0)
        # 5 scenes: batches of 4 and 1 per epoch; teacher boxes decoded once
        # per scene.  Each pass scores its losses and gradient in one clip.
        assert counts == {"gate": 4, "fused": 4, "fd": 0, "iou3d": 0, "decode": 4 + 5}

    @staticmethod
    def _step_on(n_workers, ds, cfg, params, batch):
        from contextlib import closing

        from boxdistill.sim import _minibatch_grads, _scene_targets, _SceneWorkers, _step_arena_floats

        targets = [
            _scene_targets(ds.train_scenes[i], ds.train_assignments[i], ds.grid, cfg, ds.teacher_train[i])
            for i in batch
        ]
        with closing(_SceneWorkers(n_workers, _step_arena_floats(ds.grid))) as workers:
            return _minibatch_grads(
                params, [ds.train_scenes[i].features for i in batch], targets, cfg, None, workers
            )

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_no_delta_product_starts_before_the_xgd_pass_returns(self, n_workers, monkeypatch):
        import threading
        import time

        import boxdistill.sim as sim_mod

        ds, (_, params, _) = self._dataset()
        batch, cfg = [0, 1, 2, 3], LossConfig()
        want = self._step_on(1, ds, cfg, params, batch)
        log = []
        xgd_terms, delta_grad = sim_mod._xgd_terms, sim_mod._delta_grad

        def slow_xgd(*args):
            # Long enough for the classification items to end before it.
            time.sleep(0.1)
            out = xgd_terms(*args)
            log.append(("xgd returned", threading.current_thread()))
            return out

        def logged_delta_grad(*args):
            log.append(("delta product", threading.current_thread()))
            return delta_grad(*args)

        monkeypatch.setattr(sim_mod, "_xgd_terms", slow_xgd)
        monkeypatch.setattr(sim_mod, "_delta_grad", logged_delta_grad)
        threads = threading.active_count()
        got = self._step_on(n_workers, ds, cfg, params, batch)
        assert threading.active_count() == threads
        assert [what for what, _ in log] == ["xgd returned"] + ["delta product"] * len(batch)
        if n_workers > 1:
            assert len({thread for _, thread in log}) > 1  # the products did not all run inline
        assert got[0] == want[0]
        for g, w in zip(got[1], want[1]):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_an_xgd_error_skips_every_delta_product_and_is_raised(self, n_workers, monkeypatch):
        import threading
        import time

        import boxdistill.sim as sim_mod

        class XgdError(Exception):
            pass

        class ClassificationError(Exception):
            pass

        ds, (_, params, _) = self._dataset()
        products = []
        delta_grad, classification_terms = sim_mod._delta_grad, sim_mod._classification_terms

        def failing_xgd(*args):
            time.sleep(0.05)  # the delta items are waiting by now
            raise XgdError()

        def logged_delta_grad(*args):
            products.append(args)
            return delta_grad(*args)

        def failing_classification(*args):
            raise ClassificationError()

        monkeypatch.setattr(sim_mod, "_xgd_terms", failing_xgd)
        monkeypatch.setattr(sim_mod, "_delta_grad", logged_delta_grad)
        threads = threading.active_count()
        for classification in (classification_terms, failing_classification):
            monkeypatch.setattr(sim_mod, "_classification_terms", classification)
            with pytest.raises(XgdError):
                self._step_on(n_workers, ds, LossConfig(), params, [0, 1, 2, 3])
            assert products == []
        assert threading.active_count() == threads


class TestWorkerCount:
    """Training reports the same failure on any number of workers (that it
    gives the same bits is verify's threaded_step_bit_identity check)."""

    @staticmethod
    def _dataset(n_train_scenes):
        from boxdistill.config import DataConfig, default_config
        from boxdistill.experiments import build_dataset

        cfg = dataclasses.replace(
            default_config(), data=DataConfig(n_train_scenes=n_train_scenes, n_val_scenes=1)
        )
        return build_dataset(cfg, 0)

    @staticmethod
    def _train_on(monkeypatch, cpus, ds, scenes, loss, epochs):
        import boxdistill.sim as sim_mod
        from boxdistill.geometry import GeometryFlags

        monkeypatch.setattr(sim_mod, "_usable_cpus", lambda: cpus)
        flags = GeometryFlags()
        result = train(
            ds.grid, scenes, ds.teacher_train, ds.train_assignments, loss,
            OptimizerConfig(epochs=epochs), ds.seed, flags,
        )
        p = result.params
        return [w.tobytes() for w in (p.w_cls, p.b_cls, p.w_reg, p.b_reg)], repr(result.history), flags

    def test_first_scene_in_batch_order_is_reported(self, monkeypatch):
        import threading
        import time

        import boxdistill.sim as sim_mod

        ds = self._dataset(n_train_scenes=4)  # one batch of 4 scenes per epoch
        order = np.random.default_rng(
            np.random.SeedSequence((ds.seed, sim_mod._STREAM_SHUFFLE))
        ).permutation(4)
        k_a = ds.grid.k_a

        def positive_positions(i):
            return np.unique(ds.train_assignments[i].positive_indices // k_a)

        def background_position(i):
            asg = ds.train_assignments[i]
            # Position 0 holds only negatives.
            assert not np.any(asg.positive_indices < k_a) and not np.any(asg.ignore_indices < k_a)
            return np.array([0])

        features_of = {}

        def spoiled(spoils):
            scenes = list(ds.train_scenes)
            for i, rows_of in spoils:
                scene = scenes[i]
                features = scene.features.copy()
                features[rows_of(i)] = np.inf
                scenes[i] = dense_scene(scene.boxes, scene.class_ids, features, scene.seed)
                features_of[i] = features  # what training's heads read
            return scenes

        # Item 0 runs every regression head, in batch order.  The
        # classification items of batch positions 1 and 2 run on different
        # workers of two: the first holds its head until the second has
        # finished its own, so they complete out of batch order.
        first, second = order[1], order[2]
        k_c = ds.grid.k_c
        assert k_c != 7  # the head's row width tells the two heads apart
        second_done = threading.Event()
        head = sim_mod._head

        def second_first(feats, w, b, ws, width, *rows):
            if width == k_c and feats is features_of[first]:
                assert second_done.wait(timeout=10)
                time.sleep(0.02)  # for the second scene's item to end
            out = head(feats, w, b, ws, width, *rows)
            if width == k_c and feats is features_of[second]:
                second_done.set()
            return out

        monkeypatch.setattr(sim_mod, "_head", second_first)
        cases = [
            ("non-finite positive-anchor deltas",
             [(first, positive_positions), (second, positive_positions)], first),
            ("non-finite loss", [(first, background_position), (second, background_position)], first),
            # Deltas of any scene come before the loss of any scene.
            ("non-finite positive-anchor deltas",
             [(first, background_position), (second, positive_positions)], second),
        ]
        threads = threading.active_count()
        for what, spoils, reported in cases:
            second_done.clear()
            with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
                self._train_on(monkeypatch, 2, ds, spoiled(spoils), LossConfig(), epochs=1)
            assert str(info.value).startswith(what)
            assert info.value.snapshot["scene_seed"] == ds.train_scenes[reported].seed
        assert threading.active_count() == threads

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_one_map_per_minibatch(self, cpus, monkeypatch):
        import boxdistill.sim as sim_mod

        ds = self._dataset(n_train_scenes=5)  # batches of 4 and 1 scenes per epoch
        items = []
        scene_map = sim_mod._SceneWorkers.map

        def counted(workers, fn, n_items):
            items.append(n_items)
            return scene_map(workers, fn, n_items)

        monkeypatch.setattr(sim_mod._SceneWorkers, "map", counted)
        self._train_on(monkeypatch, cpus, ds, ds.train_scenes, LossConfig(), epochs=2)
        # 2 epochs x ceil(5 / 4) minibatches, each of 2n + 1 items.
        assert items == [2 * 4 + 1, 2 * 1 + 1] * 2

    def test_workers_keep_the_callers_numpy_error_state(self):
        import threading
        from contextlib import closing

        from boxdistill.sim import _SceneWorkers

        on_helper = threading.Event()

        def divide(k, _):
            if threading.current_thread() is threading.main_thread():
                # The calling thread's item waits until an item has run on
                # the helper, so the helper takes one.
                assert on_helper.wait(timeout=10)
                return None
            try:
                return np.ones(1) / np.zeros(1)
            finally:
                on_helper.set()

        with closing(_SceneWorkers(2)) as workers, np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                workers.map(divide, 2)


class TestSceneWorkers:
    """The scheduler of the minibatch map: a shared item counter."""

    @staticmethod
    def _workers(n):
        from boxdistill.sim import _SceneWorkers

        return _SceneWorkers(n)

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_every_item_runs_once_and_results_keep_batch_order(self, n_workers):
        import sys
        import threading
        import time
        from collections import Counter
        from contextlib import closing

        runs = Counter()
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads between taking and running items
        try:
            with closing(self._workers(n_workers)) as workers:
                for n_items, pause in ((0, 0.0), (1, 0.0), (2, 0.0), (5, 0.002), (9, 0.002), (300, 0.0)):
                    runs.clear()

                    def fn(k, ws):
                        runs[k] += 1
                        time.sleep(pause * ((7 * k) % 3))  # later items may end first
                        return k * k, ws

                    out = workers.map(fn, n_items)
                    assert [r for r, _ in out] == [k * k for k in range(n_items)]
                    assert runs == Counter(range(n_items))
                    # Every workspace is one of the workers' own.
                    assert all(any(ws is w for w in workers.workspaces) for _, ws in out)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads  # every worker thread was joined

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_lowest_item_error_comes_before_the_first_callables(self, n_workers):
        # The first callable to fail is item 4's: on more than one worker,
        # item 2 waits until it has raised.  Item 2's error is raised.
        import threading
        from collections import Counter
        from contextlib import closing

        class ItemError(Exception):
            pass

        runs = Counter()
        four_raised = threading.Event()

        def fn(k, ws):
            runs[k] += 1
            if k == 2 and n_workers > 1:
                assert four_raised.wait(timeout=10)
            if k == 4:
                four_raised.set()
            if k in (2, 4):
                raise ItemError(k)
            return k

        threads = threading.active_count()
        with closing(self._workers(n_workers)) as workers:
            with pytest.raises(ItemError) as info:
                workers.map(fn, 6)
            assert info.value.args == (2,)
            assert runs == Counter(range(6))  # every item still ran
        assert threading.active_count() == threads
