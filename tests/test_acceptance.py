"""Acceptance criteria.

One test per criterion, each printing a PASS/FAIL line (bypassing pytest
capture) so a plain `pytest tests/test_acceptance.py` run shows the
verdict per criterion.  Expensive sweeps are shared through module-scoped
fixtures; everything is seeded and deterministic.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from boxdistill.anchors import build_anchor_grid, decode_deltas, encode_deltas
from boxdistill.cld import LogitMap, cld_grad, cld_loss, unified_distribution
from boxdistill.config import config_from_dict, default_arm_matrix, default_config
from boxdistill.experiments import (
    ExperimentResult,
    RunRecord,
    build_dataset,
    evaluate_params,
    run_ablations,
    train_on_dataset,
)
from boxdistill.geometry import Box3D, iou3d, iou3d_mc_oracle, wrap_angle
from boxdistill.sim import NoiseProfile, teacher_predict
from boxdistill.verify import (
    _reference_component_update,
    check_training_grad_fd,
    near_pair,
    random_box,
    rows,
)
from boxdistill.xgd import component_gate, positive_component_update

pytestmark = pytest.mark.acceptance

OCTAGON_AREA = 2.0 * (math.sqrt(2.0) - 1.0)
ROT45_IOU = OCTAGON_AREA / (2.0 - OCTAGON_AREA)  # = 0.7071067811865475


@pytest.fixture()
def report(capfd):
    """Print a criterion verdict straight to the terminal, past capture."""

    def _report(number: int, name: str, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capfd.disabled():
            print(f"[ACCEPTANCE {number:02d}] {status} {name}: {detail}", flush=True)

    return _report


def test_criterion_1_mc_oracle_agreement(report):
    """500 random overlapping pairs: |exact - MC(1e5)| <= 0.01, under 60 s."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    while checked < 500:
        a, b = near_pair(rng)
        exact = iou3d(a, b)
        if exact <= 0.05:
            continue
        estimate = iou3d_mc_oracle(a, b, 100_000, seed=checked).value
        worst = max(worst, abs(exact - estimate))
        checked += 1
    elapsed = time.time() - t0
    ok = worst <= 0.01 and elapsed < 60.0
    report(1, "MC IoU oracle agreement", ok, f"worst |diff|={worst:.5f}, {elapsed:.1f}s")
    assert worst <= 0.01
    assert elapsed < 60.0


def test_criterion_2_geometry_closed_forms(report):
    box = Box3D(0.3, -0.2, 5.0, 2.1, 1.2, 1.4, 0.8)
    identity_ok = iou3d(box, box) == 1.0

    rng = np.random.default_rng(43)
    worst_axis = 0.0
    for _ in range(3000):
        a = Box3D(*rng.uniform(-2, 2, 3), *np.exp(rng.uniform(-0.5, 0.5, 3)),
                  0.0 if rng.uniform() < 0.5 else math.pi)
        b = Box3D(*rng.uniform(-2, 2, 3), *np.exp(rng.uniform(-0.5, 0.5, 3)),
                  0.0 if rng.uniform() < 0.5 else math.pi)

        def seg(c1, e1, c2, e2):
            return max(0.0, min(c1 + e1 / 2, c2 + e2 / 2) - max(c1 - e1 / 2, c2 - e2 / 2))

        inter = seg(a.cx, a.l, b.cx, b.l) * seg(a.cy, a.h, b.cy, b.h) * seg(a.cz, a.w, b.cz, b.w)
        expected = inter / (a.volume + b.volume - inter)
        worst_axis = max(worst_axis, abs(iou3d(a, b) - expected))

    rot_err = abs(
        iou3d(Box3D(0, 0, 0, 1, 1, 1, 0), Box3D(0, 0, 0, 1, 1, 1, math.pi / 4)) - 0.707107
    )
    ok = identity_ok and worst_axis <= 1e-12 and rot_err <= 1e-6
    report(
        2,
        "geometry closed forms",
        ok,
        f"identity={identity_ok}, axis-aligned worst={worst_axis:.2e}, 45-deg err={rot_err:.2e}",
    )
    assert identity_ok
    assert worst_axis <= 1e-12
    assert rot_err <= 1e-6


def test_criterion_3_component_update_bruteforce(report):
    rng = np.random.default_rng(44)
    eps = 1e-9
    mismatches = 0
    for case in range(1000):
        n = int(rng.integers(1, 5))
        student = [random_box(rng) for _ in range(n)]
        gt = [random_box(rng) for _ in range(n)]
        teacher = []
        for j in range(n):
            t = random_box(rng)
            roll = rng.uniform()
            if roll < 0.15:  # teacher == student on a component
                t = Box3D(student[j].cx, student[j].cy, student[j].cz, t.l, t.w, t.h, t.yaw)
            elif roll < 0.30:  # gt == student on a component
                gt[j] = Box3D(
                    student[j].cx, student[j].cy, student[j].cz,
                    gt[j].l, gt[j].w, gt[j].h, gt[j].yaw,
                )
            elif roll < 0.35:  # total coincidence
                t = student[j]
            teacher.append(t)
        got = positive_component_update(rows(teacher), rows(student), rows(gt), eps)
        want = _reference_component_update(teacher, student, gt, eps)
        if [Box3D.from_array(r) for r in got] != want:
            mismatches += 1
    report(3, "gated update vs brute force", mismatches == 0,
           f"1000 triplet lists, {mismatches} mismatches")
    assert mismatches == 0


def test_criterion_4_gate_soundness(report):
    rng = np.random.default_rng(45)
    eps = 1e-9
    n = 100_000
    violations = 0
    scale_t = rng.uniform(1e-12, 2.0, size=n)
    scale_g = rng.uniform(1e-12, 2.0, size=n)
    students = rng.normal(size=(n, 3))
    teachers = students + rng.normal(size=(n, 3)) * scale_t[:, None]
    gts = students + rng.normal(size=(n, 3)) * scale_g[:, None]
    for i in range(n):
        decision = component_gate(students[i], teachers[i], gts[i], eps)
        ts = teachers[i] - students[i]
        gs = gts[i] - students[i]
        if np.linalg.norm(ts) < eps:
            sound = decision.kept
        elif np.linalg.norm(gs) < eps:
            sound = not decision.kept
        else:
            sound = decision.kept == (float(ts @ gs) > 0.0)
        violations += not sound
    report(4, "gate soundness fuzz", violations == 0, f"{n} triplets, {violations} violations")
    assert violations == 0


def test_criterion_5_cld_analytics(report):
    rng = np.random.default_rng(46)
    worst_row_sum = 0.0
    worst_negative = 0.0
    worst_shift = 0.0
    worst_grad_rel = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        k_a = int(rng.integers(1, 4))
        k_c = int(rng.integers(2, 5))
        tau = float(rng.uniform(0.5, 3.0))
        t_vals = rng.normal(0, 2, size=(m * k_a, k_c))
        s_vals = rng.normal(0, 2, size=(m * k_a, k_c))
        teacher = unified_distribution(LogitMap(t_vals, k_a=k_a), tau)
        student = unified_distribution(LogitMap(s_vals, k_a=k_a), tau)
        worst_row_sum = max(
            worst_row_sum,
            float(np.max(np.abs(teacher.rows.sum(axis=1) - 1.0))),
            float(np.max(np.abs(student.rows.sum(axis=1) - 1.0))),
        )
        loss = cld_loss(teacher, student)
        worst_negative = min(worst_negative, loss)
        shifted = (s_vals.reshape(m, k_a * k_c) + rng.normal(0, 5, size=(m, 1))).reshape(
            m * k_a, k_c
        )
        moved = cld_loss(teacher, unified_distribution(LogitMap(shifted, k_a=k_a), tau))
        worst_shift = max(worst_shift, abs(moved - loss))

        analytic = cld_grad(teacher, unified_distribution(LogitMap(s_vals, k_a=k_a), tau), tau)
        h = 1e-5
        fd = np.zeros_like(s_vals)
        for i in range(s_vals.shape[0]):
            for j in range(k_c):
                up, dn = s_vals.copy(), s_vals.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (
                    cld_loss(teacher, unified_distribution(LogitMap(up, k_a=k_a), tau))
                    - cld_loss(teacher, unified_distribution(LogitMap(dn, k_a=k_a), tau))
                ) / (2 * h)
        worst_grad_rel = max(
            worst_grad_rel,
            float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30)),
        )

    hand = cld_loss(
        unified_distribution(LogitMap(np.zeros((1, 2)), k_a=1)),
        unified_distribution(LogitMap(np.array([[math.log(3.0), 0.0]]), k_a=1)),
    )
    hand_err = abs(hand - 0.143841)
    ok = (
        worst_row_sum <= 1e-12
        and worst_negative >= -1e-12
        and worst_shift <= 1e-9
        and worst_grad_rel < 1e-4
        and hand_err <= 1e-6
    )
    report(
        5,
        "CLD analytics",
        ok,
        f"row-sum={worst_row_sum:.1e}, min-loss={worst_negative:.1e}, "
        f"shift={worst_shift:.1e}, grad-rel={worst_grad_rel:.1e}, hand-err={hand_err:.1e}",
    )
    assert worst_row_sum <= 1e-12
    assert worst_negative >= -1e-12
    assert worst_shift <= 1e-9
    assert worst_grad_rel < 1e-4
    assert hand_err <= 1e-6


def test_criterion_6_training_gradients(report):
    """Assembled weight gradient vs end-to-end central differences on 20
    random smooth states (the oracle is ``verify.check_training_grad_fd``)."""
    result = check_training_grad_fd(n_states=20)
    report(6, "training gradient FD check", result.passed, result.detail)
    assert result.passed, result.detail


SWEEP_ARMS = ("baseline", "xgd_center", "xgd_size", "xgd_angle", "high_quality_boxes", "xgd_cld")


@pytest.fixture(scope="module")
def sweep():
    """Train the criterion-relevant arms of the default matrix over 5 paired
    seeds, once."""
    config = default_config()
    assert len(config.seeds) >= 5
    arms = [arm for arm in default_arm_matrix() if arm.name in SWEEP_ARMS]
    assert [arm.name for arm in arms] == list(SWEEP_ARMS)
    grid = build_anchor_grid(config.grid)
    result = ExperimentResult(config=config)
    datasets = {}
    paired_sweep_seconds = 0.0
    for seed in config.seeds:
        t0 = time.time()
        dataset = build_dataset(config, seed, grid)
        dataset_seconds = time.time() - t0
        datasets[seed] = dataset
        for arm in arms:
            t1 = time.time()
            trained = train_on_dataset(dataset, arm.loss, config)
            rep = evaluate_params(trained.params, dataset, config)
            arm_seconds = time.time() - t1
            result.records.append(RunRecord(arm.name, seed, rep, trained))
            if arm.name in ("baseline", "xgd_cld"):
                paired_sweep_seconds += arm_seconds
        paired_sweep_seconds += dataset_seconds
    return {
        "config": config,
        "grid": grid,
        "result": result,
        "datasets": datasets,
        "paired_sweep_seconds": paired_sweep_seconds,
    }


def test_criterion_7_distillation_beats_baseline(sweep, report):
    result = sweep["result"]
    base = result.seed_mean_ap3d("baseline")
    full = result.seed_mean_ap3d("xgd_cld")
    strict_wins = [c for c in base if full[c] > base[c]]
    paired = list(result.paired_deltas("xgd_cld", "baseline").values())
    assert len(paired) == len(sweep["config"].seeds)
    mean_delta = float(np.mean(paired))
    elapsed = sweep["paired_sweep_seconds"]
    ok = len(strict_wins) >= 2 and mean_delta > 0 and elapsed <= 600.0
    report(
        7,
        "distilled student beats hard-label baseline",
        ok,
        f"strict wins={strict_wins}, paired mean delta={mean_delta:+.4f}, "
        f"per-seed={[round(d, 3) for d in paired]}, sweep={elapsed:.0f}s",
    )
    assert len(strict_wins) >= 2, (base, full)
    assert mean_delta > 0, paired
    assert elapsed <= 600.0


def test_criterion_8_replacement_ordering(sweep, report):
    """Teacher-head substitution with a low-noise teacher profile."""
    config = sweep["config"]
    low_noise = NoiseProfile(
        center_sigma=0.01, size_sigma=0.005, yaw_sigma=0.005,
        score_corruption=0.0, depth_bias=0.0002,
    )
    means = {"none": [], "regression": [], "both": []}
    for seed in config.seeds:
        dataset = sweep["datasets"][seed]
        clean_teacher = [
            teacher_predict(scene, low_noise, sweep["grid"], asg)
            for scene, asg in zip(dataset.val_scenes, dataset.val_assignments)
        ]
        clean_dataset = dataclasses.replace(dataset, teacher_val=clean_teacher)
        (student,) = (
            r.train_result.params
            for r in sweep["result"].records
            if (r.arm, r.seed) == ("baseline", seed)
        )
        for mode in means:
            rep = evaluate_params(student, clean_dataset, config, replace_mode=mode)
            means[mode].append(rep.mean_ap3d())
    avg = {m: float(np.mean(v)) for m, v in means.items()}
    ok = avg["both"] >= avg["regression"] >= avg["none"]
    report(
        8,
        "replacement study ordering",
        ok,
        f"both={avg['both']:.4f} >= regression={avg['regression']:.4f} >= none={avg['none']:.4f}",
    )
    assert avg["both"] >= avg["regression"] >= avg["none"], avg


def test_criterion_9_ablation_orderings(sweep, report):
    result = sweep["result"]
    full = result.seed_mean_map3d("xgd_cld")
    singles = {
        name: result.seed_mean_map3d(name) for name in ("xgd_center", "xgd_size", "xgd_angle")
    }
    hq = result.seed_mean_map3d("high_quality_boxes")
    ok_components = all(full >= v for v in singles.values())
    ok_gate = full >= hq
    report(
        9,
        "ablation orderings",
        ok_components and ok_gate,
        f"full={full:.4f} vs singles={ {k: round(v, 4) for k, v in singles.items()} }, "
        f"gate={full:.4f} >= high-quality={hq:.4f}",
    )
    assert ok_components, (full, singles)
    assert ok_gate, (full, hq)


def test_criterion_10_reproducibility(tmp_path, report):
    config = config_from_dict(
        {
            "name": "repro",
            "grid": {"x_range": [0.0, 16.0], "z_range": [0.0, 16.0], "cell": [1.0, 1.0]},
            "scene": {"n_objects": [2, 4], "border_margin": 2.0, "class_weights": []},
            "data": {"n_train_scenes": 3, "n_val_scenes": 3},
            "optimizer": {"epochs": 4},
            "seeds": [0, 1],
            "arms": [{"name": "default", "loss": {}}],
        }
    )
    run_ablations(config, out_dir=tmp_path / "first")
    run_ablations(config, out_dir=tmp_path / "second")
    a = (tmp_path / "first" / "ablations.csv").read_bytes()
    b = (tmp_path / "second" / "ablations.csv").read_bytes()
    ok = a == b and len(a) > 0
    report(10, "byte-identical CSV reports", ok, f"{len(a)} bytes compared")
    assert a == b


def test_codec_round_trip_supplement():
    """Codec bijectivity at acceptance scale (supports criteria 3/6 chains)."""
    rng = np.random.default_rng(48)
    pairs = [(random_box(rng), random_box(rng)) for _ in range(10_000)]
    boxes = rows(box for box, _ in pairs)
    anchors = rows(anchor for _, anchor in pairs)
    back = decode_deltas(encode_deltas(boxes, anchors), anchors)
    worst = float(np.max(np.abs(back[:, :6] - boxes[:, :6])))
    for back_yaw, yaw in zip(back[:, 6].tolist(), boxes[:, 6].tolist()):
        worst = max(worst, abs(wrap_angle(back_yaw - yaw)))
    assert worst < 1e-9
