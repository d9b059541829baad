"""Acceptance criteria.

One test per criterion, each printing a PASS/FAIL line (bypassing pytest
capture) so a plain `pytest tests/test_acceptance.py` run shows the
verdict per criterion.  Criteria 1-6 run the oracle checks of
``boxdistill verify`` at full size; the sweeps of criteria 7-9 are shared
through a module-scoped fixture.  Everything is seeded and deterministic.
"""
import copy
import time

import numpy as np
import pytest

from boxdistill.anchors import build_anchor_grid
from boxdistill.config import config_from_dict, default_arm_matrix, default_config
from boxdistill.experiments import (
    ExperimentResult,
    RunRecord,
    build_dataset,
    evaluate_params,
    run_ablations,
    train_on_dataset,
)
from boxdistill.sim import NoiseProfile, teacher_predict
from boxdistill.verify import (
    check_cld_grad_fd,
    check_cld_invariants,
    check_codec_roundtrip,
    check_component_update_bruteforce,
    check_gate_soundness,
    check_geometry_closed_forms,
    check_mc_iou_agreement,
    check_training_grad_fd,
)

pytestmark = pytest.mark.acceptance


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
    result = check_mc_iou_agreement(n_pairs=500)
    ok = result.passed and result.seconds < 60.0
    report(1, "MC IoU oracle agreement", ok, f"{result.detail}, {result.seconds:.1f}s")
    assert result.passed, result.detail
    assert result.seconds < 60.0


def test_criterion_2_geometry_closed_forms(report):
    """Identity, 3000 fuzzed axis-aligned pairs and the 45-degree octagon."""
    result = check_geometry_closed_forms()
    report(2, "geometry closed forms", result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_3_component_update_bruteforce(report):
    """1000 random triplet lists: the gated update equals brute force."""
    result = check_component_update_bruteforce(n_cases=1000)
    report(3, "gated update vs brute force", result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_4_gate_soundness(report):
    """100000 fuzzed box triplets: the training gate keeps exactly the
    acute steps."""
    result = check_gate_soundness(n_cases=100_000)
    report(4, "gate soundness fuzz", result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_5_cld_analytics(report):
    """The CLD gradient vs central differences on 100 random logit maps,
    plus row sums, KL sign, shift invariance and the closed forms."""
    results = [check_cld_grad_fd(n_maps=100), check_cld_invariants()]
    ok = all(r.passed for r in results)
    report(5, "CLD analytics", ok, "; ".join(r.detail for r in results))
    assert ok, [r.detail for r in results]


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
        clean_dataset = copy.copy(dataset)
        clean_dataset.teacher_val = clean_teacher
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
    result = check_codec_roundtrip(n_cases=10_000)
    assert result.passed, result.detail
