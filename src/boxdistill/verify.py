"""Self-verification suite: every oracle-backed property in one runnable
report.

Each check re-derives its expected values through an independent route
(Monte-Carlo sampling, brute-force re-implementation, closed forms, finite
differences) and compares the production path against it.  The CLI `verify`
command prints one line per check and exits non-zero on any failure.
"""
from __future__ import annotations

import math
import sys
import threading
import time
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from . import anchors as anchors_mod
from . import cld as cld_mod
from . import geometry as geom
from . import sim as sim_mod
from . import xgd as xgd_mod
from .anchors import build_anchor_grid
from .config import ExperimentConfig, config_from_dict, default_arm_matrix, default_config
from .experiments import build_dataset
from .geometry import Box3D


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def random_box(rng: np.random.Generator, spread: float = 3.0) -> Box3D:
    return Box3D(
        *rng.uniform(-spread, spread, 3),
        *np.exp(rng.uniform(-0.7, 0.9, 3)),
        rng.uniform(-math.pi, math.pi),
    )


def rows(boxes) -> np.ndarray:
    """(n, 7) parameter rows of an iterable of boxes."""
    return np.array([b.as_array() for b in boxes]).reshape(-1, 7)


def dense_scene(boxes, class_ids, features, seed: int) -> sim_mod.Scene:
    """A scene whose ``features`` are the given dense array itself: every
    position visible, no noise state."""
    n = features.shape[0]
    return sim_mod.Scene(boxes, class_ids, np.arange(n), features, n, seed)


def near_pair(rng: np.random.Generator) -> tuple[Box3D, Box3D]:
    a = random_box(rng)
    b = Box3D(
        a.cx + rng.normal(0, 0.4 * a.l),
        a.cy + rng.normal(0, 0.4 * a.h),
        a.cz + rng.normal(0, 0.4 * a.w),
        a.l * math.exp(rng.normal(0, 0.25)),
        a.w * math.exp(rng.normal(0, 0.25)),
        a.h * math.exp(rng.normal(0, 0.25)),
        a.yaw + rng.normal(0, 0.6),
    )
    return a, b


def check_mc_iou_agreement(n_pairs: int = 500) -> CheckResult:
    """Exact clipped IoU vs seeded 1e5-sample Monte-Carlo on random
    overlapping pairs."""
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < n_pairs:
        attempts += 1
        if attempts > n_pairs * 100:
            return CheckResult(
                "mc_iou_agreement", False, "could not sample enough overlapping pairs",
                time.time() - t0,
            )
        a, b = near_pair(rng)
        exact = geom.iou3d(a, b)
        if exact <= 0.05:
            continue
        est = geom.iou3d_mc_oracle(a, b, 100_000, seed=checked).value
        worst = max(worst, abs(exact - est))
        checked += 1
    return CheckResult(
        "mc_iou_agreement",
        worst <= 0.01,
        f"{checked} pairs, worst |exact - mc| = {worst:.5f} (tol 0.01)",
        time.time() - t0,
    )


def check_geometry_closed_forms() -> CheckResult:
    """Identity boxes, the axis-aligned interval-product form on 3000
    fuzzed pairs (each yaw 0 or pi) and the 45-degree octagon case."""
    t0 = time.time()
    identity_ok = all(
        geom.iou3d(box, box) == 1.0
        for box in (Box3D(0, 0, 0, 1, 1, 1, 0), Box3D(0.3, -0.2, 5.0, 2.1, 1.2, 1.4, 0.8))
    )
    rng = np.random.default_rng(43)

    def axis_aligned_box():
        return Box3D(*rng.uniform(-2, 2, 3), *np.exp(rng.uniform(-0.5, 0.5, 3)),
                     0.0 if rng.uniform() < 0.5 else math.pi)

    def seg(c, e, c2, e2):
        return max(0.0, min(c + e / 2, c2 + e2 / 2) - max(c - e / 2, c2 - e2 / 2))

    worst_axis = 0.0
    for _ in range(3000):
        a, b = axis_aligned_box(), axis_aligned_box()
        inter = (
            seg(a.cx, a.l, b.cx, b.l) * seg(a.cy, a.h, b.cy, b.h) * seg(a.cz, a.w, b.cz, b.w)
        )
        expected = inter / (a.volume + b.volume - inter)
        worst_axis = max(worst_axis, abs(geom.iou3d(a, b) - expected))
    octagon_area = 2.0 * (math.sqrt(2.0) - 1.0)
    rotated_iou = geom.iou3d(Box3D(0, 0, 0, 1, 1, 1, 0), Box3D(0, 0, 0, 1, 1, 1, math.pi / 4))
    rot_err = abs(rotated_iou - octagon_area / (2.0 - octagon_area))
    return CheckResult(
        "geometry_closed_forms",
        identity_ok and worst_axis <= 1e-12 and rot_err <= 1e-6,
        f"identity={identity_ok} on 2 boxes, axis-aligned worst={worst_axis:.2e} on 3000 pairs "
        f"(tol 1e-12), 45-deg err={rot_err:.2e} (tol 1e-6)",
        time.time() - t0,
    )


def reference_gate_decisions(
    teacher: np.ndarray, student: np.ndarray, gt: np.ndarray
) -> np.ndarray:
    """The gate's rule, one component of one box at a time: the (n, 3)
    center / size / angle keep verdicts of index-aligned (n, 7) rows.

    A component is kept when the teacher's step from the student is shorter
    than DEFAULT_GATE_EPS, dropped when the ground truth's step is, and
    otherwise kept when the two steps make an acute angle (a positive dot
    product).  Yaw steps are wrapped first.
    """
    eps = xgd_mod.DEFAULT_GATE_EPS
    kept = np.zeros((len(teacher), 3), dtype=bool)
    for i, (t, s, g) in enumerate(zip(teacher.tolist(), student.tolist(), gt.tolist())):
        steps = [
            (np.subtract(t[0:3], s[0:3]), np.subtract(g[0:3], s[0:3])),
            (np.subtract(t[3:6], s[3:6]), np.subtract(g[3:6], s[3:6])),
            (np.array([geom.wrap_angle(t[6] - s[6])]), np.array([geom.wrap_angle(g[6] - s[6])])),
        ]
        for c, (t_step, g_step) in enumerate(steps):
            if np.linalg.norm(t_step) < eps:
                kept[i, c] = True
            elif np.linalg.norm(g_step) < eps:
                kept[i, c] = False
            else:
                kept[i, c] = float(np.dot(t_step, g_step)) > 0.0
    return kept


def _reference_component_update(teacher, student, gt):
    """Deliberately plain re-implementation of the gated update on Box3D
    lists."""
    out = []
    kept = reference_gate_decisions(rows(teacher), rows(student), rows(gt))
    for (center, size, angle), t, s in zip(kept.tolist(), teacher, student):
        c, z, a = (t if center else s), (t if size else s), (t if angle else s)
        out.append(Box3D(c.cx, c.cy, c.cz, z.l, z.w, z.h, a.yaw))
    return out


def check_component_update_bruteforce(n_cases: int = 1000) -> CheckResult:
    t0 = time.time()
    rng = np.random.default_rng(44)
    mismatches = []
    for case in range(n_cases):
        n = int(rng.integers(1, 5))
        student = [random_box(rng) for _ in range(n)]
        gt = [random_box(rng) for _ in range(n)]
        teacher = []
        for j in range(n):
            t = random_box(rng)
            # exercise the degeneracy rules
            roll = rng.uniform()
            if roll < 0.15:  # teacher == student on the center
                t = Box3D(student[j].cx, student[j].cy, student[j].cz, t.l, t.w, t.h, t.yaw)
            elif roll < 0.30:  # gt == student on the center
                gt[j] = Box3D(student[j].cx, student[j].cy, student[j].cz,
                              gt[j].l, gt[j].w, gt[j].h, gt[j].yaw)
            elif roll < 0.35:  # teacher == student
                t = student[j]
            teacher.append(t)
        got = xgd_mod.positive_component_update(rows(teacher), rows(student), rows(gt))
        if [Box3D.from_array(r) for r in got] != _reference_component_update(teacher, student, gt):
            mismatches.append(case)
    return CheckResult(
        "component_update_bruteforce",
        not mismatches,
        f"{n_cases} triplet lists, {len(mismatches)} mismatches"
        + (f", first at case {mismatches[0]}" if mismatches else ""),
        time.time() - t0,
    )


def check_gate_soundness(n_cases: int = 100_000) -> CheckResult:
    """The training gate, xgd.gate_decisions, vs reference_gate_decisions
    on fuzzed (n, 7) rows: each component's teacher and ground-truth steps
    are drawn at scales from 1e-12 to 2, on both sides of DEFAULT_GATE_EPS."""
    t0 = time.time()
    rng = np.random.default_rng(45)
    student = np.column_stack(
        [rng.normal(size=(n_cases, 6)), rng.uniform(-math.pi, math.pi, n_cases)]
    )

    def step() -> np.ndarray:
        scale = 10.0 ** rng.uniform(-12.0, 0.3, size=(n_cases, 3))
        return rng.normal(size=(n_cases, 7)) * np.repeat(scale, [3, 3, 1], axis=1)

    teacher, gt = student + step(), student + step()
    got = xgd_mod.gate_decisions(teacher, student, gt)
    violations = int(np.count_nonzero(got != reference_gate_decisions(teacher, student, gt)))
    return CheckResult(
        "gate_soundness",
        violations == 0,
        f"{n_cases} fuzzed box triplets x 3 components, {violations} violations",
        time.time() - t0,
    )


def check_cld_invariants() -> CheckResult:
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(17)
    worst_row_sum = worst_shift = min_loss = 0.0
    for _ in range(200):
        m, k_a, k_c = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        s_vals = rng.normal(0, 3, size=(m * k_a, k_c))
        tau = float(rng.uniform(0.2, 5.0))
        teacher = cld_mod.unified_distribution(
            cld_mod.LogitMap(rng.normal(0, 3, size=(m * k_a, k_c)), k_a=k_a)
        )
        student = cld_mod.unified_distribution(cld_mod.LogitMap(s_vals, k_a=k_a), tau)
        for dist in (teacher, student):
            worst_row_sum = max(worst_row_sum, float(np.max(np.abs(dist.rows.sum(axis=1) - 1.0))))
        loss = cld_mod.cld_loss(teacher, student)
        min_loss = min(min_loss, loss)
        # one constant per position leaves its unified distribution unchanged
        shifted = (s_vals.reshape(m, -1) + rng.normal(0, 5, size=(m, 1))).reshape(s_vals.shape)
        moved = cld_mod.cld_loss(
            teacher, cld_mod.unified_distribution(cld_mod.LogitMap(shifted, k_a=k_a), tau)
        )
        worst_shift = max(worst_shift, abs(moved - loss))
    maps_ok = worst_row_sum <= 1e-12 and min_loss >= -1e-12 and worst_shift <= 1e-9
    # frozen two-term reference value
    teacher = cld_mod.unified_distribution(cld_mod.LogitMap(np.zeros((1, 2)), k_a=1))
    student = cld_mod.unified_distribution(cld_mod.LogitMap(np.array([[math.log(3.0), 0.0]]), k_a=1))
    hand = 0.5 * math.log(2.0 / 3.0) + 0.5 * math.log(2.0)
    if abs(cld_mod.cld_loss(teacher, student) - hand) > 1e-6:
        failures.append(f"hand value mismatch: {cld_mod.cld_loss(teacher, student)} vs {hand}")
    # tau -> infinity flattens the distribution and kills the loss
    wide = cld_mod.LogitMap(rng.normal(0, 3, size=(4, 3)), k_a=2)
    other_wide = cld_mod.LogitMap(rng.normal(0, 3, size=(4, 3)), k_a=2)
    big_tau = cld_mod.unified_distribution(wide, tau=1e6)
    uniform = np.full_like(big_tau.rows, 1.0 / big_tau.rows.shape[1])
    if np.max(np.abs(big_tau.rows - uniform)) > 1e-5:
        failures.append("tau->inf not uniform")
    if cld_mod.cld_loss(cld_mod.unified_distribution(other_wide, tau=1e6), big_tau) > 1e-6:
        failures.append("tau->inf loss not vanishing")
    # highlighting: argmax of the unified row is the max-logit (anchor, class)
    for _ in range(100):
        lm = cld_mod.LogitMap(rng.normal(0, 2, size=(3 * 2, 4)), k_a=2)
        dist_rows = cld_mod.unified_distribution(lm).rows
        if not np.array_equal(dist_rows.argmax(axis=1), lm.flattened().argmax(axis=1)):
            failures.append("highlighting property broken")
            break
    return CheckResult(
        "cld_invariants",
        maps_ok and not failures,
        f"200 logit maps: row-sum={worst_row_sum:.1e} (tol 1e-12), min-loss={min_loss:.1e} "
        f"(tol -1e-12), shift={worst_shift:.1e} (tol 1e-9); "
        + ("; ".join(failures) or "hand value, tau limit, highlighting"),
        time.time() - t0,
    )


def check_cld_grad_fd(n_maps: int = 100) -> CheckResult:
    t0 = time.time()
    rng = np.random.default_rng(46)
    worst = 0.0
    for _ in range(n_maps):
        m, k_a, k_c = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
        tau = float(rng.uniform(0.5, 3.0))
        teacher = cld_mod.unified_distribution(
            cld_mod.LogitMap(rng.normal(0, 2, size=(m * k_a, k_c)), k_a=k_a), tau
        )
        s_vals = rng.normal(0, 2, size=(m * k_a, k_c))
        analytic = cld_mod.cld_grad(
            teacher, cld_mod.unified_distribution(cld_mod.LogitMap(s_vals, k_a=k_a), tau), tau
        )
        h = 1e-5
        fd = np.zeros_like(s_vals)
        for i in range(s_vals.shape[0]):
            for j in range(k_c):
                up = s_vals.copy(); up[i, j] += h
                dn = s_vals.copy(); dn[i, j] -= h
                fd[i, j] = (
                    cld_mod.cld_loss(teacher, cld_mod.unified_distribution(cld_mod.LogitMap(up, k_a=k_a), tau))
                    - cld_mod.cld_loss(teacher, cld_mod.unified_distribution(cld_mod.LogitMap(dn, k_a=k_a), tau))
                ) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-30)
        worst = max(worst, rel)
    return CheckResult(
        "cld_grad_fd",
        worst < 1e-4,
        f"{n_maps} logit maps, worst rel err {worst:.2e} (tol 1e-4)",
        time.time() - t0,
    )


def check_codec_roundtrip(n_cases: int = 10_000) -> CheckResult:
    """encode_deltas then decode_deltas recovers random boxes."""
    t0 = time.time()
    rng = np.random.default_rng(23)
    pairs = [(random_box(rng), random_box(rng)) for _ in range(n_cases)]
    boxes = rows(box for box, _ in pairs)
    anchors = rows(anchor for _, anchor in pairs)
    back = anchors_mod.decode_deltas(anchors_mod.encode_deltas(boxes, anchors), anchors)
    err = np.abs(back[:, :6] - boxes[:, :6]).max(axis=1)
    # yaw may round-trip to the equivalent angle across the wrap boundary
    err = np.maximum(err, np.abs(geom.wrap_angle_array(back[:, 6] - boxes[:, 6])))
    worst = float(err.max())
    return CheckResult(
        "codec_roundtrip",
        worst < 1e-9,
        f"{n_cases} random box/anchor pairs, worst error {worst:.2e}",
        time.time() - t0,
    )


def _loop_assignment(grid, boxes, class_ids, thresholds, dilation):
    """Dense labels and max IoU from a per-anchor Box3D + scalar bev_iou
    loop, the form assign_targets had before it was batched."""
    k_a = grid.k_a
    max_iou = np.zeros(grid.n_anchors)
    best_gt = np.full(grid.n_anchors, -1, dtype=np.int64)
    forced = []
    slot_classes = grid.slot_class_ids()
    max_template_reach = max((0.5 * math.hypot(t.l, t.w) for t in grid.templates), default=0.0)
    for g, (row, class_id) in enumerate(zip(boxes, class_ids.tolist())):
        gt = Box3D.from_array(row)
        slots = np.flatnonzero(slot_classes == class_id)
        if slots.size == 0:
            continue
        best_anchor, best_val = -1, 0.0
        for p in anchors_mod._candidate_positions(grid, row, max_template_reach):
            for slot in slots:
                idx = int(p) * k_a + int(slot)
                iou = geom.bev_iou(Box3D.from_array(grid.anchor_params[idx]), gt)
                if iou > max_iou[idx] or (iou == max_iou[idx] and best_gt[idx] < 0):
                    max_iou[idx] = iou
                    best_gt[idx] = g
                if iou > best_val:
                    best_val, best_anchor = iou, idx
        if best_anchor >= 0 and best_val > 0.0:
            forced.append((best_anchor, best_val, g))
    labels = np.full(grid.n_anchors, anchors_mod.LABEL_NEGATIVE, dtype=np.int64)
    slot_of = np.tile(np.arange(k_a), grid.n_positions)
    pos_thr = np.array([thresholds[int(c)][0] for c in slot_classes])[slot_of]
    neg_thr = np.array([thresholds[int(c)][1] for c in slot_classes])[slot_of]
    pos_mask = max_iou >= pos_thr
    labels[~pos_mask & (max_iou >= neg_thr)] = anchors_mod.LABEL_IGNORE
    labels[pos_mask] = best_gt[pos_mask]
    for anchor, iou, g in forced:
        if labels[anchor] >= 0 and max_iou[anchor] > iou:
            continue
        labels[anchor] = g
    return labels, max_iou


def dense_assignment(asg: anchors_mod.Assignment, n_anchors: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense per-anchor arrays that an assignment's rows stand for:
    int64 labels (the matched ground-truth index of a positive,
    LABEL_IGNORE or LABEL_NEGATIVE) and the best same-class BEV IoU, 0
    where there is none."""
    labels = np.full(n_anchors, anchors_mod.LABEL_NEGATIVE, dtype=np.int64)
    labels[asg.ignore_indices] = anchors_mod.LABEL_IGNORE
    labels[asg.positive_indices] = asg.matched
    max_iou = np.zeros(n_anchors)
    max_iou[asg.overlap_indices] = asg.overlap_iou
    return labels, max_iou


def assignment_mismatches(grid, boxes, class_ids, thresholds, dilation) -> list[str]:
    """Where the dense arrays of ``assign_targets``' rows differ, by bytes,
    from the per-anchor loop; empty when they agree.  A case with no
    positive anchor is reported too, since it tests no match."""
    asg = anchors_mod.assign_targets(grid, boxes, class_ids, thresholds, dilation)
    labels, max_iou = dense_assignment(asg, grid.n_anchors)
    want_labels, want_max_iou = _loop_assignment(grid, boxes, class_ids, thresholds, dilation)
    views = (
        ("labels", labels, want_labels),
        ("max_iou", max_iou, want_max_iou),
        ("foreground", asg.foreground, anchors_mod.foreground_mask(grid, boxes, dilation)),
    )
    out = [f"{name} differ" for name, got, want in views if got.tobytes() != want.tobytes()]
    if asg.positive_indices.size == 0:
        out.append("no positive anchor")
    return out


def check_assignment_bruteforce(n_scenes: int = 3) -> CheckResult:
    """Target assignment vs the per-anchor loop on default-config scenes,
    at the default density and at 16-24 objects."""
    t0 = time.time()
    cfg = default_config()
    grid = build_anchor_grid(cfg.grid)
    failures = []
    for n_objects in (cfg.scene.n_objects, (16, 24)):
        scene_cfg = replace(cfg.scene, n_objects=n_objects)
        for seed in range(n_scenes):
            scene = sim_mod.generate_scene(seed, scene_cfg, grid)
            for problem in assignment_mismatches(
                grid, scene.boxes, scene.class_ids, cfg.assignment_thresholds(),
                cfg.foreground_dilation,
            ):
                failures.append(f"{n_objects} objects, scene {seed}: {problem}")
    return CheckResult(
        "assignment_bruteforce",
        not failures,
        "; ".join(failures)
        or f"{2 * n_scenes} scenes: labels, max_iou and foreground equal the per-anchor loop",
        time.time() - t0,
    )


def check_iou_grad_self_consistency(n_cases: int = 40) -> CheckResult:
    """Coarse and fine finite-difference steps of the gradient training
    reads, iou3d_and_grad_fd's, must agree away from contact."""
    t0 = time.time()
    rng = np.random.default_rng(29)
    checked = 0
    worst = 0.0
    while checked < n_cases:
        a, b = near_pair(rng)
        if not 0.15 < geom.iou3d(a, b) < 0.95:
            continue
        g1 = geom.iou3d_and_grad_fd(rows([a]), rows([b]), steps=np.full(7, 1e-3))[1][0]
        g2 = geom.iou3d_and_grad_fd(rows([a]), rows([b]), steps=np.full(7, 1e-4))[1][0]
        denom = max(np.linalg.norm(g1), np.linalg.norm(g2), 1e-12)
        if denom < 1e-6:
            continue
        rel = np.linalg.norm(g1 - g2) / denom
        worst = max(worst, rel)
        checked += 1
    return CheckResult(
        "iou_grad_self_consistency",
        worst < 1e-2,
        f"{checked} pairs, worst step-halving rel err {worst:.2e} (tol 1e-2)",
        time.time() - t0,
    )


CLIP_TIE_KINDS = (
    "identical",
    "shared_size_and_yaw",
    "shared_center_and_size",
    "collinear_or_touching",
    "nested",
    "disjoint",
    "anchor_vs_rotated_gt",
    "tangent_circumcircles",
)


def clip_tie_cases(rng: np.random.Generator, n_each: int) -> dict[str, list[tuple[Box3D, Box3D]]]:
    """Built box pairs, by kind, where the scalar clip's merge and clamp
    branches fire: offsets and turns reach down to 1e-9, integer-grid
    axis-aligned boxes share edge lines and corners.  Tangent pairs put
    the footprints' circumcircles within one ulp of touching, half of them
    corner to corner, at the tie of the circumcircle reject."""
    cases: dict[str, list[tuple[Box3D, Box3D]]] = {kind: [] for kind in CLIP_TIE_KINDS}
    for _ in range(n_each):
        a = random_box(rng)
        turn = rng.uniform(-math.pi, math.pi)
        shift = 10.0 ** rng.uniform(-9, 0)
        cases["identical"].append((a, a))
        cases["shared_size_and_yaw"].append(
            (a, replace(a, cx=a.cx + shift * math.cos(turn), cz=a.cz + shift * math.sin(turn)))
        )
        for dyaw in (math.pi / 2, math.pi, turn, math.copysign(shift, turn)):
            cases["shared_center_and_size"].append((a, replace(a, yaw=a.yaw + dyaw)))
        c = rng.integers(-2, 3, size=4) / 2.0
        e = rng.integers(1, 5, size=4) / 2.0
        first = Box3D(c[0], 0, c[1], e[0], e[1], 1, 0)
        cases["collinear_or_touching"] += [
            (first, Box3D(c[2], 0, c[3], e[2], e[3], 1, 0)),
            (first, Box3D(c[2], 0, c[3], e[2], e[3], 1, math.pi / 2)),
            (a, replace(a, cx=a.cx + a.l * math.cos(a.yaw), cz=a.cz + a.l * math.sin(a.yaw))),
        ]
        cases["nested"].append((a, replace(a, l=0.5 * a.l, w=0.5 * a.w, yaw=turn)))
        cases["disjoint"].append((a, replace(a, cx=a.cx + 50.0)))
        anchor_yaw = float(rng.choice([0.0, math.pi / 2]))
        anchor = Box3D(round(a.cx, 1), 1.0, round(a.cz, 1), 3.9, 1.6, 1.56, anchor_yaw)
        cases["anchor_vs_rotated_gt"].append((anchor, replace(a, yaw=turn)))
        b = random_box(rng)
        for corner_to_corner in (True, False):
            toward = a.yaw + math.atan2(a.w, a.l) if corner_to_corner else turn
            yaw = toward - math.atan2(b.w, b.l) if corner_to_corner else b.yaw
            reach = 0.5 * math.hypot(a.l, a.w) + 0.5 * math.hypot(b.l, b.w)
            cx = a.cx + reach * math.cos(toward)
            for x in (math.nextafter(cx, -math.inf), cx, math.nextafter(cx, math.inf)):
                cases["tangent_circumcircles"].append(
                    (a, replace(b, cx=x, cy=a.cy, cz=a.cz + reach * math.sin(toward), yaw=yaw))
                )
    return cases


def reference_iou3d_grad_fd(
    a: Box3D,
    b_const: Box3D,
    steps: np.ndarray | None = None,
    flags: geom.GeometryFlags | None = None,
) -> np.ndarray:
    """Central-difference gradient of iou3d(a, b_const) w.r.t. the 7
    parameters of ``a``, one pair at a time through the scalar clip: the
    per-pair loop the batched gradient replays bit for bit, flags included."""
    steps = geom.DEFAULT_FD_STEPS if steps is None else np.asarray(steps, dtype=float)
    params = [a.cx, a.cy, a.cz, a.l, a.w, a.h, a.yaw]
    b_corners = geom._bev_corners(b_const)
    b_vol = b_const.volume
    b_ylo, b_yhi = b_const.cy - 0.5 * b_const.h, b_const.cy + 0.5 * b_const.h

    def value(p, bev_inter=None):
        cx, cy, cz, l, w, h, yaw = p
        y_overlap = min(cy + 0.5 * h, b_yhi) - max(cy - 0.5 * h, b_ylo)
        if y_overlap <= 0.0:
            inter = 0.0
        else:
            if bev_inter is None:
                c, s = math.cos(yaw), math.sin(yaw)
                hl, hw = 0.5 * l, 0.5 * w
                corners = [
                    (cx + u * c - v * s, cz + u * s + v * c)
                    for u, v in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
                ]
                bev_inter = max(0.0, geom._signed_area(geom._clip(corners, b_corners)))
            inter = bev_inter * y_overlap
        union = l * w * h + b_vol - inter
        if union <= geom.DEGENERATE_UNION:
            if flags is not None:
                flags.degenerate_union += 1
            return 0.0
        return min(1.0, max(0.0, inter / union))

    base_bev = max(0.0, geom._signed_area(geom._clip(geom._bev_corners(a), b_corners)))
    grad = np.zeros(7)
    for i in range(7):
        plus = list(params)
        minus = list(params)
        plus[i] += steps[i]
        minus[i] -= steps[i]
        if i in (3, 4, 5):
            for pert in (plus, minus):
                if pert[i] < geom.SIZE_FLOOR:
                    pert[i] = geom.SIZE_FLOOR
                    if flags is not None:
                        flags.size_clamped += 1
        span = plus[i] - minus[i]
        if span == 0.0:
            continue
        # cy and h leave the footprint, and so its intersection area, as is.
        reuse = base_bev if i in (1, 5) else None
        grad[i] = (value(plus, reuse) - value(minus, reuse)) / span
    return grad


def check_clip_kernel_bit_identity(n_random: int = 1000) -> CheckResult:
    """Batched clip kernel, array bev_iou, array iou3d and the fused
    IoU-and-gradient call that training makes vs the scalar path (the
    gradient vs reference_iou3d_grad_fd), with ==.  Tiny-extent pairs trip
    the size floor and the degenerate-union guard."""
    t0 = time.time()
    rng = np.random.default_rng(37)
    pairs = [near_pair(rng) for _ in range(n_random)]
    pairs += [(random_box(rng), random_box(rng)) for _ in range(n_random)]
    for group in clip_tie_cases(rng, max(1, n_random // 4)).values():
        pairs += group
    for _ in range(max(1, n_random // 10)):
        a = random_box(rng)
        pairs.append((replace(a, l=1e-7, w=5e-4, h=1e-5), replace(a, l=1e-5, w=1e-5, h=1e-5)))
    pairs += [(b, a) for a, b in pairs]
    a_rows = rows(a for a, _ in pairs)
    b_rows = rows(b for _, b in pairs)
    kernel = geom._clip_area_rows(*geom._bev_corners_rows(a_rows), *geom._bev_corners_rows(b_rows))
    iou_rows = geom.bev_iou(a_rows, b_rows)
    flags_rows, flags_pairs = geom.GeometryFlags(), geom.GeometryFlags()
    iou3d_rows = geom.iou3d(a_rows, b_rows, flags_rows)
    flags_fused = geom.GeometryFlags()
    fused_rows, fused_grad = geom.iou3d_and_grad_fd(a_rows, b_rows, flags=flags_fused)
    failures = []
    for k, (a, b) in enumerate(pairs):
        area = max(0.0, geom._signed_area(geom._clip(geom._bev_corners(a), geom._bev_corners(b))))
        if kernel[k] != area:
            failures.append(f"area {kernel[k]!r} != {area!r} for {a} / {b}")
        if iou_rows[k] != geom.bev_iou(a, b):
            failures.append(f"bev_iou {iou_rows[k]!r} != {geom.bev_iou(a, b)!r} for {a} / {b}")
        iou = geom.iou3d(a, b, flags_pairs)
        if iou3d_rows[k] != iou:
            failures.append(f"iou3d {iou3d_rows[k]!r} != {iou!r} for {a} / {b}")
        if fused_rows[k] != iou:
            failures.append(f"fused iou3d {fused_rows[k]!r} != {iou!r} for {a} / {b}")
    if flags_rows != flags_pairs:
        failures.append(f"iou3d flags {flags_rows} != {flags_pairs}")
    flags_apart = replace(flags_pairs)
    grad = np.array([reference_iou3d_grad_fd(a, b, flags=flags_apart) for a, b in pairs])
    differ = np.flatnonzero(np.any(fused_grad != grad, axis=1))
    if differ.size:
        first = pairs[differ[0]]
        failures.append(f"fused gradient != the per-pair loop in {differ.size} rows, first {first}")
    if flags_fused != flags_apart:
        failures.append(f"fused flags {flags_fused} != {flags_apart}")
    if not (flags_apart.size_clamped and flags_apart.degenerate_union):
        failures.append(f"no size clamp or no degenerate union drawn: {flags_apart}")
    return CheckResult(
        "clip_kernel_bit_identity",
        not failures,
        f"{len(failures)} mismatches, first: {failures[0]}"
        if failures
        else f"{len(pairs)} pairs ({flags_fused.size_clamped} size clamps, "
        f"{flags_fused.degenerate_union} degenerate unions): kernel areas, array bev_iou, "
        "array iou3d and the fused IoU and gradient equal the scalar path and the per-pair "
        "FD loop",
        time.time() - t0,
    )


def reference_focal_terms(
    logits_flat: np.ndarray,
    pos_rows: np.ndarray,
    cols: np.ndarray,
    ignore_rows: np.ndarray,
    gamma: float,
    alpha: float,
) -> tuple[float, np.ndarray]:
    """The focal loss and its logit gradient in six fresh arrays, leaving
    ``logits_flat`` as it is: the float operations, in their order, that
    sim._focal_terms must replay on every element."""
    z = logits_flat
    e = np.empty(z.shape)
    scratch = np.empty(z.shape)
    ln_1mp = np.empty(z.shape)
    p = np.empty(z.shape)
    grad = np.empty(z.shape)

    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    log1p_e = np.log1p(e, out=scratch)
    np.negative(z, out=ln_1mp)
    np.minimum(ln_1mp, 0.0, out=ln_1mp)
    np.subtract(ln_1mp, log1p_e, out=ln_1mp)
    ln_p = np.minimum(z[pos_rows, cols], 0.0) - log1p_e[pos_rows, cols]
    one_plus_e = np.add(1.0, e, out=scratch)
    np.divide(e, one_plus_e, out=p)
    np.divide(1.0, one_plus_e, out=p, where=z >= 0.0)
    pp = p[pos_rows, cols]
    p_g = np.power(p, gamma, out=e)
    loss = np.multiply(p_g, -(1.0 - alpha), out=scratch)
    loss *= ln_1mp
    np.multiply(p_g, p, out=grad)
    one_minus_p = np.subtract(1.0, p, out=p)
    p_g *= gamma
    p_g *= one_minus_p
    p_g *= ln_1mp
    grad -= p_g
    grad *= 1.0 - alpha

    if pos_rows.size:
        qq = 1.0 - pp
        q_g = qq**gamma
        loss[pos_rows, cols] = -alpha * q_g * ln_p
        grad[pos_rows, cols] = alpha * (gamma * pp * q_g * ln_p - q_g * qq)
    if ignore_rows.size:
        loss[ignore_rows] = 0.0
        grad[ignore_rows] = 0.0
    return float(loss.sum()), grad


def check_focal_bit_identity(n_maps: int = 200) -> CheckResult:
    """sim._focal_terms, which runs in place over its logits, vs
    reference_focal_terms: the same loss float and the same gradient bytes
    on random maps at gammas 2.0, 1.5 and 0.0.  The maps mix scales from
    0.1 to 1e3, signed zeros and logits past exp's underflow; some have no
    positive and some no ignore row."""
    t0 = time.time()
    rng = np.random.default_rng(71)
    failures = []
    seen = {"signed zeros": 0, "underflows": 0, "no positive": 0, "ignore rows": 0}
    for m in range(n_maps):
        n, k_c = int(rng.integers(1, 600)), int(rng.integers(1, 4))
        z = rng.normal(0.0, 10.0 ** rng.uniform(-1, 3), (n, k_c))
        z[rng.random(z.shape) < 0.05] = 0.0
        z[rng.random(z.shape) < 0.05] = -0.0
        z[rng.random(z.shape) < 0.02] = rng.choice([-1.0, 1.0]) * rng.uniform(746.0, 1e4)
        n_pos = int(rng.integers(0, min(n, 12) + 1)) if m % 4 else 0
        pos_rows = np.sort(rng.choice(n, n_pos, replace=False))
        cols = rng.integers(0, k_c, n_pos)
        ignore_rows = np.setdiff1d(rng.choice(n, int(rng.integers(0, n // 3 + 1))), pos_rows)
        seen["signed zeros"] += int(np.count_nonzero((z == 0.0) & np.signbit(z)))
        seen["underflows"] += int(np.count_nonzero(np.exp(-np.abs(z)) == 0.0))
        seen["no positive"] += n_pos == 0
        seen["ignore rows"] += ignore_rows.size
        for gamma in (2.0, 1.5, 0.0):
            want = reference_focal_terms(z, pos_rows, cols, ignore_rows, gamma, sim_mod.FOCAL_ALPHA)
            got = sim_mod._focal_terms(
                z.copy(), pos_rows, cols, ignore_rows, gamma, sim_mod.FOCAL_ALPHA,
                sim_mod.StepWorkspace(),
            )
            if repr(got[0]) != repr(want[0]) or got[1].tobytes() != want[1].tobytes():
                failures.append(f"map {m} ({n}x{k_c}, {n_pos} positives) at gamma {gamma}")
    missing = [what for what, count in seen.items() if not count]
    if missing:
        failures.append(f"no map drew {missing}")
    return CheckResult(
        "focal_bit_identity",
        not failures,
        f"{len(failures)} mismatches, first: {failures[0]}"
        if failures
        else f"{n_maps} maps x 3 gammas ("
        + ", ".join(f"{count} {what}" for what, count in seen.items())
        + "): loss and gradient bytes equal the reference",
        time.time() - t0,
    )


def _small_training_config() -> ExperimentConfig:
    return config_from_dict(
        {
            "grid": {"x_range": [0.0, 14.4], "z_range": [0.0, 14.4], "cell": [1.2, 1.2]},
            "scene": {"n_objects": [2, 4], "border_margin": 1.8, "class_weights": []},
            "data": {"n_train_scenes": 2, "n_val_scenes": 1},
            "optimizer": {"epochs": 1},
            "seeds": [0],
        }
    )


def extract_logit_map(
    outputs: sim_mod.DetectorOutputs, positions: np.ndarray, k_a: int
) -> cld_mod.LogitMap:
    """LogitMap over the given (sorted) position indices of dense outputs."""
    values = outputs.logits[positions].reshape(-1, outputs.logits.shape[2])
    return cld_mod.LogitMap(values=values, k_a=k_a)


# Training's XGD gradient is a central difference of the IoU with a 1e-3
# box-space step (geometry.DEFAULT_FD_STEPS); the end-to-end differences of
# check_training_grad_fd move the boxes far less.  On a smooth piece of the
# IoU a 1e-6 step gives the same slope to within about 5e-5 (relative l2,
# seed 47's states); a polygon-vertex kink inside the 1e-3 step makes the
# two differ by more.
_FINE_STEPS = np.full(7, 1e-6)
_STEP_AGREEMENT_TOL = 1e-4


def _frozen_scene_loss(params, scene, assignment, teacher, grid, cfg):
    """The loss of one scene as a function of the weights, composed from
    the hard-label ``ori`` of ``total_loss_and_grad`` (both distillation
    weights at 0), xgd_loss and cld_loss, with its distillation targets
    frozen at ``params``.  Its distillation terms read the teacher's dense
    outputs, not the rows that training reads.

    Also returns whether training's XGD step sees the same slope as a
    fine one at ``params`` (no kink inside the step)."""
    pos = assignment.positive_indices
    anchor_params = grid.anchor_params[pos]
    dense_teacher = teacher.dense()
    out = sim_mod.student_forward(params, scene)
    student_boxes = anchors_mod.decode_deltas(out.deltas_flat[pos], anchor_params)
    frozen_targets = xgd_mod.positive_component_update(
        anchors_mod.decode_deltas(dense_teacher.deltas_flat[pos], anchor_params),
        student_boxes,
        scene.boxes[assignment.matched],
        components=cfg.loss.xgd_components,
    )
    coarse = geom.iou3d_grad_fd(student_boxes, frozen_targets)
    fine = geom.iou3d_grad_fd(student_boxes, frozen_targets, _FINE_STEPS)
    steps_agree = np.linalg.norm(coarse - fine) <= _STEP_AGREEMENT_TOL * np.linalg.norm(fine)
    fg = sim_mod.cld_positions(assignment, grid, cfg.loss.cld_region)
    teacher_dist = cld_mod.unified_distribution(
        extract_logit_map(dense_teacher, fg, grid.k_a), cfg.loss.tau
    )
    hard = replace(cfg.loss, xgd_weight=0.0, cld_weight=0.0)

    def loss_of(p: sim_mod.DetectorParams) -> float:
        o = sim_mod.student_forward(p, scene)
        value = sim_mod.total_loss_and_grad(o, teacher, scene, assignment, grid, hard)[0].ori
        boxes = anchors_mod.decode_deltas(o.deltas_flat[pos], anchor_params)
        value += cfg.loss.xgd_weight * xgd_mod.xgd_loss(boxes, frozen_targets)
        student_dist = cld_mod.unified_distribution(
            extract_logit_map(o, fg, grid.k_a), cfg.loss.tau
        )
        value += cfg.loss.cld_weight * cld_mod.cld_loss(teacher_dist, student_dist)
        return value

    return loss_of, steps_agree


def check_training_grad_fd(n_states: int = 5) -> CheckResult:
    """The weight gradients a training step applies vs end-to-end central
    differences.

    Each state is a two-scene minibatch: ``sim._minibatch_grads`` on one
    worker, with the arena training gives it, sums its weight gradients,
    and the finite differences are those of the sum of the scenes'
    reference losses.  Distillation targets are frozen at the probe point
    because gate decisions are piecewise constant: the finite differences
    measure the active smooth piece of the loss, which is the quantity
    the assembled gradient represents.
    Each weight tensor's sampled entries are compared on their own, so a
    small tensor's error is not hidden by a large one's norm.  States whose
    XGD pairs sit at an IoU kink inside training's 1e-3 box-space step are
    skipped, like flagged states: there the two differences measure
    different slopes.
    """
    t0 = time.time()
    cfg = _small_training_config()
    grid = build_anchor_grid(cfg.grid)
    thresholds = cfg.assignment_thresholds()
    rng = np.random.default_rng(47)
    worst = 0.0
    state = 0
    attempt = 0
    while state < n_states:
        attempt += 1
        if attempt > n_states * 20:
            return CheckResult(
                "training_grad_fd", False, "could not find smooth states", time.time() - t0
            )
        scenes = [
            sim_mod.generate_scene(int(rng.integers(1 << 30)), cfg.scene, grid) for _ in range(2)
        ]
        # Rebuilt once: every forward pass below reads these features.
        scenes = [dense_scene(s.boxes, s.class_ids, s.features, s.seed) for s in scenes]
        asgs = [
            anchors_mod.assign_targets(grid, s.boxes, s.class_ids, thresholds, cfg.foreground_dilation)
            for s in scenes
        ]
        if any(a.positive_indices.size == 0 for a in asgs):
            continue
        teachers = [sim_mod.teacher_predict(s, cfg.teacher_noise, grid, a) for s, a in zip(scenes, asgs)]
        batch = list(zip(scenes, asgs, teachers))
        params = sim_mod.DetectorParams.init(int(rng.integers(1 << 30)), 16, grid.k_a, grid.k_c)
        params = sim_mod.DetectorParams(
            params.w_cls + rng.normal(0, 0.05, params.w_cls.shape),
            params.b_cls + rng.normal(0, 0.3, params.b_cls.shape),
            params.w_reg + rng.normal(0, 0.02, params.w_reg.shape),
            params.b_reg + rng.normal(0, 0.02, params.b_reg.shape),
        )
        targets = [sim_mod._scene_targets(s, a, grid, cfg.loss, t) for s, a, t in batch]
        flags = geom.GeometryFlags()
        with closing(sim_mod._SceneWorkers(1, sim_mod._step_arena_floats(grid))) as workers:
            _, grads = sim_mod._minibatch_grads(
                params, [s.features for s in scenes], targets, cfg.loss, flags, workers
            )
        if flags.gradient_clipped or flags.degenerate_union or flags.size_clamped:
            continue  # stay away from flagged non-smooth configurations
        scene_losses, steps_agree = zip(*(_frozen_scene_loss(params, *scene, grid, cfg) for scene in batch))
        if not all(steps_agree):
            continue  # nor from an IoU kink inside training's XGD step

        def loss_of(name: str, w: np.ndarray) -> float:
            p = replace(params, **{name: w})
            return sum(loss(p) for loss in scene_losses)

        h = 1e-5
        for name, grad in zip(("w_cls", "b_cls", "w_reg", "b_reg"), grads):
            w = getattr(params, name)
            picks = rng.choice(w.size, size=min(12, w.size), replace=False)
            fd = []
            for k in picks:
                step = np.zeros(w.size)
                step[k] = h
                step = step.reshape(w.shape)
                fd.append((loss_of(name, w + step) - loss_of(name, w - step)) / (2 * h))
            an_arr, fd_arr = grad.reshape(-1)[picks], np.array(fd)
            rel = np.linalg.norm(an_arr - fd_arr) / max(
                np.linalg.norm(an_arr), np.linalg.norm(fd_arr), 1e-30
            )
            worst = max(worst, rel)
        state += 1
    return CheckResult(
        "training_grad_fd",
        worst < 1e-2,
        f"{n_states} random two-scene batches, worst per-tensor rel l2 err {worst:.2e} (tol 1e-2)",
        time.time() - t0,
    )


def check_threaded_step_bit_identity() -> CheckResult:
    """Training on 2 and 3 workers vs inline training on 1, for every arm
    of the default matrix: the weights' bytes, the loss history and the
    geometry flags must be equal, and every worker thread must be joined.

    The inline run is the oracle.  Batches hold 4 scenes, so 3 workers
    split one 2 + 1 + 1.  The interpreter switches threads every 10 us so
    that they interleave inside the map's items, not only between them.
    """
    t0 = time.time()
    n_train_scenes, epochs = 8, 2
    cfg = _small_training_config()
    cfg = replace(
        cfg,
        data=replace(cfg.data, n_train_scenes=n_train_scenes),
        optimizer=replace(cfg.optimizer, epochs=epochs),
    )
    ds = build_dataset(cfg, 0)
    failures = []
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for arm in default_arm_matrix():
            runs = []
            for cpus in (1, 2, 3):
                flags = geom.GeometryFlags()
                result = sim_mod._train(
                    ds.grid, ds.train_scenes, ds.teacher_train, ds.train_assignments, arm.loss,
                    cfg.optimizer, ds.seed, flags, cpus,
                )
                p = result.params
                weights = b"".join(w.tobytes() for w in (p.w_cls, p.b_cls, p.w_reg, p.b_reg))
                runs.append((weights, repr(result.history), flags))
            inline, *threaded = runs
            for cpus, run in zip((2, 3), threaded):
                for what, want, got in zip(("weights", "history", "flags"), inline, run):
                    if want != got:
                        failures.append(f"{arm.name}: {what} differ on {cpus} workers")
    finally:
        sys.setswitchinterval(interval)
    if threading.active_count() != threads:
        failures.append(f"{threading.active_count() - threads} worker threads not joined")
    return CheckResult(
        "threaded_step_bit_identity",
        not failures,
        "; ".join(failures)
        or f"{len(default_arm_matrix())} arms, {epochs} epochs on {n_train_scenes} scenes: "
        "2 and 3 workers equal 1 worker byte for byte, every thread joined",
        time.time() - t0,
    )


# Every check with the arguments that shrink its sample counts for --fast.
_SUITE = (
    (check_mc_iou_agreement, {"n_pairs": 40}),
    (check_geometry_closed_forms, {}),
    (check_component_update_bruteforce, {"n_cases": 200}),
    (check_gate_soundness, {"n_cases": 10_000}),
    (check_cld_invariants, {}),
    (check_cld_grad_fd, {"n_maps": 20}),
    (check_codec_roundtrip, {"n_cases": 1_000}),
    (check_assignment_bruteforce, {"n_scenes": 1}),
    (check_iou_grad_self_consistency, {"n_cases": 10}),
    (check_clip_kernel_bit_identity, {"n_random": 200}),
    (check_focal_bit_identity, {"n_maps": 50}),
    (check_training_grad_fd, {"n_states": 2}),
    (check_threaded_step_bit_identity, {}),
)


def verify_suite(fast: bool = False) -> list[CheckResult]:
    """Run all oracle-backed checks; `fast` shrinks the sample counts."""
    return [check(**(fast_args if fast else {})) for check, fast_args in _SUITE]
