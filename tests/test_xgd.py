import math

import numpy as np
import pytest

from boxdistill.anchors import decode_deltas
from boxdistill.geometry import Box3D, GeometryFlags, iou3d, wrap_angle
from boxdistill.verify import random_box, reference_gate_decisions, rows
from boxdistill.xgd import (
    gate_decisions,
    gate_keep_rates,
    positive_component_update,
    xgd_loss,
    xgd_loss_and_grad,
    xgd_loss_grad,
)


def one_row_verdicts(student, teacher, gt):
    """gate_decisions on one row whose center and size take the steps of
    the given 3-vectors and whose yaw is the student's."""

    def row(v):
        v = np.asarray(v, dtype=float)
        return np.r_[v, v + 1.0, 0.0][None, :]

    return gate_decisions(row(teacher), row(student), row(gt))[0].tolist()


class TestComponentGate:
    # A yaw step of zero is a teacher step under the epsilon: always kept.
    def test_collinear_toward_gt(self):
        assert one_row_verdicts(np.zeros(3), [0.5, 0, 0], [1.0, 0, 0]) == [True, True, True]

    def test_opposite_direction(self):
        assert one_row_verdicts(np.zeros(3), [-0.5, 0, 0], [1.0, 0, 0]) == [False, False, True]

    def test_orthogonal_boundary_is_dropped(self):
        assert one_row_verdicts(np.zeros(3), [0, 1.0, 0], [1.0, 0, 0]) == [False, False, True]

    def test_teacher_equals_student_is_noop_keep(self):
        assert one_row_verdicts(np.ones(3), np.ones(3), [2.0, 2.0, 2.0]) == [True, True, True]

    def test_gt_equals_student_disables(self):
        assert one_row_verdicts(np.ones(3), [5.0, 1, 1], np.ones(3)) == [False, False, True]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            one_row_verdicts([np.nan, 0, 0], np.zeros(3), np.zeros(3))

    def test_angle_gate_wrap_robustness(self):
        # Same geometric configuration expressed across the wrap boundary
        # must gate identically.
        center_kept, size_kept, angle_kept = gate_decisions(
            rows([Box3D(0, 0, 0, 1, 1, 1, math.pi - 0.05)]),
            rows([Box3D(0, 0, 0, 1, 1, 1, -math.pi + 0.1)]),
            rows([Box3D(0, 0, 0, 1, 1, 1, math.pi - 0.2)]),
        )[0]
        # teacher step: wrap(pi-0.05 - (-pi+0.1)) = -0.15; gt step: wrap(pi-0.2 + pi-0.1) = -0.3
        assert angle_kept


class TestPositiveComponentUpdate:
    def test_perfect_teacher_yields_gt(self):
        rng = np.random.default_rng(2)
        gt = [random_box(rng) for _ in range(5)]
        teacher = list(gt)
        student = [random_box(rng) for _ in range(5)]
        out = positive_component_update(rows(teacher), rows(student), rows(gt))
        assert np.array_equal(out, rows(gt))

    def test_mixed_components(self):
        student = [Box3D(0, 0, 0, 1, 1, 1, 0.0)]
        gt = [Box3D(1, 0, 0, 2, 2, 2, 0.5)]
        # teacher center toward gt, size away from gt, angle toward gt
        teacher = [Box3D(0.5, 0, 0, 0.5, 0.5, 0.5, 0.3)]
        out = positive_component_update(rows(teacher), rows(student), rows(gt))[0]
        assert out[0:3].tolist() == [0.5, 0.0, 0.0]  # teacher center kept
        assert out[3:6].tolist() == [1.0, 1.0, 1.0]  # student size kept
        assert out[6] == pytest.approx(0.3)  # teacher angle kept

    def test_component_restriction(self):
        rng = np.random.default_rng(4)
        gt = [random_box(rng)]
        teacher = list(gt)
        student = [random_box(rng)]
        out = positive_component_update(
            rows(teacher), rows(student), rows(gt), components=("center",)
        )[0]
        assert np.array_equal(out[0:3], gt[0].as_array()[0:3])
        assert np.array_equal(out[3:7], student[0].as_array()[3:7])

    def test_rejects_unknown_component(self):
        with pytest.raises(ValueError):
            positive_component_update(*[np.zeros((0, 7))] * 3, components=("centre",))

    def test_rejects_length_mismatch(self):
        box = rows([Box3D(0, 0, 0, 1, 1, 1, 0)])
        with pytest.raises(ValueError):
            positive_component_update(box, np.vstack([box, box]), box)

    def test_harmless_disable_leaves_student_components(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            student = [random_box(rng)]
            gt = [random_box(rng)]
            # teacher anti-aligned on every component
            s, g = student[0], gt[0]
            t = Box3D(
                2 * s.cx - g.cx, 2 * s.cy - g.cy, 2 * s.cz - g.cz,
                max(1e-3, 2 * s.l - g.l), max(1e-3, 2 * s.w - g.w), max(1e-3, 2 * s.h - g.h),
                wrap_angle(s.yaw - wrap_angle(g.yaw - s.yaw) / 2),
            )
            out = positive_component_update(rows([t]), rows(student), rows(gt))[0]
            center_kept, size_kept, angle_kept = gate_decisions(rows([t]), rows(student), rows(gt))[0]
            if not center_kept:
                assert np.array_equal(out[0:3], s.as_array()[0:3])
            if not size_kept:
                assert np.array_equal(out[3:6], s.as_array()[3:6])
            if not angle_kept:
                assert out[6] == s.yaw

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        n = 6
        student = rows([random_box(rng) for _ in range(n)])
        teacher = rows([random_box(rng) for _ in range(n)])
        gt = rows([random_box(rng) for _ in range(n)])
        base = positive_component_update(teacher, student, gt)
        perm = rng.permutation(n)
        permuted = positive_component_update(teacher[perm], student[perm], gt[perm])
        assert np.array_equal(permuted, base[perm])
        assert xgd_loss(student, base) == pytest.approx(
            xgd_loss(student[perm], permuted), abs=1e-12
        )


class TestXgdLoss:
    def test_zero_at_targets(self):
        rng = np.random.default_rng(7)
        boxes = rows([random_box(rng) for _ in range(4)])
        assert xgd_loss(boxes, boxes) == 0.0

    def test_empty_sum(self):
        assert xgd_loss(np.zeros((0, 7)), np.zeros((0, 7))) == 0.0

    def test_two_pair_arithmetic(self):
        students = rows([Box3D(0, 0, 0, 1, 1, 1, 0), Box3D(5, 0, 5, 1, 1, 1, 0)])
        targets = rows([Box3D(0.5, 0, 0, 1, 1, 1, 0), Box3D(5, 0, 5, 1, 1, 1, 0)])
        assert xgd_loss(students, targets) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rows_equal_box_form(self):
        # One batched call sums the scalar iou3d terms of the Box3D pairs.
        rng = np.random.default_rng(17)
        students = [random_box(rng) for _ in range(40)]
        targets = [
            Box3D.from_array(s.as_array() + rng.normal(0, 0.2, 7)) if i % 4 else s
            for i, s in enumerate(students)
        ]
        flags_rows, flags_boxes = GeometryFlags(), GeometryFlags()
        got = xgd_loss(rows(students), rows(targets), flags_rows)
        assert got == sum(1.0 - iou3d(s, t, flags_boxes) for s, t in zip(students, targets))
        assert flags_rows == flags_boxes

    def test_groups_equal_separate_calls(self):
        # Summing a slice of one batched call's terms equals xgd_loss on the
        # slice, empty slices included: the per-scene split of training.
        rng = np.random.default_rng(19)
        students = np.array([random_box(rng).as_array() for _ in range(12)])
        targets = students + np.concatenate([rng.normal(0, 0.2, (12, 3)), np.zeros((12, 4))], axis=1)
        bounds = np.cumsum([0, 5, 0, 3, 4])
        terms = (1.0 - iou3d(students, targets)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            got = sum(terms[lo:hi]) if hi > lo else 0.0
            assert got == xgd_loss(students[lo:hi], targets[lo:hi])
        assert sum(terms) == xgd_loss(students, targets)


class TestXgdLossGrad:
    def test_zero_at_minimum(self):
        anchor = rows([Box3D(0, 0, 0, 1.8, 1.0, 1.2, 0.0)])
        target = anchor.copy()
        grad = xgd_loss_grad(np.zeros((1, 7)), anchor, target)
        assert np.all(np.abs(grad[0, :3]) < 1e-6)

    def test_offset_cube_sign(self):
        anchor = rows([Box3D(0, 0, 0, 1, 1, 1, 0)])
        target = rows([Box3D(0.5, 0, 0, 1, 1, 1, 0)])
        grad = xgd_loss_grad(np.zeros((1, 7)), anchor, target)
        # moving the student toward +x lowers the loss
        assert grad[0, 0] < 0

    def test_matches_end_to_end_fd(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 10:
            anchors = np.array([random_box(rng).as_array() for _ in range(3)])
            deltas = rng.normal(0, 0.05, size=(3, 7))
            boxes = decode_deltas(deltas, anchors)
            targets = rows(
                Box3D.from_array(
                    row + np.concatenate([rng.normal(0, 0.1, 3), np.zeros(3), rng.normal(0, 0.1, 1)])
                )
                for row in boxes
            )
            if np.any(iou3d(boxes, targets) < 0.2):
                continue
            analytic = xgd_loss_grad(deltas, anchors, targets)
            h = 1e-4
            fd = np.zeros_like(deltas)
            for i in range(3):
                for j in range(7):
                    up, dn = deltas.copy(), deltas.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    lu = xgd_loss(decode_deltas(up, anchors), targets)
                    ld = xgd_loss(decode_deltas(dn, anchors), targets)
                    fd[i, j] = (lu - ld) / (2 * h)
            rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-2, rel
            checked += 1

    def test_gradient_clip_flagged(self, monkeypatch):
        # Central differences of a [0,1]-bounded value are capped at
        # 0.5/step, below the 10/step clip, so the guard can only fire on
        # a pathological gradient; inject one to prove the wiring.
        import boxdistill.xgd as xgd_mod

        monkeypatch.setattr(
            xgd_mod,
            "iou3d_and_grad_fd",
            lambda a, b, **k: (np.zeros(len(a)), np.full(np.shape(a), 1e9)),
        )
        flags = GeometryFlags()
        anchor = rows([Box3D(0, 0, 0, 1, 1, 1, 0)])
        target = rows([Box3D(0.2, 0, 0, 1, 1, 1, 0)])
        grad = xgd_loss_grad(np.zeros((1, 7)), anchor, target, flags=flags)
        assert flags.gradient_clipped == 7
        assert np.all(np.isfinite(grad))
        assert np.max(np.abs(grad[0][:3])) <= 1e4 * np.hypot(1, 1) + 1e-9

    def test_empty(self):
        grad = xgd_loss_grad(np.zeros((0, 7)), np.zeros((0, 7)), np.zeros((0, 7)))
        assert grad.shape == (0, 7)

    def test_groups_and_decoded_rows_equal_separate_calls(self):
        rng = np.random.default_rng(23)
        anchors = np.array([random_box(rng).as_array() for _ in range(9)])
        deltas = rng.normal(0, 0.05, size=(9, 7))
        decoded = decode_deltas(deltas, anchors)
        targets = decoded + np.concatenate([rng.normal(0, 0.1, (9, 3)), np.zeros((9, 4))], axis=1)
        sizes = [2, 4, 0, 3]
        bounds = np.cumsum([0] + sizes)
        got = xgd_loss_grad(deltas, anchors, targets, student_rows=decoded)
        want = np.concatenate(
            [
                xgd_loss_grad(deltas[lo:hi], anchors[lo:hi], targets[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
        )
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            xgd_loss_grad(deltas, anchors, targets, student_rows=decoded[:3])


def slice_sums(terms, sizes):
    """Per-slice sums of the per-pair terms, zero for an empty slice."""
    terms = terms.tolist()
    bounds = np.cumsum([0] + list(sizes))
    return [sum(terms[lo:hi]) if hi > lo else 0.0 for lo, hi in zip(bounds[:-1], bounds[1:])]


class TestXgdLossAndGrad:
    def test_equals_the_separate_calls(self):
        # Slices, identical pairs, clamped decodes and vertically disjoint
        # pairs: each slice of the one-clip terms sums to xgd_loss on the
        # slice.  The gradient is checked by test_matches_end_to_end_fd.
        rng = np.random.default_rng(23)
        n = 30
        anchors = np.array([random_box(rng).as_array() for _ in range(n)])
        deltas = rng.normal(0, 0.3, (n, 7))
        deltas[::7, 3] = 14.0  # past the decode cap
        students = decode_deltas(deltas, anchors)
        targets = students + np.concatenate([rng.normal(0, 0.3, (n, 3)), np.zeros((n, 4))], axis=1)
        targets[::5] = students[::5]
        targets[1::6, 1] += 10.0
        sizes = [12, 0, 7, 11]
        bounds = np.cumsum([0] + sizes)
        terms, _ = xgd_loss_and_grad(deltas, anchors, targets)
        assert terms.shape == (n,)
        flags = GeometryFlags()
        want_rows = decode_deltas(deltas, anchors, flags)
        want = [
            xgd_loss(want_rows[lo:hi], targets[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        assert slice_sums(terms, sizes) == want
        assert flags.decode_clamped > 0

    def test_empty_groups(self):
        empty = np.zeros((0, 7))
        terms, grad = xgd_loss_and_grad(empty, empty, empty)
        assert terms.shape == (0,) and grad.shape == (0, 7)
        assert slice_sums(terms, [0, 0]) == [0.0, 0.0]
        with pytest.raises(ValueError):
            xgd_loss_and_grad(empty, empty, np.zeros((1, 7)))


class TestGateKeepRates:
    def test_empty_is_nothing_gated(self):
        assert gate_keep_rates([]) == {}

    def test_rates_counted(self):
        rng = np.random.default_rng(9)
        gt = rows([random_box(rng) for _ in range(4)])
        decisions = gate_decisions(gt, rows([random_box(rng) for _ in range(4)]), gt)
        rates = gate_keep_rates(decisions)
        assert rates == {"center": 1.0, "size": 1.0, "angle": 1.0}


class TestArrayGate:
    def test_equals_scalar_gate_on_training_positives(self, monkeypatch):
        import dataclasses

        import boxdistill.sim as sim_mod
        from boxdistill.config import DataConfig, default_config
        from boxdistill.experiments import build_dataset, train_on_dataset

        calls = []
        original = sim_mod.gate_decisions

        def recording(teacher, student, gt):
            calls.append((teacher.copy(), student.copy(), gt.copy()))
            return original(teacher, student, gt)

        monkeypatch.setattr(sim_mod, "gate_decisions", recording)
        cfg = default_config()
        cfg = dataclasses.replace(
            cfg,
            data=DataConfig(n_train_scenes=4, n_val_scenes=1),
            optimizer=dataclasses.replace(cfg.optimizer, epochs=3),
        )
        train_on_dataset(build_dataset(cfg, 0), cfg.loss, cfg)
        assert len(calls) == 3  # one per minibatch: 3 epochs of one 4-scene batch
        n_boxes = 0
        dropped = 0
        for teacher, student, gt in calls:
            got = original(teacher, student, gt)
            want = reference_gate_decisions(teacher, student, gt)
            assert got.dtype == bool and np.array_equal(got, want)
            n_boxes += len(teacher)
            dropped += int((~got).sum())
        assert n_boxes > 0 and dropped > 0

    def test_equals_scalar_gate_on_degenerate_cases(self):
        rng = np.random.default_rng(10)
        base = np.array([random_box(rng).as_array() for _ in range(8)])
        rows = []
        for s in base:
            t = random_box(rng).as_array()
            g = random_box(rng).as_array()
            tiny = 1e-11 * rng.normal(size=7)
            rows += [
                (s.copy(), s, g),  # teacher == student: t_norm = 0
                (s + tiny, s, g),  # t_norm < eps, nonzero
                (t, s, s.copy()),  # gt == student: g_norm = 0
                (t, s, s + tiny),  # g_norm < eps, nonzero
                (s + tiny, s, s - tiny),  # both below eps
            ]
        # Orthogonal steps (cos_beta exactly 0) and yaws across the wrap.
        s = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, math.pi - 0.01])
        rows.append((s + [1.0, 0, 0, 0, 1.0, 0, 0], s, s + [0, 1.0, 0, 0, 0, 1.0, 0]))
        for t_yaw, g_yaw in (
            (-math.pi + 0.02, -math.pi + 0.05),  # both steps cross +pi
            (-math.pi + 0.02, math.pi - 0.5),  # opposite directions
            (math.pi, -math.pi + 1e-12),
            (-math.pi + 0.01, s[6]),  # gt yaw equals the student's
        ):
            rows.append((np.r_[s[:6], wrap_angle(t_yaw)], s, np.r_[s[:6] + 0.3, wrap_angle(g_yaw)]))
        # Near-orthogonal center steps, where the rounding of the dot
        # product decides the verdict.
        for _ in range(200):
            s = np.r_[0.0, 0.0, 0.0, random_box(rng).as_array()[3:]]
            t_step, g_step = rng.normal(size=3), rng.normal(size=3)
            g_step[2] = -(t_step[0] * g_step[0] + t_step[1] * g_step[1]) / t_step[2]
            rows.append((np.r_[t_step, s[3:]], s, np.r_[g_step, s[3:]]))
        teacher, student, gt = (np.array(col) for col in zip(*rows))
        got = gate_decisions(teacher, student, gt)
        assert np.array_equal(got, reference_gate_decisions(teacher, student, gt))
        assert got[:, 0].any() and not got[:, 0].all()

    def test_rejects_non_finite_and_misaligned(self):
        box = np.array([[0.0, 0, 0, 1, 1, 1, 0]])
        with pytest.raises(ValueError, match="finite"):
            gate_decisions(box, box, np.array([[np.nan, 0, 0, 1, 1, 1, 0]]))
        with pytest.raises(ValueError, match="lengths differ"):
            gate_decisions(box, np.vstack([box, box]), box)
