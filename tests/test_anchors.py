import dataclasses
import math

import numpy as np
import pytest

from boxdistill.anchors import (
    FOREGROUND_DILATION,
    LABEL_IGNORE,
    ClassSpec,
    GridConfig,
    assign_targets,
    build_anchor_grid,
    decode_deltas,
    encode_deltas,
    foreground_mask,
    positive_target_deltas,
)
from boxdistill.geometry import Box3D, GeometryFlags, bev_iou, wrap_angle
from boxdistill.verify import _loop_assignment, assignment_mismatches, random_box, rows


def small_grid(cell=1.0, extent=8.0, classes=None, rotations=(0.0, math.pi / 2)):
    classes = classes or (ClassSpec("box", 1.8, 1.0, 1.0, cy=0.0, pos_iou=0.6, neg_iou=0.45),)
    return build_anchor_grid(
        GridConfig(
            x_range=(0.0, extent),
            z_range=(0.0, extent),
            cell=(cell, cell),
            classes=tuple(classes),
            rotations=rotations,
        )
    )


class TestGridConstruction:
    def test_counting_example(self):
        grid = build_anchor_grid(
            GridConfig(
                x_range=(0, 2),
                z_range=(0, 2),
                cell=(1, 1),
                classes=(ClassSpec("a", 1, 1, 1),),
                rotations=(0.0, math.pi / 2),
            )
        )
        assert grid.n_positions == 4
        assert grid.k_a == 2
        assert grid.n_anchors == 8

    def test_default_synthetic_grid_dimensions(self):
        grid = build_anchor_grid(GridConfig())
        assert (grid.nx, grid.nz, grid.k_a) == (75, 72, 6)
        # brute-force enumeration of cell centers agrees
        expected = 0
        x = -30.0 + 0.4
        while x < 30.0:
            z = 2.0 + 0.4
            while z < 59.6:
                expected += 1
                z += 0.8
            x += 0.8
        assert grid.n_positions == expected

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            build_anchor_grid(GridConfig(x_range=(0, 0.5), cell=(1.0, 1.0)))
        with pytest.raises(ValueError):
            build_anchor_grid(GridConfig(cell=(0.0, 1.0)))
        with pytest.raises(ValueError):
            build_anchor_grid(GridConfig(x_range=(3, 1)))

    def test_anchor_index_layout(self):
        grid = small_grid()
        k_a = grid.k_a
        for iz in (0, 3):
            for ix in (0, 5):
                for a in range(k_a):
                    idx = (iz * grid.nx + ix) * k_a + a
                    box = Box3D.from_array(grid.anchor_params[idx])
                    assert box.cx == pytest.approx(grid.origin[0] + (ix + 0.5) * grid.cell[0])
                    assert box.cz == pytest.approx(grid.origin[1] + (iz + 0.5) * grid.cell[1])

    def test_anchor_centers_inside_range(self):
        grid = build_anchor_grid(GridConfig())
        centers = grid.position_centers
        assert centers[:, 0].min() > -30 and centers[:, 0].max() < 30
        assert centers[:, 1].min() > 2 and centers[:, 1].max() < 59.6

    def test_k_a_is_classes_times_rotations(self):
        grid = build_anchor_grid(GridConfig())
        assert grid.k_a == grid.k_c * 2


def gt_arrays(gts):
    """(n, 7) rows and class ids of (Box3D, class id) pairs."""
    return rows(b for b, _ in gts), np.array([c for _, c in gts], dtype=np.int64)


def assign(grid, gts, thresholds=(0.6, 0.45), dilation=0.5):
    """assign_targets on (Box3D, class id) pairs, with the one (pos_iou,
    neg_iou) pair for every class of the grid."""
    per_class = dict.fromkeys(range(grid.k_c), thresholds)
    return assign_targets(grid, *gt_arrays(gts), per_class, dilation)


class TestCodec:
    def test_identity(self):
        anchor = rows([Box3D(1, 0.5, 10, 3.9, 1.6, 1.56, 0)])
        assert encode_deltas(anchor, anchor).tolist() == [[0.0] * 7]

    def test_log_size_definition(self):
        anchor = rows([Box3D(0, 0, 0, 2, 1, 1, 0)])
        box = rows([Box3D(0, 0, 0, 2 * math.e, 1, 1, 0)])
        assert encode_deltas(box, anchor)[0, 3] == pytest.approx(1.0, abs=1e-12)

    def test_zero_delta_decodes_to_anchor(self):
        anchor = rows([Box3D(2, 1, 5, 1.8, 1.0, 1.2, 0.4)])
        assert np.array_equal(decode_deltas(np.zeros((1, 7)), anchor), anchor)

    def test_pi_delta_wraps(self):
        anchor = rows([Box3D(0, 0, 0, 1, 1, 1, 0)])
        out = decode_deltas(np.array([[0, 0, 0, 0, 0, 0, math.pi]]), anchor)
        assert out[0, 6] == pytest.approx(math.pi)

    def test_round_trip_property(self):
        rng = np.random.default_rng(0)
        pairs = [(random_box(rng), random_box(rng)) for _ in range(10_000)]
        boxes = rows(box for box, _ in pairs)
        anchors = rows(anchor for _, anchor in pairs)
        back = decode_deltas(encode_deltas(boxes, anchors), anchors)
        worst = float(np.max(np.abs(back[:, :6] - boxes[:, :6])))
        for back_yaw, yaw in zip(back[:, 6].tolist(), boxes[:, 6].tolist()):
            worst = max(worst, abs(wrap_angle(back_yaw - yaw)))
        assert worst < 1e-9

    def test_vectorized_matches_scalar(self):
        # Every row of a batch encodes and decodes as a one-row call does.
        rng = np.random.default_rng(1)
        boxes = rows(random_box(rng) for _ in range(50))
        anchors = rows(random_box(rng) for _ in range(50))
        batch = encode_deltas(boxes, anchors)
        decoded = decode_deltas(batch, anchors)
        for i in range(50):
            one = slice(i, i + 1)
            assert np.allclose(batch[i], encode_deltas(boxes[one], anchors[one])[0], atol=1e-12)
            assert np.allclose(decoded[i], decode_deltas(batch[one], anchors[one])[0], atol=1e-12)

    def test_decode_overflow_clamped_and_flagged(self):
        flags = GeometryFlags()
        anchor = rows([Box3D(0, 0, 0, 1, 1, 1, 0)])
        out = decode_deltas(np.array([[0, 0, 0, 50.0, 0, 0, 0]]), anchor, flags)
        assert out[0, 3] == pytest.approx(1e6)
        assert flags.decode_clamped == 1

    def test_encode_rejects_non_positive_box(self):
        anchor = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, -1, 1, 1, 0)
        # Box3D rejects non-positive sizes; the row encoder still rejects
        # them via the log of a non-positive ratio
        with pytest.raises((ValueError, FloatingPointError)):
            with np.errstate(invalid="raise", divide="raise"):
                encode_deltas(
                    np.array([[0, 0, 0, -1.0, 1, 1, 0]]), anchor.as_array()[None, :]
                )


class TestAssignment:
    def test_exact_anchor_match_is_positive(self):
        grid = small_grid()
        gt = Box3D.from_array(grid.anchor_params[20])  # slot 0 of some position
        asg = assign(grid, [(gt, 0)])
        assert asg.positive_indices.size >= 1
        assert asg.matched[list(asg.positive_indices).index(20)] == 0
        assert asg.overlap_iou[list(asg.overlap_indices).index(20)] == pytest.approx(1.0)

    def test_empty_scene_all_negative(self):
        grid = small_grid()
        asg = assign(grid, [])
        # No positive and no ignored anchor: every anchor is negative.
        assert asg.positive_indices.size == 0 and asg.ignore_indices.size == 0
        assert not asg.foreground.any()

    def test_forced_match_between_cells(self):
        grid = small_grid()
        # GT centered between two cells: below pos threshold everywhere,
        # still gets exactly its argmax anchor via the forced match.
        gt = Box3D(3.0, 0.0, 2.5, 1.8, 1.0, 1.0, 0.0)
        asg = assign(grid, [(gt, 0)], thresholds=(0.99, 0.45))
        pos = asg.positive_indices
        assert len(pos) == 1
        # brute-force argmax over every anchor
        ious = np.array([bev_iou(Box3D.from_array(grid.anchor_params[i]), gt) for i in range(grid.n_anchors)])
        assert pos[0] == int(np.argmax(ious))

    def test_matches_are_same_class_only(self):
        grid = small_grid(
            classes=(
                ClassSpec("a", 1.8, 1.0, 1.0, cy=0.0),
                ClassSpec("b", 1.8, 1.0, 1.0, cy=0.0),
            )
        )
        gt = Box3D.from_array(grid.anchor_params[0])  # class 0 template at position 0
        asg = assign(grid, [(gt, 1)])
        slot_classes = grid.slot_class_ids()
        for idx in asg.positive_indices:
            assert slot_classes[idx % grid.k_a] == 1

    def test_threshold_validation(self):
        grid = small_grid()
        with pytest.raises(ValueError):
            assign(grid, [(Box3D.from_array(grid.anchor_params[0]), 0)], thresholds=(0.3, 0.6))

    def test_non_positive_pos_iou_rejected(self):
        # At pos_iou 0 an anchor with no overlap would become positive.
        grid = small_grid()
        gt = [(Box3D.from_array(grid.anchor_params[0]), 0)]
        for thresholds in ((0.0, 0.0), (-0.1, -0.2)):
            with pytest.raises(ValueError, match="must be > 0"):
                assign(grid, gt, thresholds=thresholds)

    def test_ignore_band(self):
        grid = small_grid()
        gt = Box3D(2.7, 0.0, 2.5, 1.8, 1.0, 1.0, 0.0)
        asg = assign(grid, [(gt, 0)], thresholds=(0.9, 0.1))
        assert asg.ignore_indices.size > 0

    def test_determinism_bit_for_bit(self):
        grid = small_grid()
        rng = np.random.default_rng(2)
        gts = [
            (Box3D(rng.uniform(1, 7), 0, rng.uniform(1, 7), 1.8, 1.0, 1.0, rng.uniform(-1, 1)), 0)
            for _ in range(4)
        ]
        a1 = assign(grid, gts)
        a2 = assign(grid, gts)
        for f in dataclasses.fields(a1):
            got, want = getattr(a1, f.name), getattr(a2, f.name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name

    def test_positive_implies_foreground_with_generous_dilation(self):
        rng = np.random.default_rng(3)
        grid = small_grid()
        half_diag = 0.5 * math.hypot(*grid.cell)
        for _ in range(100):
            gts = [
                (
                    Box3D(
                        rng.uniform(1.5, 6.5), 0, rng.uniform(1.5, 6.5),
                        1.8, 1.0, 1.0, rng.uniform(-math.pi, math.pi),
                    ),
                    0,
                )
            ]
            asg = assign(grid, gts, dilation=half_diag)
            for idx in asg.positive_indices:
                assert asg.foreground[idx // grid.k_a]


class TestAssignmentRows:
    def _scene_assignment(self):
        from boxdistill.config import default_config
        from boxdistill.sim import generate_scene

        cfg = default_config()
        grid = build_anchor_grid(cfg.grid)
        scene = generate_scene(0, cfg.scene, grid)
        args = (grid, scene.boxes, scene.class_ids, cfg.assignment_thresholds(), FOREGROUND_DILATION)
        return grid, assign_targets(*args), args

    def test_rows_are_the_dense_views(self):
        # The dense labels and max IoU of the per-anchor loop, as rows.
        grid, asg, args = self._scene_assignment()
        labels, max_iou = _loop_assignment(*args)
        assert labels.shape == max_iou.shape == (grid.n_anchors,)
        assert np.array_equal(asg.positive_indices, np.flatnonzero(labels >= 0))
        assert np.array_equal(asg.matched, labels[asg.positive_indices])
        assert np.array_equal(asg.ignore_indices, np.flatnonzero(labels == LABEL_IGNORE))
        assert np.array_equal(asg.overlap_indices, np.flatnonzero(max_iou))
        assert np.array_equal(asg.overlap_iou, max_iou[asg.overlap_indices])
        # Every positive and every ignored anchor overlaps its ground truth.
        held = np.concatenate([asg.positive_indices, asg.ignore_indices])
        assert set(held.tolist()) <= set(asg.overlap_indices.tolist())
        assert asg.positive_indices.size > 0 and asg.ignore_indices.size > 0
        # The rows hold far fewer entries than the grid has anchors.
        assert asg.overlap_indices.size < grid.n_anchors // 20

    def test_rows_are_read_only(self):
        _, asg, _ = self._scene_assignment()
        for arr in (
            asg.positive_indices, asg.matched, asg.ignore_indices,
            asg.overlap_indices, asg.overlap_iou, asg.foreground,
        ):
            with pytest.raises(ValueError):
                arr[:1] = 0

    def test_mismatched_rows_rejected(self):
        _, asg, _ = self._scene_assignment()
        with pytest.raises(ValueError, match="one matched index or IoU"):
            dataclasses.replace(asg, matched=asg.matched[:-1].copy())
        with pytest.raises(ValueError, match="one matched index or IoU"):
            dataclasses.replace(asg, overlap_iou=asg.overlap_iou[:-1].copy())


class TestForegroundMask:
    def test_no_gts_empty(self):
        grid = small_grid()
        assert foreground_mask(grid, np.zeros((0, 7)), 0.5).sum() == 0

    def test_single_cell_zero_dilation(self):
        grid = small_grid()
        # footprint covering exactly one cell center
        gt = Box3D(2.5, 0.0, 3.5, 0.9, 0.9, 1.0, 0.0)
        mask = foreground_mask(grid, rows([gt]), dilation=0.0)
        assert mask.sum() == 1

    def test_matches_bruteforce_point_in_polygon(self):
        rng = np.random.default_rng(4)
        grid = small_grid()
        for _ in range(20):
            gts = [
                (
                    Box3D(
                        rng.uniform(1, 7), 0, rng.uniform(1, 7),
                        *np.exp(rng.uniform(-0.3, 0.7, 3)), rng.uniform(-math.pi, math.pi),
                    ),
                    0,
                )
                for _ in range(3)
            ]
            dilation = float(rng.uniform(0, 1))
            mask = foreground_mask(grid, rows(gt for gt, _ in gts), dilation)
            centers = grid.position_centers
            for p in range(grid.n_positions):
                px, pz = centers[p]
                inside = False
                for gt, _ in gts:
                    c, s = math.cos(gt.yaw), math.sin(gt.yaw)
                    dx, dz = px - gt.cx, pz - gt.cz
                    u = dx * c + dz * s
                    v = -dx * s + dz * c
                    if abs(u) <= gt.l / 2 + dilation and abs(v) <= gt.w / 2 + dilation:
                        inside = True
                        break
                assert mask[p] == inside

    def test_negative_dilation_rejected(self):
        for dilation in (-0.1, math.nan):
            with pytest.raises(ValueError):
                foreground_mask(small_grid(), np.zeros((0, 7)), dilation=dilation)


class TestPositiveTargets:
    def test_exact_gt_gives_zero_deltas_at_its_anchor(self):
        grid = small_grid()
        gt = Box3D.from_array(grid.anchor_params[40])
        asg = assign(grid, [(gt, 0)])
        pos, deltas = positive_target_deltas(grid, asg, rows([gt]))
        row = list(pos).index(40)
        assert np.allclose(deltas[row], 0.0, atol=1e-12)

    def test_empty(self):
        grid = small_grid()
        asg = assign(grid, [])
        pos, deltas = positive_target_deltas(grid, asg, np.zeros((0, 7)))
        assert pos.size == 0 and deltas.shape == (0, 7)

    def test_decode_recovers_gt(self):
        grid = small_grid()
        rng = np.random.default_rng(5)
        gts = [
            (Box3D(rng.uniform(2, 6), 0.1, rng.uniform(2, 6), 1.9, 1.1, 1.0, 0.3), 0),
        ]
        asg = assign(grid, gts)
        pos, deltas = positive_target_deltas(grid, asg, gt_arrays(gts)[0])
        decoded = decode_deltas(deltas, grid.anchor_params[pos])
        for g, row in zip(asg.matched, decoded):
            gt = gts[g][0]
            assert np.allclose(row[:6], gt.as_array()[:6], atol=1e-9)
            assert abs(wrap_angle(row[6] - gt.yaw)) < 1e-9


class TestBatchedAssignment:
    @pytest.mark.parametrize("n_objects", [None, (16, 24)])
    def test_matches_seed_loop(self, n_objects):
        from boxdistill.config import default_config
        from boxdistill.sim import generate_scene

        cfg = default_config()
        scene_cfg = cfg.scene
        if n_objects is not None:
            scene_cfg = dataclasses.replace(scene_cfg, n_objects=n_objects)
        grid = build_anchor_grid(cfg.grid)
        thresholds = cfg.assignment_thresholds()
        for seed in range(3):
            scene = generate_scene(seed, scene_cfg, grid)
            problems = assignment_mismatches(
                grid, scene.boxes, scene.class_ids, thresholds, FOREGROUND_DILATION
            )
            assert not problems, (seed, problems)

    def test_matches_seed_loop_on_ties(self):
        # GTs sitting exactly on anchors, and two identical GTs, exercise the
        # tie-to-first-gt and forced-match rules.
        grid = small_grid()
        gts = [(Box3D.from_array(grid.anchor_params[i]), 0) for i in (20, 20, 41)]
        gts.append((Box3D(3.0, 0.0, 2.5, 1.8, 1.0, 1.0, 0.0), 0))
        for thresholds in ((0.6, 0.45), (0.99, 0.1)):
            problems = assignment_mismatches(grid, *gt_arrays(gts), {0: thresholds}, 0.5)
            assert not problems, (thresholds, problems)
