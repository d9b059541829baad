import math

import numpy as np
import pytest

from boxdistill.anchors import ClassSpec, GridConfig, build_anchor_grid, encode_deltas
from boxdistill.evaluation import (
    Detection,
    EvalSettings,
    decode_and_nms,
    evaluate_class,
    evaluate_outputs,
)
from boxdistill.geometry import Box3D, bev_iou
from boxdistill.sim import DetectorOutputs


def tiny_grid():
    return build_anchor_grid(
        GridConfig(
            x_range=(0.0, 6.0),
            z_range=(0.0, 6.0),
            cell=(1.0, 1.0),
            classes=(ClassSpec("box", 1.8, 1.0, 1.0, cy=0.0),),
            rotations=(0.0,),
        )
    )


def outputs_with(grid, raised):
    """All-background outputs with (anchor_index, class, logit, box) raised."""
    logits = np.full((grid.n_positions, grid.k_a, grid.k_c), -10.0)
    deltas = np.zeros((grid.n_positions, grid.k_a, 7))
    flat_l = logits.reshape(-1, grid.k_c)
    flat_d = deltas.reshape(-1, 7)
    for anchor_idx, class_id, logit, box in raised:
        flat_l[anchor_idx, class_id] = logit
        if box is not None:
            flat_d[anchor_idx] = encode_deltas(
                box.as_array()[None, :], grid.anchor_params[anchor_idx][None, :]
            )[0]
    return DetectorOutputs(logits=logits, deltas=deltas)


def det(x, z, score, class_id=0, anchor_index=-1, l=1.8, w=1.0, h=1.0):
    return Detection(Box3D(x, 0, z, l, w, h, 0.0), class_id, score, anchor_index)


class TestDecodeAndNms:
    def test_all_background_with_high_threshold(self):
        grid = tiny_grid()
        out = outputs_with(grid, [])
        assert decode_and_nms(out, grid, EvalSettings(score_threshold=0.6)) == []

    def test_single_dominant_anchor(self):
        grid = tiny_grid()
        box = Box3D(2.5, 0.0, 2.5, 1.8, 1.0, 1.0, 0.1)
        out = outputs_with(grid, [(14, 0, 4.0, box)])
        dets = decode_and_nms(out, grid, EvalSettings(score_threshold=0.5))
        assert len(dets) == 1
        assert dets[0].anchor_index == 14
        assert np.allclose(dets[0].box.as_array(), box.as_array(), atol=1e-9)

    def test_duplicates_suppressed(self):
        grid = tiny_grid()
        box = Box3D(2.5, 0.0, 2.5, 1.8, 1.0, 1.0, 0.0)
        # two anchors decode to the same box with different scores
        out = outputs_with(grid, [(14, 0, 4.0, box), (15, 0, 3.0, box)])
        dets = decode_and_nms(out, grid, EvalSettings(score_threshold=0.5, nms_iou=0.5))
        assert len(dets) == 1
        assert dets[0].anchor_index == 14  # higher score wins

    def test_matches_bruteforce_suppression(self):
        grid = tiny_grid()
        rng = np.random.default_rng(0)
        raised = []
        for k in range(25):
            anchor = int(rng.integers(0, grid.n_anchors))
            box = Box3D(
                rng.uniform(1, 5), 0.0, rng.uniform(1, 5),
                1.8 * math.exp(rng.normal(0, 0.2)), 1.0, 1.0, rng.uniform(-1, 1),
            )
            raised.append((anchor, 0, rng.uniform(0.5, 5.0), box))
        out = outputs_with(grid, raised)
        got = decode_and_nms(out, grid, EvalSettings(score_threshold=0.3, nms_iou=0.4))

        # brute force: same candidate construction, O(n^2) suppression
        from boxdistill.sim import sigmoid

        scores = sigmoid(out.logits_flat)
        cand = np.flatnonzero(scores[:, 0] > 0.3)
        order = np.lexsort((cand, -scores[cand, 0]))
        cand = cand[order][:256]
        from boxdistill.anchors import decode_deltas

        boxes = [Box3D.from_array(p) for p in decode_deltas(out.deltas_flat[cand], grid.anchor_params[cand])]
        keep = []
        for i in range(len(boxes)):
            if all(bev_iou(boxes[i], boxes[j]) <= 0.4 for j in keep):
                keep.append(i)
        want = [(int(cand[i]), round(float(scores[cand[i], 0]), 12)) for i in keep]
        assert [(d.anchor_index, round(d.score, 12)) for d in got] == want

    def test_score_tie_broken_by_anchor_index(self):
        grid = tiny_grid()
        b1 = Box3D(1.5, 0.0, 1.5, 1.8, 1.0, 1.0, 0.0)
        b2 = Box3D(4.5, 0.0, 4.5, 1.8, 1.0, 1.0, 0.0)
        out = outputs_with(grid, [(20, 0, 2.0, b2), (3, 0, 2.0, b1)])
        dets = decode_and_nms(out, grid, EvalSettings(score_threshold=0.5))
        assert [d.anchor_index for d in dets] == [3, 20]

    def test_logits_straddling_the_threshold(self):
        # Scores one ulp either side of the threshold, and logits around the
        # pre-threshold floor, pick the same candidates as sigmoid over all.
        from boxdistill.sim import sigmoid

        grid = build_anchor_grid(
            GridConfig(
                x_range=(0.0, 16.0),
                z_range=(0.0, 16.0),
                cell=(1.0, 1.0),
                classes=(ClassSpec("box", 1.8, 1.0, 1.0, cy=0.0),),
                rotations=(0.0,),
            )
        )
        rng = np.random.default_rng(11)
        for thr in (0.1, 0.5, 1e-6, 1.0 - 1e-12, 0.0, 1.0):
            if 0.0 < thr < 1.0:
                edge = math.log(thr) - math.log1p(-thr)
                step = np.spacing(max(1.0, abs(edge)))
                near = edge + np.concatenate(
                    [np.arange(-40, 41) * step, rng.uniform(-1.5, 0.5, 40)]
                )
            else:
                near = rng.uniform(-50, 50, 120)
            logits = np.full((grid.n_positions, grid.k_a, grid.k_c), -30.0)
            flat = logits.reshape(-1, grid.k_c)
            flat[: near.size, 0] = near
            outputs = DetectorOutputs(logits=logits, deltas=np.zeros((grid.n_positions, grid.k_a, 7)))
            settings = EvalSettings(score_threshold=thr, nms_iou=1.0, pre_nms_top_k=10_000)
            dets = decode_and_nms(outputs, grid, settings)
            scores = sigmoid(flat[:, 0])
            want = np.flatnonzero(scores > thr)
            assert sorted(d.anchor_index for d in dets) == want.tolist(), thr
            assert all(d.score == scores[d.anchor_index] for d in dets)
            if 0.0 < thr < 1.0:
                assert 0 < want.size < near.size, thr  # the case straddles

    def test_invalid_parameters_rejected(self):
        grid = tiny_grid()
        out = outputs_with(grid, [])
        # The settings object checks the ranges; decode_and_nms trusts it.
        with pytest.raises(ValueError):
            decode_and_nms(out, grid, EvalSettings(score_threshold=1.5))
        with pytest.raises(ValueError):
            decode_and_nms(out, grid, EvalSettings(nms_iou=0.0))

    def test_pre_nms_top_k_below_one_rejected(self):
        # 0 used to return no detections and -1 to drop each class's
        # lowest-ranked candidate, both silently.
        grid = tiny_grid()
        out = outputs_with(grid, [(i, 0, 3.0, None) for i in (0, 14, 28)])
        assert len(decode_and_nms(out, grid, EvalSettings(pre_nms_top_k=1))) == 1
        for k in (0, -1):
            with pytest.raises(ValueError, match="pre_nms_top_k"):
                decode_and_nms(out, grid, EvalSettings(pre_nms_top_k=k))


class TestApR40:
    def test_single_match_is_one(self):
        gts = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 0)]
        dets = [det(2, 2, 0.9)]
        assert evaluate_class([dets], [gts], class_id=0, iou_threshold=0.5).ap == 1.0

    def test_no_detections_is_zero(self):
        gts = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 0)]
        assert evaluate_class([[]], [gts], class_id=0, iou_threshold=0.5).ap == 0.0

    def test_tp_above_fp_hand_trace(self):
        # one GT; TP at score 0.9, FP at score 0.8: precision is 1 at every
        # achieved recall point, so AP stays 1.
        gts = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 0)]
        dets = [det(2, 2, 0.9), det(5, 5, 0.8)]
        assert evaluate_class([dets], [gts], class_id=0, iou_threshold=0.5).ap == 1.0

    def test_fp_above_tp_hand_trace(self):
        # FP outranks the TP: precision at full recall is 1/2, and the
        # interpolated precision at every recall position is 1/2.
        gts = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 0)]
        dets = [det(5, 5, 0.95), det(2, 2, 0.8)]
        assert evaluate_class([dets], [gts], class_id=0, iou_threshold=0.5).ap == pytest.approx(0.5)

    def test_half_recall_hand_trace(self):
        # two GTs, one detected: recall tops out at 1/2, precision 1.
        gts = [
            (Box3D(1.5, 0, 1.5, 1.8, 1.0, 1.0, 0), 0),
            (Box3D(5, 0, 5, 1.8, 1.0, 1.0, 0), 0),
        ]
        dets = [det(1.5, 1.5, 0.9)]
        # 20 of 40 recall positions are reachable
        assert evaluate_class([dets], [gts], class_id=0, iou_threshold=0.5).ap == pytest.approx(0.5)

    def test_each_gt_matched_once(self):
        gts = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 0)]
        dets = [det(2, 2, 0.9), det(2, 2, 0.8)]  # duplicate detection
        res = evaluate_class([dets], [gts], 0, 0.5)
        assert res.tp == 1 and res.fp == 1

    def test_zero_gt_zero_det_is_one_flagged(self):
        res = evaluate_class([[]], [[]], 0, 0.5)
        assert res.ap == 1.0 and res.degenerate

    def test_zero_gt_with_detections_is_zero_flagged(self):
        res = evaluate_class([[det(2, 2, 0.9)]], [[]], 0, 0.5)
        assert res.ap == 0.0 and res.degenerate

    def test_class_filtering(self):
        gts = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 1)]
        dets = [det(2, 2, 0.9, class_id=0)]
        assert evaluate_class([dets], [gts], class_id=1, iou_threshold=0.5).ap == 0.0

    def test_adding_top_scoring_tp_never_decreases_ap(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            gts = [
                (Box3D(rng.uniform(0, 20), 0, rng.uniform(0, 20), 1.8, 1.0, 1.0, 0), 0)
                for _ in range(4)
            ]
            dets = []
            for g, _ in gts[:2]:
                if rng.uniform() < 0.7:
                    dets.append(det(g.cx, g.cz, float(rng.uniform(0.3, 0.8))))
            for _ in range(int(rng.integers(0, 3))):
                dets.append(det(rng.uniform(30, 40), rng.uniform(30, 40), float(rng.uniform(0.3, 0.8))))
            base = evaluate_class([dets], [gts], 0, 0.5).ap
            unmatched = gts[2][0]
            improved = dets + [det(unmatched.cx, unmatched.cz, 0.99)]
            assert evaluate_class([improved], [gts], 0, 0.5).ap >= base - 1e-12

    def test_pooling_across_scenes(self):
        gts1 = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 0)]
        gts2 = [(Box3D(3, 0, 3, 1.8, 1.0, 1.0, 0), 0)]
        dets1 = [det(2, 2, 0.9)]
        dets2 = [det(30, 30, 0.95)]  # FP in scene 2 outranking scene 1's TP
        res = evaluate_class([dets1, dets2], [gts1, gts2], 0, 0.5)
        # recall 1/2 at precision 1/2; interpolated precision 0.5 for the
        # first 20 positions, 0 beyond
        assert res.ap == pytest.approx(0.25)
        assert res.n_gt == 2 and res.tp == 1 and res.fp == 1

    def test_recall_positions_count(self):
        gts = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 0)]
        res = evaluate_class([[det(2, 2, 0.9)]], [gts], 0, 0.5, recall_positions=11)
        assert len(res.precision_samples) == 11

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            evaluate_class([[]], [[]], 0, 0.0)
        with pytest.raises(ValueError):
            evaluate_class([[]], [], 0, 0.5)

    def test_bev_measure_differs_from_3d(self):
        # tall offset in y: BEV match, 3D miss
        gt_box = Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0)
        d = Detection(Box3D(2, 5.0, 2, 1.8, 1.0, 1.0, 0), 0, 0.9)
        gts = [(gt_box, 0)]
        assert evaluate_class([[d]], [gts], 0, 0.5, measure="bev").ap == 1.0
        assert evaluate_class([[d]], [gts], 0, 0.5, measure="3d").ap == 0.0

    def test_unknown_measure_rejected(self):
        # Anything but "3d" used to score BEV silently.
        gts = [(Box3D(2, 0, 2, 1.8, 1.0, 1.0, 0), 0)]
        for measure in ("3D", "volume", "BEV"):
            with pytest.raises(ValueError, match="measure"):
                evaluate_class([[det(2, 2, 0.9)]], [gts], 0, 0.5, measure=measure)
            with pytest.raises(ValueError, match="measure"):
                evaluate_class([[]], [[]], 0, 0.5, measure=measure)


class TestEvaluateOutputs:
    def test_report_shape_and_perfect_detector(self):
        grid = tiny_grid()

        class FakeScene:
            def __init__(self, gts):
                self.gts = gts

        gt_box = Box3D(2.5, 0.0, 2.5, 1.8, 1.0, 1.0, 0.0)
        scenes = [FakeScene(((gt_box, 0),))]
        outputs = [outputs_with(grid, [(14, 0, 5.0, gt_box)])]
        report = evaluate_outputs(
            outputs, scenes, grid, iou_thresholds={0: 0.5}, seed=3
        )
        assert len(report.per_class) == 1
        ce = report.per_class[0]
        assert ce.class_name == "box"
        assert ce.ap3d == 1.0 and ce.ap_bev == 1.0
        assert ce.n_gt == 1 and ce.tp == 1 and ce.fn == 0
        assert len(ce.precision_samples) == 40
        assert report.seed == 3

    def test_generator_gives_the_list_report(self):
        grid = tiny_grid()

        class FakeScene:
            def __init__(self, gts):
                self.gts = gts

        gt_box = Box3D(2.5, 0.0, 2.5, 1.8, 1.0, 1.0, 0.0)
        near_box = Box3D(3.3, 0.0, 2.6, 1.8, 1.0, 1.0, 0.2)
        scenes = [FakeScene(((gt_box, 0),)), FakeScene(((near_box, 0), (gt_box, 0)))]
        raised = [[(14, 0, 2.0, gt_box), (9, 0, 0.5, near_box)], [(15, 0, 1.0, near_box)]]
        listed = evaluate_outputs([outputs_with(grid, r) for r in raised], scenes, grid, {0: 0.5})
        streamed = evaluate_outputs((outputs_with(grid, r) for r in raised), scenes, grid, {0: 0.5})
        assert repr(streamed) == repr(listed)
        assert listed.per_class[0].tp >= 1
