"""Detection decoding, class-wise NMS, and average precision at fixed
recall positions.

AP follows the 40-recall-point protocol: detections are pooled over the
evaluated scenes, matched greedily to ground truth in score order (one
match per ground truth, by IoU at the class threshold), and AP is the mean
of the interpolated precision at recall 1/40 .. 40/40.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .anchors import AnchorGrid, decode_deltas
from .geometry import bev_iou, iou3d
from .sim import DetectorOutputs, sigmoid


# Decoding and AP conventions: the score a detection must exceed, the BEV
# IoU above which greedy NMS suppresses it, the candidates kept per class
# before NMS, and the recall positions AP averages over.
SCORE_THRESHOLD = 0.1
NMS_IOU = 0.5
PRE_NMS_TOP_K = 256
RECALL_POSITIONS = 40


@dataclass(frozen=True)
class Detection:
    """A kept detection; ``box`` is its row (cx, cy, cz, l, w, h, yaw) as a 7-tuple."""

    box: tuple[float, ...]
    class_id: int
    score: float
    anchor_index: int = -1

    def __post_init__(self) -> None:
        if not np.isfinite(self.score):
            raise ValueError(f"score must be finite, got {self.score}")


def decode_and_nms(outputs: DetectorOutputs, grid: AnchorGrid) -> list[Detection]:
    """Sigmoid-score, decode, and greedily suppress per class.

    Candidates above ``SCORE_THRESHOLD`` are ranked score-descending with
    ties broken by anchor index, capped at ``PRE_NMS_TOP_K`` per class, and
    suppressed when their BEV IoU with an already kept detection exceeds
    ``NMS_IOU``.
    """
    logits = outputs.logits_flat
    floor = _logit_floor(SCORE_THRESHOLD)
    detections: list[Detection] = []
    for c in range(logits.shape[1]):
        # Only logits above the floor can score above the threshold.
        cand = np.flatnonzero(logits[:, c] > floor)
        scores = sigmoid(logits[cand, c])
        above = scores > SCORE_THRESHOLD
        cand, scores = cand[above], scores[above]
        if cand.size == 0:
            continue
        order = np.lexsort((cand, -scores))[:PRE_NMS_TOP_K]
        cand, scores = cand[order], scores[order]
        boxes = decode_deltas(outputs.deltas_flat[cand], grid.anchor_params[cand])
        if not (np.all(np.isfinite(boxes)) and np.all(boxes[:, 3:6] > 0.0)):
            raise ValueError("decoded boxes must be finite with positive extents")
        boxes = boxes.tolist()
        keep = _greedy_nms(boxes, NMS_IOU)
        detections.extend(
            Detection(
                box=tuple(boxes[i]),
                class_id=c,
                score=float(scores[i]),
                anchor_index=int(cand[i]),
            )
            for i in keep
        )
    return detections


def _logit_floor(p: float) -> float:
    """A logit at or below which the sigmoid score stays below ``p``.

    It is one unit under ``logit(p)``, where the odds s / (1 - s) are e
    times below p's: too far below ``p`` for the sigmoid's rounding to
    lift a score over it.
    """
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return math.log(p) - math.log1p(-p) - 1.0


def _greedy_nms(boxes: Sequence[Sequence[float]], nms_iou: float) -> list[int]:
    """Indices kept by greedy suppression; input must be rank-ordered."""
    # Scalar pairs on purpose: one array bev_iou call over each class set's
    # lower triangle keeps the same boxes, is no faster on a trained
    # student's 16 or 256 validation scenes, and is more code.
    keep: list[int] = []
    for i in range(len(boxes)):
        if all(bev_iou(boxes[i], boxes[k]) <= nms_iou for k in keep):
            keep.append(i)
    return keep


@dataclass(frozen=True)
class ApResult:
    ap: float
    precision_samples: tuple[float, ...]
    tp: int
    fp: int
    fn: int
    n_gt: int
    # True when the AP value is a convention, not a measurement: no ground
    # truth in the evaluated set.
    degenerate: bool = False


def _match_scene(
    detections: Sequence[Detection],
    scene,
    class_id: int,
    iou_threshold: float,
    measure: str,
) -> tuple[list[tuple[float, int, bool]], int]:
    """Greedy one-to-one matching for one scene.

    Returns ((score, anchor_index, is_tp) per detection of the class, n_gt).
    Detections are visited score-descending (ties by anchor index) and take
    the highest-IoU unmatched ground truth at or above the threshold.
    """
    overlap = iou3d if measure == "3d" else bev_iou
    gt_boxes = scene.boxes[scene.class_ids == class_id].tolist()
    dets = sorted(
        (d for d in detections if d.class_id == class_id),
        key=lambda d: (-d.score, d.anchor_index),
    )
    matched = [False] * len(gt_boxes)
    out = []
    for det in dets:
        best, best_iou = -1, iou_threshold
        for g, gt_box in enumerate(gt_boxes):
            if matched[g]:
                continue
            iou = overlap(det.box, gt_box)
            if iou > best_iou or (iou == best_iou and iou >= iou_threshold and best < 0):
                best, best_iou = g, iou
        if best >= 0:
            matched[best] = True
            out.append((det.score, det.anchor_index, True))
        else:
            out.append((det.score, det.anchor_index, False))
    return out, len(gt_boxes)


def evaluate_class(
    scene_detections: Sequence[Sequence[Detection]],
    scenes: Sequence,
    class_id: int,
    iou_threshold: float,
    measure: str = "3d",
) -> ApResult:
    """Pooled AP over scenes for one class at one IoU threshold, sampled at
    ``RECALL_POSITIONS`` recall positions.  Each scene carries its ground
    truth as (n, 7) ``boxes`` and (n,) ``class_ids``."""
    if len(scene_detections) != len(scenes):
        raise ValueError("detections and ground truths must align per scene")
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")
    if measure not in ("3d", "bev"):
        raise ValueError(f"measure must be '3d' or 'bev', got {measure!r}")
    records: list[tuple[float, int, int, bool]] = []
    n_gt = 0
    for scene_idx, (dets, scene) in enumerate(zip(scene_detections, scenes)):
        matches, scene_gt = _match_scene(dets, scene, class_id, iou_threshold, measure)
        n_gt += scene_gt
        records.extend((score, scene_idx, anchor, tp) for score, anchor, tp in matches)

    records.sort(key=lambda r: (-r[0], r[1], r[2]))
    tp_cum = np.cumsum([r[3] for r in records]) if records else np.zeros(0)
    fp_cum = np.cumsum([not r[3] for r in records]) if records else np.zeros(0)
    total_tp = int(tp_cum[-1]) if records else 0
    total_fp = int(fp_cum[-1]) if records else 0

    if n_gt == 0:
        ap = 1.0 if not records else 0.0
        samples = tuple(float(ap) for _ in range(RECALL_POSITIONS))
        return ApResult(ap, samples, total_tp, total_fp, 0, 0, degenerate=True)

    recall = tp_cum / n_gt
    precision = tp_cum / np.maximum(1, tp_cum + fp_cum)
    samples = []
    for k in range(1, RECALL_POSITIONS + 1):
        target = k / RECALL_POSITIONS
        reachable = precision[recall >= target - 1e-12] if records else np.zeros(0)
        samples.append(float(reachable.max()) if reachable.size else 0.0)
    ap = float(np.mean(samples))
    return ApResult(
        ap, tuple(samples), total_tp, total_fp, n_gt - total_tp, n_gt, degenerate=False
    )


@dataclass(frozen=True)
class ClassEval:
    class_id: int
    class_name: str
    iou_threshold: float
    ap3d: float
    ap_bev: float
    tp: int
    fp: int
    fn: int
    n_gt: int
    precision_samples: tuple[float, ...]
    degenerate: bool


@dataclass(frozen=True)
class EvalReport:
    per_class: tuple[ClassEval, ...]
    seed: int
    config_hash: str = ""
    metadata: dict = field(default_factory=dict)

    def mean_ap3d(self) -> float:
        return float(np.mean([c.ap3d for c in self.per_class]))

    def ap3d_by_class(self) -> dict[str, float]:
        return {c.class_name: c.ap3d for c in self.per_class}


def evaluate_outputs(
    per_scene_outputs: Iterable[DetectorOutputs],
    scenes: Sequence,
    grid: AnchorGrid,
    iou_thresholds: dict[int, float],
    seed: int = -1,
    config_hash: str = "",
    metadata: dict | None = None,
) -> EvalReport:
    """Decode, suppress, and score a detector over a validation scene set.

    Each scene must carry ``boxes`` and ``class_ids``, as
    :func:`evaluate_class` reads them.  ``per_scene_outputs`` may be any
    iterable.  Each scene's outputs are released once decoded, before the
    next are read, so a generator keeps one scene's outputs alive at a time.
    """
    decode = partial(decode_and_nms, grid=grid)
    # map, unlike a loop variable, keeps no reference to outputs it has
    # decoded while it reads the next.
    scene_dets = list(map(decode, per_scene_outputs))
    per_class = []
    class_specs = {t.class_id for t in grid.templates}
    for class_id in sorted(class_specs):
        thr = iou_thresholds[class_id]
        res3d = evaluate_class(scene_dets, scenes, class_id, thr, "3d")
        res_bev = evaluate_class(scene_dets, scenes, class_id, thr, "bev")
        per_class.append(
            ClassEval(
                class_id=class_id,
                class_name=grid.class_names[class_id],
                iou_threshold=thr,
                ap3d=res3d.ap,
                ap_bev=res_bev.ap,
                tp=res3d.tp,
                fp=res3d.fp,
                fn=res3d.fn,
                n_gt=res3d.n_gt,
                precision_samples=res3d.precision_samples,
                degenerate=res3d.degenerate,
            )
        )
    return EvalReport(
        per_class=tuple(per_class),
        seed=seed,
        config_hash=config_hash,
        metadata=metadata or {},
    )
