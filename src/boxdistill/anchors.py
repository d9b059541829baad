"""Anchor grid, (n, 7) box delta codec, target assignment, and foreground masking.

One template set is tiled over a regular BEV grid; the teacher oracle and
the trainable student share the same grid and the same assignment.
Anchor index convention: ``(iz * nx + ix) * k_a + slot``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .geometry import GeometryFlags, bev_iou, in_footprint, wrap_angle, wrap_angle_array

LABEL_NEGATIVE = -1
LABEL_IGNORE = -2

# Decoded box extents are capped here; hitting the cap is flagged.
DECODE_SIZE_CAP = 1e6

# How far in meters past a ground truth's footprint, per side, a position
# center still counts as foreground: CLD's region when ``cld_region`` is
# "foreground".
FOREGROUND_DILATION = 0.8


@dataclass(frozen=True)
class ClassSpec:
    """Per-class anchor template and matching thresholds."""

    name: str
    l: float
    w: float
    h: float
    cy: float = 1.0
    pos_iou: float = 0.6
    neg_iou: float = 0.45
    eval_iou: float = 0.5

    def __post_init__(self) -> None:
        # Positive tests, so that NaN fails too.
        if not (self.l > 0 and self.w > 0 and self.h > 0):
            raise ValueError(f"l, w and h must be positive, got {[self.l, self.w, self.h]}")
        if not (0 <= self.neg_iou <= self.pos_iou <= 1 and self.pos_iou > 0):
            raise ValueError(
                f"neg_iou {self.neg_iou} and pos_iou {self.pos_iou} must satisfy "
                "0 <= neg_iou <= pos_iou <= 1 and pos_iou > 0"
            )
        if not 0 < self.eval_iou <= 1:
            raise ValueError(f"eval_iou must be in (0, 1], got {self.eval_iou}")


@dataclass(frozen=True)
class GridConfig:
    """Default synthetic layout: a 60 x 57.6 m range on 0.8 m cells.

    The wide ignore bands (gap between neg_iou and pos_iou) leave the
    foreground ring unsupervised by the hard classification loss; that is
    the region logit distillation covers.
    """

    x_range: tuple[float, float] = (-30.0, 30.0)
    z_range: tuple[float, float] = (2.0, 59.6)
    cell: tuple[float, float] = (0.8, 0.8)
    classes: tuple[ClassSpec, ...] = (
        ClassSpec("car", 3.9, 1.6, 1.56, cy=1.0, pos_iou=0.6, neg_iou=0.3, eval_iou=0.7),
        ClassSpec("pedestrian", 0.8, 0.6, 1.73, cy=1.0, pos_iou=0.4, neg_iou=0.15),
        ClassSpec("cyclist", 1.76, 0.6, 1.73, cy=1.0, pos_iou=0.4, neg_iou=0.15),
    )
    rotations: tuple[float, ...] = (0.0, math.pi / 2)

    def __post_init__(self) -> None:
        # Positive tests, so that NaN fails too.
        if not (self.cell[0] > 0 and self.cell[1] > 0):
            raise ValueError(f"cell must be positive, got {list(self.cell)}")
        for name in ("x_range", "z_range"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name} must be ordered low < high, got {[lo, hi]}")
        if self.nx < 1 or self.nz < 1:
            raise ValueError(f"x_range and z_range must each span a cell, got nx={self.nx}, nz={self.nz}")
        if not self.classes:
            raise ValueError("classes must hold at least one class template")
        if not self.rotations:
            raise ValueError("rotations must hold at least one angle")

    @property
    def nx(self) -> int:
        """Whole cells along x."""
        return int(math.floor((self.x_range[1] - self.x_range[0]) / self.cell[0] + 1e-9))

    @property
    def nz(self) -> int:
        """Whole cells along z."""
        return int(math.floor((self.z_range[1] - self.z_range[0]) / self.cell[1] + 1e-9))


@dataclass(frozen=True)
class AnchorTemplate:
    class_id: int
    l: float
    w: float
    h: float
    yaw: float
    cy: float


@dataclass(frozen=True)
class AnchorGrid:
    """Regular anchor layout: k_a templates at every BEV grid position."""

    origin: tuple[float, float]
    cell: tuple[float, float]
    nx: int
    nz: int
    templates: tuple[AnchorTemplate, ...]
    k_c: int
    class_names: tuple[str, ...]

    @property
    def k_a(self) -> int:
        return len(self.templates)

    @property
    def n_positions(self) -> int:
        return self.nx * self.nz

    @property
    def n_anchors(self) -> int:
        return self.n_positions * self.k_a

    @cached_property
    def position_centers(self) -> np.ndarray:
        """(n_positions, 2) array of (x, z) cell centers, row-major in z then x."""
        ix = np.arange(self.nx)
        iz = np.arange(self.nz)
        xs = self.origin[0] + (ix + 0.5) * self.cell[0]
        zs = self.origin[1] + (iz + 0.5) * self.cell[1]
        gx, gz = np.meshgrid(xs, zs)  # rows iterate z
        out = np.stack([gx.ravel(), gz.ravel()], axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def anchor_params(self) -> np.ndarray:
        """(n_anchors, 7) anchor boxes as (cx, cy, cz, l, w, h, yaw) rows."""
        centers = self.position_centers
        tmpl = np.array(
            [[t.cy, t.l, t.w, t.h, t.yaw] for t in self.templates]
        )  # (k_a, 5)
        out = np.empty((self.n_anchors, 7))
        rep = np.repeat(centers, self.k_a, axis=0)
        out[:, 0] = rep[:, 0]
        out[:, 2] = rep[:, 1]
        tiled = np.tile(tmpl, (self.n_positions, 1))
        out[:, 1] = tiled[:, 0]
        out[:, 3:6] = tiled[:, 1:4]
        out[:, 6] = tiled[:, 4]
        out.setflags(write=False)
        return out

    def slot_class_ids(self) -> np.ndarray:
        return np.array([t.class_id for t in self.templates])


def build_anchor_grid(config: GridConfig) -> AnchorGrid:
    """Lay out the anchor grid described by ``config``.

    Positions are cell centers, so every anchor center falls strictly
    inside the detection range (GridConfig rejects an empty grid).
    """
    templates = tuple(
        AnchorTemplate(class_id=c, l=spec.l, w=spec.w, h=spec.h, yaw=wrap_angle(rot), cy=spec.cy)
        for c, spec in enumerate(config.classes)
        for rot in config.rotations
    )
    return AnchorGrid(
        origin=(config.x_range[0], config.z_range[0]),
        cell=config.cell,
        nx=config.nx,
        nz=config.nz,
        templates=templates,
        k_c=len(config.classes),
        class_names=tuple(spec.name for spec in config.classes),
    )


def decode_deltas(
    deltas: np.ndarray, anchor_params: np.ndarray, flags: GeometryFlags | None = None
) -> np.ndarray:
    """(n, 7) deltas + (n, 7) anchors -> (n, 7) box params; inverse of
    :func:`encode_deltas`.  Extents cap at DECODE_SIZE_CAP (counted in
    ``flags.decode_clamped``)."""
    deltas = np.asarray(deltas, dtype=float)
    anchor_params = np.asarray(anchor_params, dtype=float)
    diag = np.hypot(anchor_params[:, 3], anchor_params[:, 4])
    out = np.empty_like(deltas)
    out[:, 0] = anchor_params[:, 0] + deltas[:, 0] * diag
    out[:, 1] = anchor_params[:, 1] + deltas[:, 1] * anchor_params[:, 5]
    out[:, 2] = anchor_params[:, 2] + deltas[:, 2] * diag
    sizes = anchor_params[:, 3:6] * np.exp(deltas[:, 3:6])
    over = sizes > DECODE_SIZE_CAP
    if np.any(over):
        sizes = np.where(over, DECODE_SIZE_CAP, sizes)
        if flags is not None:
            flags.decode_clamped += int(np.count_nonzero(over))
    out[:, 3:6] = sizes
    out[:, 6] = wrap_angle_array(anchor_params[:, 6] + deltas[:, 6])
    return out


def encode_deltas(box_params: np.ndarray, anchor_params: np.ndarray) -> np.ndarray:
    """(n, 7) box params + (n, 7) anchors -> (n, 7) regression offsets.

    Columns follow the box rows: centers normalized by the anchor BEV
    diagonal (x, z) and height (y), log-ratio extents, wrapped yaw delta.
    """
    box_params = np.asarray(box_params, dtype=float)
    anchor_params = np.asarray(anchor_params, dtype=float)
    diag = np.hypot(anchor_params[:, 3], anchor_params[:, 4])
    out = np.empty_like(box_params)
    out[:, 0] = (box_params[:, 0] - anchor_params[:, 0]) / diag
    out[:, 1] = (box_params[:, 1] - anchor_params[:, 1]) / anchor_params[:, 5]
    out[:, 2] = (box_params[:, 2] - anchor_params[:, 2]) / diag
    out[:, 3:6] = np.log(box_params[:, 3:6] / anchor_params[:, 3:6])
    out[:, 6] = wrap_angle_array(box_params[:, 6] - anchor_params[:, 6])
    return out


@dataclass(frozen=True)
class Assignment:
    """One scene's target assignment, kept as read-only rows.

    Every anchor is positive (matched to a ground truth), ignored, or
    negative.  ``positive_indices`` (ascending) holds the positives and
    ``matched`` the ground-truth index of each; ``ignore_indices``
    (ascending) the ignored anchors; ``overlap_indices`` (ascending) the
    anchors whose best BEV IoU against a same-class ground truth is
    nonzero, and ``overlap_iou`` that IoU.
    """

    positive_indices: np.ndarray
    matched: np.ndarray
    ignore_indices: np.ndarray
    overlap_indices: np.ndarray
    overlap_iou: np.ndarray
    foreground: np.ndarray  # (n_positions,) bool

    def __post_init__(self) -> None:
        if self.matched.shape != self.positive_indices.shape or (
            self.overlap_iou.shape != self.overlap_indices.shape
        ):
            raise ValueError("each index row needs one matched index or IoU")
        for arr in (
            self.positive_indices, self.matched, self.ignore_indices,
            self.overlap_indices, self.overlap_iou, self.foreground,
        ):
            arr.setflags(write=False)


def _candidate_positions(grid: AnchorGrid, gt: Sequence[float], reach: float) -> np.ndarray:
    """Indices of grid positions whose center could overlap the box row ``gt``."""
    cx, _, cz, l, w, _, _ = gt
    centers = grid.position_centers
    r = 0.5 * math.hypot(l, w) + reach
    near = (np.abs(centers[:, 0] - cx) <= r) & (np.abs(centers[:, 1] - cz) <= r)
    return np.flatnonzero(near)


def assign_targets(
    grid: AnchorGrid,
    boxes: np.ndarray,
    class_ids: np.ndarray,
    thresholds: Mapping[int, tuple[float, float]],
    dilation: float,
) -> Assignment:
    """Label every anchor positive / negative / ignore against the (n_gt, 7)
    ground-truth rows ``boxes`` of classes ``class_ids``.

    ``thresholds`` maps each class id of the grid to its (pos_iou,
    neg_iou), as ``ExperimentConfig.assignment_thresholds`` returns them;
    ``dilation`` is the foreground mask's, per side.

    An anchor is positive when its BEV IoU with a same-class ground truth
    reaches the class positive threshold, or when it is that ground
    truth's argmax anchor (forced match, ties to the lowest anchor index).
    Anchors below the negative threshold are negative, the rest ignored.
    The forced match is skipped when a ground truth overlaps no same-class
    anchor at all (argmax over an all-zero row is meaningless and would
    break the positive-implies-foreground property).  Raises ValueError
    when a class's ``pos_iou`` is not positive or is below its ``neg_iou``.
    """
    classes = class_ids.tolist()
    for class_id in set(classes):
        pos_thr, neg_thr = thresholds[class_id]
        if pos_thr < neg_thr:
            raise ValueError(
                f"pos_iou {pos_thr} must be >= neg_iou {neg_thr} for class {class_id}"
            )
        if pos_thr <= 0:
            # An anchor with no overlap would be positive.
            raise ValueError(f"pos_iou {pos_thr} must be > 0 for class {class_id}")

    k_a = grid.k_a
    max_iou = np.zeros(grid.n_anchors)
    best_gt = np.full(grid.n_anchors, -1, dtype=np.int64)
    forced: list[tuple[int, float, int]] = []  # (anchor, iou, gt_index)

    slot_classes = grid.slot_class_ids()
    max_template_reach = max(
        (0.5 * math.hypot(t.l, t.w) for t in grid.templates), default=0.0
    )
    # Every (anchor, gt) candidate of the scene is scored in one call, in
    # gt order and, per gt, in ascending anchor index.
    candidates: list[tuple[int, np.ndarray]] = []
    for g, (gt, class_id) in enumerate(zip(boxes.tolist(), classes)):
        slots = np.flatnonzero(slot_classes == class_id)
        if slots.size == 0:
            continue
        positions = _candidate_positions(grid, gt, max_template_reach)
        candidates.append((g, (positions[:, None] * k_a + slots[None, :]).ravel()))
    counts = [idx.size for _, idx in candidates]
    all_idx = np.concatenate([np.zeros(0, dtype=np.int64)] + [idx for _, idx in candidates])
    gt_rows = np.repeat(boxes[[g for g, _ in candidates]], counts, axis=0)
    ious = bev_iou(grid.anchor_params[all_idx], gt_rows)
    start = 0
    for (g, idx), count in zip(candidates, counts):
        iou = ious[start : start + count]
        start += count
        # An anchor takes the first gt with its highest nonzero IoU.
        take = iou > max_iou[idx]
        max_iou[idx[take]] = iou[take]
        best_gt[idx[take]] = g
        if count and iou.max() > 0.0:
            best = int(np.argmax(iou))  # ties to the lowest anchor index
            forced.append((int(idx[best]), float(iou[best]), g))

    labels = np.full(grid.n_anchors, LABEL_NEGATIVE, dtype=np.int64)
    pos_thr_per_slot = np.array([thresholds[int(c)][0] for c in slot_classes])
    neg_thr_per_slot = np.array([thresholds[int(c)][1] for c in slot_classes])
    slot_of = np.tile(np.arange(k_a), grid.n_positions)
    pos_mask = max_iou >= pos_thr_per_slot[slot_of]
    ignore_mask = ~pos_mask & (max_iou >= neg_thr_per_slot[slot_of])
    labels[ignore_mask] = LABEL_IGNORE
    labels[pos_mask] = best_gt[pos_mask]

    for anchor, iou, g in forced:
        if labels[anchor] >= 0 and max_iou[anchor] > iou:
            continue
        labels[anchor] = g

    # The dense temporaries are freed on return; the rows are kept.
    pos = np.flatnonzero(labels >= 0)
    overlap = np.flatnonzero(max_iou)
    return Assignment(
        positive_indices=pos,
        matched=labels[pos],
        ignore_indices=np.flatnonzero(labels == LABEL_IGNORE),
        overlap_indices=overlap,
        overlap_iou=max_iou[overlap],
        foreground=foreground_mask(grid, boxes, dilation=dilation),
    )


def foreground_mask(grid: AnchorGrid, boxes: np.ndarray, dilation: float) -> np.ndarray:
    """Flag positions whose center lies in any ``boxes`` footprint dilated per side."""
    # A positive test, so that NaN fails too.
    if not dilation >= 0:
        raise ValueError(f"dilation must be >= 0, got {dilation}")
    centers = grid.position_centers
    mask = np.zeros(grid.n_positions, dtype=bool)
    for box in boxes.tolist():
        mask |= in_footprint(centers[:, 0], centers[:, 1], box, dilation)
    return mask


def positive_target_deltas(
    grid: AnchorGrid, assignment: Assignment, boxes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Encoded deltas of the ground-truth rows ``boxes`` at every positive anchor.

    Returns (positive anchor indices, (n_pos, 7) encoded targets), both in
    ascending anchor order.
    """
    pos = assignment.positive_indices
    return pos, encode_deltas(boxes[assignment.matched], grid.anchor_params[pos])
