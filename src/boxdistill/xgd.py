"""Component-guided box distillation.

A teacher box is split into center / size / angle components, and each
component is kept as a soft target only when stepping from the student
toward it also steps toward the ground truth (the two difference vectors
make an acute angle).  Rejected components fall back to the student's own
value, so they exert no pull.  The resulting target boxes feed a rotated
3D IoU loss over the positive anchors.

Boxes are index-aligned (n, 7) rows (cx, cy, cz, l, w, h, yaw).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .anchors import decode_deltas
from .geometry import (
    DEFAULT_FD_STEPS,
    GeometryFlags,
    iou3d,
    iou3d_and_grad_fd,
    iou3d_grad_fd,  # noqa: F401  (a HOOKS entry of benchmarks/spans.py wraps it)
    wrap_angle_array,
)

DEFAULT_GATE_EPS = 1e-9

#: IoU finite differences steeper than 10 / step are treated as contact
#: noise and clipped before entering the training gradient.
GRAD_CLIP_FACTOR = 10.0

COMPONENT_NAMES = ("center", "size", "angle")


def _box_rows(**groups: np.ndarray) -> list[np.ndarray]:
    """Index-aligned (n, 7) float arrays, checked for shape and length."""
    rows = [np.asarray(g, dtype=float) for g in groups.values()]
    if any(r.ndim != 2 or r.shape[1] != 7 for r in rows):
        raise ValueError("boxes must be (n, 7) arrays")
    if len({r.shape[0] for r in rows}) > 1:
        lengths = ", ".join(f"{name}={r.shape[0]}" for name, r in zip(groups, rows))
        raise ValueError(f"lengths differ: {lengths}")
    return rows


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # matmul hands each (1, k) @ (k, 1) pair to the same BLAS dot as
    # np.dot on two vectors, so every row rounds as one np.dot call does.
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _acute(teacher_step: np.ndarray, gt_step: np.ndarray) -> np.ndarray:
    """Row-wise gate verdicts on (n, k) difference vectors.

    Kept iff the cosine of the two steps is strictly positive.
    Degeneracies: a teacher step shorter than ``DEFAULT_GATE_EPS`` is kept
    (substituting it is a no-op); a ground-truth step that short while the
    teacher's is not means the student is already right, so the component
    is dropped.
    """
    t_norm = np.sqrt(_row_dot(teacher_step, teacher_step))
    g_norm = np.sqrt(_row_dot(gt_step, gt_step))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_beta = _row_dot(teacher_step, gt_step) / (t_norm * g_norm)
    return (t_norm < DEFAULT_GATE_EPS) | (~(g_norm < DEFAULT_GATE_EPS) & (cos_beta > 0.0))


# Column blocks of a (cx, cy, cz, l, w, h, yaw) row, one per component.
_BLOCKS = (slice(0, 3), slice(3, 6), slice(6, 7))
_COMPONENT_OF_COLUMN = np.repeat(np.arange(len(_BLOCKS)), [b.stop - b.start for b in _BLOCKS])


def gate_decisions(
    teacher: np.ndarray,
    student: np.ndarray,
    gt: np.ndarray,
) -> np.ndarray:
    """Per-box, per-component gate verdicts for index-aligned (n, 7) boxes.

    Returns an (n, 3) bool array whose columns are the center, size and
    angle verdicts, each from that component's difference vectors.
    """
    teacher, student, gt = _box_rows(teacher=teacher, student=student, gt=gt)
    if not (np.all(np.isfinite(teacher)) and np.all(np.isfinite(student)) and np.all(np.isfinite(gt))):
        raise ValueError("gate inputs must be finite")
    teacher_step = teacher - student
    gt_step = gt - student
    # Yaw differences are wrapped before the 1-D cosine so a full-turn
    # offset cannot flip the verdict.
    teacher_step[:, 6] = wrap_angle_array(teacher_step[:, 6])
    gt_step[:, 6] = wrap_angle_array(gt_step[:, 6])
    return np.column_stack([_acute(teacher_step[:, b], gt_step[:, b]) for b in _BLOCKS])


def positive_component_update(
    teacher: np.ndarray,
    student: np.ndarray,
    gt: np.ndarray,
    components: Sequence[str] = COMPONENT_NAMES,
    decisions: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble per-box soft targets from gated teacher components.

    For every box and every component, the target takes the teacher's
    value when the gate keeps it and the student's current value (as a
    detached snapshot) otherwise.  ``components`` restricts which
    components may ever be substituted; the rest always stay student-side
    (used by the single-component ablations).  ``decisions`` is a
    precomputed :func:`gate_decisions` array.  Returns the (n, 7) target
    rows.
    """
    unknown = set(components) - set(COMPONENT_NAMES)
    if unknown:
        raise ValueError(f"unknown components: {sorted(unknown)}")
    teacher, student, gt = _box_rows(teacher=teacher, student=student, gt=gt)
    if decisions is None:
        decisions = gate_decisions(teacher, student, gt)
    elif np.shape(decisions) != (teacher.shape[0], 3):
        raise ValueError("decisions must be an (n, 3) array aligned with the boxes")
    allowed = np.array([name in components for name in COMPONENT_NAMES])
    take = (np.asarray(decisions, dtype=bool) & allowed)[:, _COMPONENT_OF_COLUMN]
    return np.where(take, teacher, student)


def xgd_loss(
    student_boxes: np.ndarray,
    targets: np.ndarray,
    flags: GeometryFlags | None = None,
) -> float:
    """Rotated-IoU distillation loss: sum of (1 - IoU3D) over box pairs.

    Boxes are index-aligned (n, 7) rows; every pair is scored in one
    batched :func:`iou3d` call.  Targets are treated as constants.  Zero
    when there are no pairs.
    """
    student_rows, target_rows = _box_rows(student=student_boxes, targets=targets)
    terms = (1.0 - iou3d(student_rows, target_rows, flags)).tolist()
    return sum(terms) if terms else 0.0


def xgd_loss_grad(
    student_deltas: np.ndarray,
    anchor_params: np.ndarray,
    targets: np.ndarray,
    flags: GeometryFlags | None = None,
    student_rows: np.ndarray | None = None,
) -> np.ndarray:
    """The gradient of :func:`xgd_loss_and_grad`.

    ``flags`` counts what that call counts, the degenerate-union guard of
    the pairs' own IoUs included.
    """
    return xgd_loss_and_grad(student_deltas, anchor_params, targets, flags, student_rows)[1]


def xgd_loss_and_grad(
    student_deltas: np.ndarray,
    anchor_params: np.ndarray,
    targets: np.ndarray,
    flags: GeometryFlags | None = None,
    student_rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-pair terms (1 - IoU3D) of :func:`xgd_loss`, in pair order,
    and their gradient w.r.t. the student regression deltas, from one
    batched clip (:func:`iou3d_and_grad_fd`).

    Summing a slice of the terms (zero for an empty slice) gives
    :func:`xgd_loss` on that slice's pairs.  Decoded-box gradients come
    from central differences of the IoU; they chain through the (diagonal)
    Jacobian of the delta decoding.  Gate decisions are piecewise constant
    and contribute nothing.  Components steeper than GRAD_CLIP_FACTOR /
    step are clipped (contact noise).  ``targets`` are (n, 7) rows.  Each
    row's gradient depends on that row alone.  ``student_rows`` is the
    decode of ``student_deltas`` when the caller already has it (its
    decode clamps already counted in ``flags``).
    """
    student_deltas = np.asarray(student_deltas, dtype=float)
    anchor_params = np.asarray(anchor_params, dtype=float)
    (target_rows,) = _box_rows(targets=targets)
    n = student_deltas.shape[0]
    if target_rows.shape[0] != n or anchor_params.shape[0] != n:
        raise ValueError("deltas, anchors, and targets must be index-aligned")
    if n == 0:
        return np.zeros(0), np.zeros_like(student_deltas)
    clip = GRAD_CLIP_FACTOR / DEFAULT_FD_STEPS
    if student_rows is None:
        student_rows = decode_deltas(student_deltas, anchor_params, flags)
    elif np.shape(student_rows) != (n, 7):
        raise ValueError("student_rows must be the (n, 7) decode of student_deltas")
    # The IoU call rejects a non-finite or non-positive decode.
    iou, g_box = iou3d_and_grad_fd(student_rows, target_rows, flags=flags)
    g_box = -g_box
    over = np.abs(g_box) > clip
    if np.any(over):
        g_box = np.clip(g_box, -clip, clip)
        if flags is not None:
            flags.gradient_clipped += int(np.count_nonzero(over))
    # d(box)/d(delta): centers scale by diag / anchor height, extents by
    # the decoded extent itself, yaw passes through.
    diag = np.hypot(anchor_params[:, 3], anchor_params[:, 4])
    jac = np.column_stack(
        [diag, anchor_params[:, 5], diag, student_rows[:, 3:6], np.ones(n)]
    )
    return 1.0 - iou, g_box * jac


def gate_keep_rates(decisions: np.ndarray) -> dict[str, float]:
    """Fraction of boxes whose center / size / angle gates kept the teacher.

    Takes a :func:`gate_decisions` array; returns ``{}`` (nothing gated)
    when it is empty.
    """
    kept = np.asarray(decisions, dtype=bool).reshape(-1, 3)
    n = kept.shape[0]
    if n == 0:
        return {}
    counts = np.count_nonzero(kept, axis=0)
    return {name: int(count) / n for name, count in zip(COMPONENT_NAMES, counts)}
