"""Component-guided box distillation.

A teacher box is split into center / size / angle components, and each
component is kept as a soft target only when stepping from the student
toward it also steps toward the ground truth (the two difference vectors
make an acute angle).  Rejected components fall back to the student's own
value, so they exert no pull.  The resulting target boxes feed a rotated
3D IoU loss over the positive anchors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .anchors import decode_deltas
from .geometry import (
    DEFAULT_FD_STEPS,
    Box3D,
    GeometryFlags,
    iou3d,
    iou3d_grad_fd,
    wrap_angle,
)

DEFAULT_GATE_EPS = 1e-9

#: IoU finite differences steeper than 10 / step are treated as contact
#: noise and clipped before entering the training gradient.
GRAD_CLIP_FACTOR = 10.0

COMPONENT_NAMES = ("center", "size", "angle")


@dataclass(frozen=True)
class BoxComponents:
    """A box as (center, size, angle); lossless round trip with Box3D."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    angle: float

    def __post_init__(self) -> None:
        if any(s <= 0 for s in self.size):
            raise ValueError(f"size components must be positive, got {self.size}")
        object.__setattr__(self, "angle", wrap_angle(self.angle))

    @classmethod
    def from_box(cls, box: Box3D) -> "BoxComponents":
        return cls((box.cx, box.cy, box.cz), (box.l, box.w, box.h), box.yaw)

    def to_box(self) -> Box3D:
        return Box3D(*self.center, *self.size, self.angle)


@dataclass(frozen=True)
class ComponentGate:
    """Keep/drop verdict for one component; cos_beta is None when the
    teacher already coincides with the student (substitution is a no-op)."""

    kept: bool
    cos_beta: float | None


@dataclass(frozen=True)
class GateDecision:
    center: ComponentGate
    size: ComponentGate
    angle: ComponentGate

    def kept_flags(self) -> tuple[bool, bool, bool]:
        return (self.center.kept, self.size.kept, self.angle.kept)


def component_gate(
    student: np.ndarray,
    teacher: np.ndarray,
    gt: np.ndarray,
    eps: float = DEFAULT_GATE_EPS,
) -> ComponentGate:
    """Acute-angle test between teacher-student and gt-student directions.

    Kept iff the cosine of the two difference vectors is strictly positive.
    Degeneracies: a teacher within ``eps`` of the student is kept (no-op);
    a ground truth within ``eps`` of the student while the teacher is not
    means the student is already right, so the component is dropped.
    """
    student = np.asarray(student, dtype=float)
    teacher = np.asarray(teacher, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if not (np.all(np.isfinite(student)) and np.all(np.isfinite(teacher)) and np.all(np.isfinite(gt))):
        raise ValueError("gate inputs must be finite")
    teacher_step = teacher - student
    gt_step = gt - student
    t_norm = float(np.linalg.norm(teacher_step))
    g_norm = float(np.linalg.norm(gt_step))
    if t_norm < eps:
        return ComponentGate(kept=True, cos_beta=None)
    if g_norm < eps:
        return ComponentGate(kept=False, cos_beta=None)
    cos_beta = float(np.dot(teacher_step, gt_step) / (t_norm * g_norm))
    return ComponentGate(kept=cos_beta > 0.0, cos_beta=cos_beta)


def _angle_gate(student_yaw: float, teacher_yaw: float, gt_yaw: float, eps: float) -> ComponentGate:
    # Differences are wrapped before the 1-D cosine so a full-turn offset
    # cannot flip the verdict.
    t = wrap_angle(teacher_yaw - student_yaw)
    g = wrap_angle(gt_yaw - student_yaw)
    return component_gate(np.zeros(1), np.array([t]), np.array([g]), eps)


def gate_decisions(
    teacher: Sequence[Box3D],
    student: Sequence[Box3D],
    gt: Sequence[Box3D],
    eps: float = DEFAULT_GATE_EPS,
) -> list[GateDecision]:
    """Per-box, per-component gate verdicts for index-aligned box lists."""
    if not (len(teacher) == len(student) == len(gt)):
        raise ValueError(
            f"list lengths differ: teacher={len(teacher)}, student={len(student)}, gt={len(gt)}"
        )
    out = []
    for t_box, s_box, g_box in zip(teacher, student, gt):
        t = BoxComponents.from_box(t_box)
        s = BoxComponents.from_box(s_box)
        g = BoxComponents.from_box(g_box)
        out.append(
            GateDecision(
                center=component_gate(np.array(s.center), np.array(t.center), np.array(g.center), eps),
                size=component_gate(np.array(s.size), np.array(t.size), np.array(g.size), eps),
                angle=_angle_gate(s.angle, t.angle, g.angle, eps),
            )
        )
    return out


def positive_component_update(
    teacher: Sequence[Box3D],
    student: Sequence[Box3D],
    gt: Sequence[Box3D],
    eps: float = DEFAULT_GATE_EPS,
    components: Sequence[str] = COMPONENT_NAMES,
    decisions: Sequence[GateDecision] | None = None,
) -> list[Box3D]:
    """Assemble per-box soft targets from gated teacher components.

    For every box and every component, the target takes the teacher's
    value when the gate keeps it and the student's current value (as a
    detached snapshot) otherwise.  ``components`` restricts which
    components may ever be substituted; the rest always stay student-side
    (used by the single-component ablations).
    """
    unknown = set(components) - set(COMPONENT_NAMES)
    if unknown:
        raise ValueError(f"unknown components: {sorted(unknown)}")
    if decisions is None:
        decisions = gate_decisions(teacher, student, gt, eps)
    elif len(decisions) != len(teacher):
        raise ValueError("decisions length must match box lists")
    targets = []
    for t_box, s_box, gate in zip(teacher, student, decisions):
        t = BoxComponents.from_box(t_box)
        s = BoxComponents.from_box(s_box)
        center = t.center if ("center" in components and gate.center.kept) else s.center
        size = t.size if ("size" in components and gate.size.kept) else s.size
        angle = t.angle if ("angle" in components and gate.angle.kept) else s.angle
        targets.append(BoxComponents(center, size, angle).to_box())
    return targets


def xgd_loss(
    student_boxes: Sequence[Box3D],
    targets: Sequence[Box3D],
    normalization: str = "sum",
    flags: GeometryFlags | None = None,
) -> float:
    """Rotated-IoU distillation loss: sum of (1 - IoU3D) over box pairs.

    Targets are treated as constants.  Zero when the lists are empty.
    ``normalization`` is "sum" (default) or "mean".
    """
    if len(student_boxes) != len(targets):
        raise ValueError(
            f"list lengths differ: student={len(student_boxes)}, targets={len(targets)}"
        )
    if normalization not in ("sum", "mean"):
        raise ValueError(f"normalization must be 'sum' or 'mean', got {normalization!r}")
    if not student_boxes:
        return 0.0
    total = sum(1.0 - iou3d(s, t, flags) for s, t in zip(student_boxes, targets))
    if normalization == "mean":
        total /= len(student_boxes)
    return total


def xgd_loss_grad(
    student_deltas: np.ndarray,
    anchor_params: np.ndarray,
    targets: Sequence[Box3D],
    normalization: str = "sum",
    flags: GeometryFlags | None = None,
) -> np.ndarray:
    """Gradient of :func:`xgd_loss` w.r.t. the student regression deltas.

    Decoded-box gradients come from central differences of the IoU (one
    batched :func:`iou3d_grad_fd` call for all boxes); they chain through
    the (diagonal) Jacobian of the delta decoding.  Gate decisions are
    piecewise constant and contribute nothing.  Components steeper than
    GRAD_CLIP_FACTOR / step are clipped (contact noise).
    """
    student_deltas = np.asarray(student_deltas, dtype=float)
    anchor_params = np.asarray(anchor_params, dtype=float)
    n = student_deltas.shape[0]
    if len(targets) != n or anchor_params.shape[0] != n:
        raise ValueError("deltas, anchors, and targets must be index-aligned")
    if n == 0:
        return np.zeros_like(student_deltas)
    clip = GRAD_CLIP_FACTOR / DEFAULT_FD_STEPS
    box_params = decode_deltas(student_deltas, anchor_params, flags)
    # Box3D rejects a non-finite or non-positive decode and wraps the yaw.
    boxes = np.array([Box3D.from_array(p).as_array() for p in box_params])
    g_box = -iou3d_grad_fd(boxes, np.array([t.as_array() for t in targets]), flags=flags)
    over = np.abs(g_box) > clip
    if np.any(over):
        g_box = np.clip(g_box, -clip, clip)
        if flags is not None:
            flags.gradient_clipped += int(np.count_nonzero(over))
    # d(box)/d(delta): centers scale by diag / anchor height, extents by
    # the decoded extent itself, yaw passes through.
    diag = np.hypot(anchor_params[:, 3], anchor_params[:, 4])
    jac = np.column_stack(
        [diag, anchor_params[:, 5], diag, box_params[:, 3:6], np.ones(n)]
    )
    grad = g_box * jac
    if normalization == "mean":
        grad /= n
    return grad


def gate_keep_rates(decisions: Sequence[GateDecision]) -> dict[str, float]:
    """Fraction of boxes whose center / size / angle gates kept the teacher.

    Returns NaNs for an empty decision list.
    """
    if not decisions:
        return {name: math.nan for name in COMPONENT_NAMES}
    n = len(decisions)
    return {
        "center": sum(d.center.kept for d in decisions) / n,
        "size": sum(d.size.kept for d in decisions) / n,
        "angle": sum(d.angle.kept for d in decisions) / n,
    }
