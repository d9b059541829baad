"""Exact rotated-3D-box geometry on the bird's-eye-view plane.

Boxes live in a camera-style frame: x right, y vertical, z forward.  The
BEV footprint of a box is its (x, z) rectangle; 3D overlap is footprint
overlap times vertical interval overlap.  All functions are pure; the
Monte-Carlo oracle draws every random number from its explicit seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi

# Vertices closer than this (meters) are merged after clipping; collinear
# vertices within this perpendicular distance of their neighbour edge are
# dropped.  Stabilizes areas and finite differences near degeneracy.
MERGE_TOL = 1e-9

# Unions smaller than this (cubic meters) are treated as degenerate.
DEGENERATE_UNION = 1e-12


@dataclass
class GeometryFlags:
    """Diagnostic counters, incremented by operations that hit a guard.

    Callers that care pass one in; each caller owns its accumulator, so
    parallel invocations with separate accumulators stay safe.
    """

    degenerate_union: int = 0
    size_clamped: int = 0
    gradient_clipped: int = 0
    decode_clamped: int = 0


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    wrapped = math.remainder(theta, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


def wrap_angle_array(theta: np.ndarray) -> np.ndarray:
    """Elementwise :func:`wrap_angle` for numpy arrays.

    Exact (no rounding) for inputs already inside (-pi, pi].
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    wrapped = theta - TWO_PI * np.round(theta / TWO_PI)
    return np.where(wrapped <= -math.pi, wrapped + TWO_PI, wrapped)


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box: center (cx, cy, cz), extents (l, w, h), yaw.

    l spans x at yaw 0, w spans z, h spans the vertical axis; yaw rotates
    the footprint counter-clockwise in the (x, z) plane and is normalized
    to (-pi, pi] on construction.
    """

    cx: float
    cy: float
    cz: float
    l: float
    w: float
    h: float
    yaw: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.cx, self.cy, self.cz, self.l, self.w, self.h, self.yaw)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"box parameters must be finite, got {vals}")
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError(
                f"box extents must be positive, got l={self.l}, w={self.w}, h={self.h}"
            )
        object.__setattr__(self, "yaw", wrap_angle(self.yaw))

    @property
    def volume(self) -> float:
        return self.l * self.w * self.h

    def as_array(self) -> np.ndarray:
        """Parameters in canonical order (cx, cy, cz, l, w, h, yaw)."""
        return np.array(
            [self.cx, self.cy, self.cz, self.l, self.w, self.h, self.yaw], dtype=float
        )

    @classmethod
    def from_array(cls, params: np.ndarray) -> "Box3D":
        cx, cy, cz, l, w, h, yaw = (float(v) for v in params)
        return cls(cx, cy, cz, l, w, h, yaw)


def _signed_area(pts: list[tuple[float, float]]) -> float:
    if len(pts) < 3:
        return 0.0
    acc = 0.0
    n = len(pts)
    for i in range(n):
        x0, z0 = pts[i]
        x1, z1 = pts[(i + 1) % n]
        acc += x0 * z1 - x1 * z0
    return 0.5 * acc


def _bev_corners(box: Box3D) -> list[tuple[float, float]]:
    """CCW footprint corners of ``box`` in the (x, z) plane."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = 0.5 * box.l, 0.5 * box.w
    out = []
    for u, v in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
        out.append((box.cx + u * c - v * s, box.cz + u * s + v * c))
    return out


def _clip(subject: list[tuple[float, float]],
          clip: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sutherland-Hodgman intersection of two convex CCW polygons."""
    output = subject
    n_clip = len(clip)
    for i in range(n_clip):
        if not output:
            return []
        ax, az = clip[i]
        bx, bz = clip[(i + 1) % n_clip]
        ex, ez = bx - ax, bz - az
        inputs = output
        output = []
        px, pz = inputs[-1]
        prev_in = ex * (pz - az) - ez * (px - ax) >= 0.0
        for qx, qz in inputs:
            curr_in = ex * (qz - az) - ez * (qx - ax) >= 0.0
            if curr_in != prev_in:
                # Edge crosses the clip line; the denominator cannot be
                # exactly zero when the inside flags differ, but guard the
                # near-parallel case anyway.
                dx, dz = qx - px, qz - pz
                den = ex * dz - ez * dx
                if den != 0.0:
                    t = (ex * (az - pz) - ez * (ax - px)) / den
                    t = min(1.0, max(0.0, t))
                    output.append((px + t * dx, pz + t * dz))
                else:
                    output.append((qx, qz))
            if curr_in:
                output.append((qx, qz))
            px, pz, prev_in = qx, qz, curr_in
    return _merge_degenerate(output)


def _merge_degenerate(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Drop duplicate and collinear vertices (within MERGE_TOL meters)."""
    if not pts:
        return []
    deduped: list[tuple[float, float]] = []
    for p in pts:
        if not deduped or math.hypot(p[0] - deduped[-1][0], p[1] - deduped[-1][1]) > MERGE_TOL:
            deduped.append(p)
    while len(deduped) > 1 and math.hypot(
        deduped[0][0] - deduped[-1][0], deduped[0][1] - deduped[-1][1]
    ) <= MERGE_TOL:
        deduped.pop()
    if len(deduped) < 3:
        return deduped
    out: list[tuple[float, float]] = []
    n = len(deduped)
    for i in range(n):
        prev_pt = deduped[(i - 1) % n]
        curr = deduped[i]
        next_pt = deduped[(i + 1) % n]
        ex, ez = next_pt[0] - prev_pt[0], next_pt[1] - prev_pt[1]
        elen = math.hypot(ex, ez)
        if elen > 0.0:
            perp = abs(ex * (curr[1] - prev_pt[1]) - ez * (curr[0] - prev_pt[0])) / elen
            if perp <= MERGE_TOL:
                continue
        out.append(curr)
    return out


def _bev_intersection_area(a: Box3D, b: Box3D) -> float:
    return max(0.0, _signed_area(_clip(_bev_corners(a), _bev_corners(b))))


# Batched clip kernel.  It replays the scalar path above (_bev_corners,
# _clip, _merge_degenerate, _signed_area) on N quad pairs at once, with the
# same float expressions in the same order, so every area is bit-identical
# to ``max(0.0, _signed_area(_clip(subject, clip)))``.  Polygons are rows of
# padded (N, M) x / z arrays plus a per-row vertex count.


def _box_rows(boxes: np.ndarray, name: str) -> np.ndarray:
    """Validate an (n, 7) array of box parameters (finite, positive extents)."""
    boxes = np.asarray(boxes, dtype=float)
    if boxes.ndim != 2 or boxes.shape[1] != 7:
        raise ValueError(f"{name} must have shape (n, 7), got {boxes.shape}")
    if not np.all(np.isfinite(boxes)):
        raise ValueError(f"{name}: box parameters must be finite")
    if np.any(boxes[:, 3:6] <= 0):
        raise ValueError(f"{name}: box extents must be positive")
    return boxes


def _box_pairs(a: np.ndarray, b: np.ndarray, b_name: str = "b") -> tuple[np.ndarray, np.ndarray]:
    """Validated, index-aligned (n, 7) box rows ``a`` and ``b``."""
    a = _box_rows(a, "a")
    b = _box_rows(b, b_name)
    if a.shape != b.shape:
        raise ValueError(f"box arrays differ in shape: {a.shape} vs {b.shape}")
    return a, b


# Corner order of _bev_corners: (u, v) = (+-hl, +-hw).  Multiplying by -1
# is an exact negation.
_CORNER_U = np.array([1.0, -1.0, -1.0, 1.0])
_CORNER_V = np.array([1.0, 1.0, -1.0, -1.0])


def _bev_corners_rows(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 4) x and z footprint corners of (N, 7) boxes, as in _bev_corners."""
    yaw = params[:, 6].tolist()
    # math.cos/sin, not np.cos/sin: the two may differ in the last bit.
    c = np.fromiter(map(math.cos, yaw), float, len(yaw))[:, None]
    s = np.fromiter(map(math.sin, yaw), float, len(yaw))[:, None]
    u = (0.5 * params[:, 3:4]) * _CORNER_U
    v = (0.5 * params[:, 4:5]) * _CORNER_V
    return params[:, 0:1] + u * c - v * s, params[:, 2:3] + u * s + v * c


def _compact(x: np.ndarray, z: np.ndarray, keep: np.ndarray):
    """Order-preserving compaction of the kept vertices of every row."""
    count = keep.sum(axis=1)
    width = int(count.max()) if count.size else 0
    # Boolean indexing walks both masks in row-major order, so row i's kept
    # vertices land, in order, in its first count[i] slots.
    slots = np.arange(width)[None, :] < count[:, None]
    ox = np.zeros((x.shape[0], width))
    oz = np.zeros((x.shape[0], width))
    ox[slots] = x[keep]
    oz[slots] = z[keep]
    return ox, oz, count


def _cyclic(n: np.ndarray, width: int, shift: int) -> np.ndarray:
    """Per-row index of the vertex ``shift`` steps along a cycle of n[row]."""
    return (np.arange(width)[None, :] + shift) % np.maximum(n, 1)[:, None]


# np.hypot and math.hypot may differ by one ulp.  Only the side of
# MERGE_TOL a distance falls on matters, so values this close to the
# tolerance are recomputed with math.hypot, as the scalar path does.
_NEAR_TOL = 1e-12 * MERGE_TOL


def _math_hypot_at(h: np.ndarray, dx: np.ndarray, dz: np.ndarray, near: np.ndarray) -> np.ndarray:
    """``h`` with the entries flagged in ``near`` recomputed by math.hypot."""
    if np.any(near):
        h = h.copy()
        h[near] = [math.hypot(a, b) for a, b in zip(dx[near].tolist(), dz[near].tolist())]
    return h


def _beyond_merge_tol(dx: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Elementwise ``math.hypot(dx, dz) > MERGE_TOL``."""
    h = np.hypot(dx, dz)
    h = _math_hypot_at(h, dx, dz, np.abs(h - MERGE_TOL) <= _NEAR_TOL)
    return h > MERGE_TOL


def _clip_edge_rows(x, z, n, ax, az, bx, bz):
    """One Sutherland-Hodgman pass of every row against its edge a -> b."""
    rows, width = x.shape
    valid = np.arange(width)[None, :] < n[:, None]
    ex, ez = (bx - ax)[:, None], (bz - az)[:, None]
    ax, az = ax[:, None], az[:, None]
    inside = ex * (z - az) - ez * (x - ax) >= 0.0
    r, prev = np.arange(rows)[:, None], _cyclic(n, width, -1)
    px, pz, prev_in = x[r, prev], z[r, prev], inside[r, prev]
    dx, dz = x - px, z - pz
    den = ex * dz - ez * dx
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ex * (az - pz) - ez * (ax - px)) / den
    t = np.where(t > 0.0, t, 0.0)  # max(0.0, t)
    t = np.where(t < 1.0, t, 1.0)  # min(1.0, t)
    hit = den != 0.0
    # Each input vertex emits its crossing point (if any), then itself.
    cand_x = np.empty((rows, 2 * width))
    cand_z = np.empty((rows, 2 * width))
    keep = np.empty((rows, 2 * width), dtype=bool)
    cand_x[:, 0::2] = np.where(hit, px + t * dx, x)
    cand_z[:, 0::2] = np.where(hit, pz + t * dz, z)
    cand_x[:, 1::2] = x
    cand_z[:, 1::2] = z
    keep[:, 0::2] = valid & (inside != prev_in)
    keep[:, 1::2] = valid & inside
    return _compact(cand_x, cand_z, keep)


def _dedup_rows(x, z, n, rows):
    """Sequential duplicate pass of _merge_degenerate over the given rows."""
    x, z, n = x[rows], z[rows], n[rows]
    keep = np.zeros(x.shape, dtype=bool)
    last_x, last_z = x[:, 0], z[:, 0]
    for k in range(x.shape[1]):
        kept = (k < n) & ((k == 0) | _beyond_merge_tol(x[:, k] - last_x, z[:, k] - last_z))
        keep[:, k] = kept
        last_x = np.where(kept, x[:, k], last_x)
        last_z = np.where(kept, z[:, k], last_z)
    return keep


def _merge_degenerate_rows(x, z, n):
    """Row-wise :func:`_merge_degenerate`; returns the merged rows and counts."""
    width = x.shape[1]
    valid = np.arange(width)[None, :] < n[:, None]
    # Duplicates: a vertex is kept when it is the first, or farther than
    # MERGE_TOL from the last vertex kept.  Rows whose consecutive vertices
    # are all farther apart keep every vertex; the rest replay the pass.
    near_prev = valid[:, 1:] & ~_beyond_merge_tol(x[:, 1:] - x[:, :-1], z[:, 1:] - z[:, :-1])
    replay = np.flatnonzero(near_prev.any(axis=1))
    keep = valid
    if replay.size:
        keep = valid.copy()
        keep[replay] = _dedup_rows(x, z, n, replay)
    x, z, n = _compact(x, z, keep)
    # Trailing vertices within MERGE_TOL of the first are popped.
    active = np.flatnonzero(n > 1)
    while active.size:
        last = n[active] - 1
        close = ~_beyond_merge_tol(x[active, 0] - x[active, last], z[active, 0] - z[active, last])
        active = active[close]
        n[active] -= 1
        active = active[n[active] > 1]
    # Collinear vertices within MERGE_TOL of the chord of their neighbours
    # are dropped.  Rows under 3 vertices are returned as they are.
    rows, width = x.shape
    r = np.arange(rows)[:, None]
    prev, nxt = _cyclic(n, width, -1), _cyclic(n, width, 1)
    px, pz, qx, qz = x[r, prev], z[r, prev], x[r, nxt], z[r, nxt]
    ex, ez = qx - px, qz - pz
    cross = np.abs(ex * (z - pz) - ez * (x - px))
    elen = np.hypot(ex, ez)
    with np.errstate(divide="ignore", invalid="ignore"):
        perp = cross / elen
        near = (elen > 0.0) & (np.abs(perp - MERGE_TOL) <= _NEAR_TOL)
        if np.any(near):
            elen = _math_hypot_at(elen, ex, ez, near)
            perp = cross / elen
    valid = np.arange(width)[None, :] < n[:, None]
    drop = (n >= 3)[:, None] & (elen > 0.0) & (perp <= MERGE_TOL)
    return _compact(x, z, valid & ~drop)


def _clip_area_rows(sx: np.ndarray, sz: np.ndarray, cx: np.ndarray, cz: np.ndarray) -> np.ndarray:
    """``max(0, _signed_area(_clip(S_i, C_i)))`` for N convex quad pairs.

    ``sx``/``sz`` hold the (N, 4) subject corners, ``cx``/``cz`` the clip
    corners, both counter-clockwise.  Bit-identical to the scalar path.
    """
    x, z = sx, sz
    n = np.full(len(sx), sx.shape[1])
    for i in range(4):
        if x.shape[1] == 0:
            break
        j = (i + 1) % 4
        x, z, n = _clip_edge_rows(x, z, n, cx[:, i], cz[:, i], cx[:, j], cz[:, j])
    x, z, n = _merge_degenerate_rows(x, z, n)
    # Shoelace, summed left to right (np.cumsum is sequential).
    rows, width = x.shape
    r, nxt = np.arange(rows)[:, None], _cyclic(n, width, 1)
    valid = np.arange(width)[None, :] < n[:, None]
    terms = x * z[r, nxt] - x[r, nxt] * z
    acc = np.cumsum(np.where(valid, terms, 0.0), axis=1)
    area = np.zeros(rows)
    full = n >= 3
    area[full] = 0.5 * acc[full, n[full] - 1]
    return np.where(area > 0.0, area, 0.0)


def _lex_le(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Python tuple comparison ``tuple(a_i) <= tuple(b_i)``."""
    out = np.ones(len(a), dtype=bool)
    for k in reversed(range(a.shape[1])):
        out = np.where(a[:, k] != b[:, k], a[:, k] < b[:, k], out)
    return out


def _circles_apart(a: Box3D, b: Box3D) -> bool:
    """Cheap reject: the footprints' circumcircles are disjoint, so the
    footprints cannot overlap."""
    ra = 0.5 * math.hypot(a.l, a.w)
    rb = 0.5 * math.hypot(b.l, b.w)
    return math.hypot(a.cx - b.cx, a.cz - b.cz) > ra + rb


def _circles_meet_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``not _circles_apart(a_i, b_i)``.  Rows near the tie are
    recomputed with math.hypot, which np.hypot may miss by one ulp."""
    dx, dz = a[:, 0] - b[:, 0], a[:, 2] - b[:, 2]
    la, wa, lb, wb = a[:, 3], a[:, 4], b[:, 3], b[:, 4]
    dist, ha, hb = np.hypot(dx, dz), np.hypot(la, wa), np.hypot(lb, wb)
    reach = 0.5 * ha + 0.5 * hb
    near = np.abs(dist - reach) <= 1e-12 * reach
    if np.any(near):
        dist = _math_hypot_at(dist, dx, dz, near)
        reach = 0.5 * _math_hypot_at(ha, la, wa, near) + 0.5 * _math_hypot_at(hb, lb, wb, near)
    return dist <= reach


def _bev_iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _box_pairs(a, b)
    out = np.zeros(len(a))
    idx = np.flatnonzero(_circles_meet_rows(a, b))
    a, b = a[idx], b[idx]
    key = [0, 2, 3, 4, 6]  # (cx, cz, l, w, yaw), the scalar clip order
    first = _lex_le(a[:, key], b[:, key])[:, None]
    inter = _clip_area_rows(
        *_bev_corners_rows(np.where(first, a, b)), *_bev_corners_rows(np.where(first, b, a))
    )
    union = a[:, 3] * a[:, 4] + b[:, 3] * b[:, 4] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = inter / union
    iou = np.where(iou < 1.0, iou, 1.0)
    out[idx] = np.where(union <= DEGENERATE_UNION, 0.0, iou)
    return out


def bev_iou(a: Box3D | np.ndarray, b: Box3D | np.ndarray) -> float | np.ndarray:
    """Footprint IoU in the BEV plane (no vertical term).

    Takes two :class:`Box3D` (returns a float) or two (n, 7) arrays of box
    parameters (returns the n row-wise IoUs, bit-identical to the per-pair
    calls).
    """
    if not isinstance(a, Box3D):
        return _bev_iou_rows(a, b)
    if _circles_apart(a, b):
        return 0.0
    if (a.cx, a.cz, a.l, a.w, a.yaw) <= (b.cx, b.cz, b.l, b.w, b.yaw):
        inter = _bev_intersection_area(a, b)
    else:
        inter = _bev_intersection_area(b, a)
    union = a.l * a.w + b.l * b.w - inter
    if union <= DEGENERATE_UNION:
        return 0.0
    return min(1.0, inter / union)


def _y_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertical overlap of boxes ``a`` and ``b``, rows (..., 7) that broadcast."""
    # Python's min(x, y) is y only when y < x; max(x, y) only when y > x.
    a_top, b_top = a[..., 1] + 0.5 * a[..., 5], b[..., 1] + 0.5 * b[..., 5]
    a_bottom, b_bottom = a[..., 1] - 0.5 * a[..., 5], b[..., 1] - 0.5 * b[..., 5]
    return np.where(b_top < a_top, b_top, a_top) - np.where(
        b_bottom > a_bottom, b_bottom, a_bottom
    )


def _iou_from_bev(
    bev: np.ndarray, y_overlap: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """IoU of boxes ``a`` and ``b`` whose footprints overlap by ``bev``.

    The scalar iou3d's arithmetic after the clip: intersection volume,
    union, degenerate test and clamp to [0, 1].  Returns the IoUs and the
    degenerate-union mask, for the caller to count.
    """
    inter = np.where(y_overlap > 0.0, bev * y_overlap, 0.0)
    union = a[..., 3] * a[..., 4] * a[..., 5] + b[..., 3] * b[..., 4] * b[..., 5] - inter
    degenerate = union <= DEGENERATE_UNION
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = inter / union
    ratio = np.where(ratio > 0.0, ratio, 0.0)
    return np.where(degenerate, 0.0, np.where(ratio < 1.0, ratio, 1.0)), degenerate


def _clip_order(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subject and clip rows of each pair, in the scalar iou3d's 7-key order."""
    first = _lex_le(a, b)[:, None]
    return np.where(first, a, b), np.where(first, b, a)


def _iou3d_rows(a: np.ndarray, b: np.ndarray, flags: GeometryFlags | None) -> np.ndarray:
    a, b = _box_pairs(a, b)
    y_overlap = _y_overlap(a, b)
    bev = np.zeros(len(a))
    idx = np.flatnonzero(y_overlap > 0.0)
    idx = idx[_circles_meet_rows(a[idx], b[idx])]
    if idx.size:
        subject, clip = _clip_order(a[idx], b[idx])
        bev[idx] = _clip_area_rows(*_bev_corners_rows(subject), *_bev_corners_rows(clip))
    iou, degenerate = _iou_from_bev(bev, y_overlap, a, b)
    if flags is not None:
        flags.degenerate_union += int(np.count_nonzero(degenerate))
    return iou


def iou3d(
    a: Box3D | np.ndarray, b: Box3D | np.ndarray, flags: GeometryFlags | None = None
) -> float | np.ndarray:
    """Rotated 3D IoU of two boxes, in [0, 1].

    Takes two :class:`Box3D` (returns a float) or two (n, 7) arrays of box
    parameters (returns the n row-wise IoUs in one batched clip,
    bit-identical to the per-pair calls and with the same flag counts).
    Pairs without vertical overlap, or whose footprints' circumcircles are
    disjoint (the reject of :func:`bev_iou`), skip the clip.
    """
    if not isinstance(a, Box3D):
        return _iou3d_rows(a, b, flags)
    y_overlap = min(a.cy + 0.5 * a.h, b.cy + 0.5 * b.h) - max(
        a.cy - 0.5 * a.h, b.cy - 0.5 * b.h
    )
    if y_overlap <= 0.0 or _circles_apart(a, b):
        inter = 0.0
    else:
        # Clip in a canonical order so iou3d(a, b) and iou3d(b, a) run the
        # identical float sequence and agree bit-for-bit.
        ka = (a.cx, a.cy, a.cz, a.l, a.w, a.h, a.yaw)
        kb = (b.cx, b.cy, b.cz, b.l, b.w, b.h, b.yaw)
        if ka <= kb:
            inter = _bev_intersection_area(a, b) * y_overlap
        else:
            inter = _bev_intersection_area(b, a) * y_overlap
    union = a.volume + b.volume - inter
    if union <= DEGENERATE_UNION:
        if flags is not None:
            flags.degenerate_union += 1
        return 0.0
    return min(1.0, max(0.0, inter / union))


class MonteCarloIoU(NamedTuple):
    value: float
    stderr: float
    n_union_hits: int


def in_footprint(
    x: np.ndarray, z: np.ndarray, box: Sequence[float], margin: float = 0.0
) -> np.ndarray:
    """Boolean mask of the points (x, z) inside the BEV footprint of
    ``box``, a (cx, cy, cz, l, w, h, yaw) row, grown by ``margin`` per
    side: each point's offset is turned into the box's frame and compared
    with the half extents plus the margin."""
    cx, _, cz, l, w, _, yaw = box
    dx = x - cx
    dz = z - cz
    c, s = math.cos(yaw), math.sin(yaw)
    u = dx * c + dz * s
    v = -dx * s + dz * c
    return (np.abs(u) <= 0.5 * l + margin) & (np.abs(v) <= 0.5 * w + margin)


def _points_in_box(box: Box3D, pts: np.ndarray) -> np.ndarray:
    """Boolean mask of sample points (n, 3 = x, y, z) inside an oriented box."""
    in_height = np.abs(pts[:, 1] - box.cy) <= 0.5 * box.h
    return in_footprint(pts[:, 0], pts[:, 2], box.as_array().tolist()) & in_height


def iou3d_mc_oracle(a: Box3D, b: Box3D, n_samples: int, seed: int) -> MonteCarloIoU:
    """Monte-Carlo IoU estimate, independent of the clipping path.

    Samples uniformly in the axis-aligned bounding box of the two boxes and
    counts membership via point-in-oriented-box tests.  The standard error
    is the binomial error of the conditional hit fraction.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    corners = []
    for box in (a, b):
        bev = _bev_corners(box)
        for x, z in bev:
            corners.append((x, box.cy - 0.5 * box.h, z))
            corners.append((x, box.cy + 0.5 * box.h, z))
    lo = np.min(np.array(corners), axis=0)
    hi = np.max(np.array(corners), axis=0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pts = rng.uniform(lo, hi, size=(n_samples, 3))
    in_a = _points_in_box(a, pts)
    in_b = _points_in_box(b, pts)
    n_union = int(np.count_nonzero(in_a | in_b))
    n_inter = int(np.count_nonzero(in_a & in_b))
    if n_union == 0:
        return MonteCarloIoU(0.0, 0.0, 0)
    p = n_inter / n_union
    stderr = math.sqrt(max(0.0, p * (1.0 - p)) / n_union)
    return MonteCarloIoU(p, stderr, n_union)


#: Canonical finite-difference steps per box parameter, order
#: (cx, cy, cz, l, w, h, yaw): 1e-3 m for center/size, 1e-3 rad for yaw.
DEFAULT_FD_STEPS = np.full(7, 1e-3)

SIZE_FLOOR = 1e-6


# Parameters whose perturbation moves the footprint; cy (1) and h (5) reuse
# the unperturbed footprint's intersection area.
_FOOTPRINT_PARAMS = [0, 2, 3, 4, 6]


def _fd_steps(steps: np.ndarray | None) -> np.ndarray:
    steps = DEFAULT_FD_STEPS if steps is None else np.asarray(steps, dtype=float)
    # A positive test, so that NaN steps fail it too.
    if steps.shape != (7,) or not np.all((steps > 0) & (steps < math.inf)):
        raise ValueError("steps must be 7 positive values")
    return steps


def _iou3d_grad_fd_rows(
    a: np.ndarray,
    b_const: np.ndarray,
    steps: np.ndarray | None,
    flags: GeometryFlags | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The IoUs and the central-difference gradients of n box pairs, from
    one batched clip."""
    steps = _fd_steps(steps)
    a, b = _box_pairs(a, b_const, "b_const")
    n = len(a)
    eye = np.eye(7, dtype=bool)
    # (n, 7, 7): row i of plus/minus perturbs parameter i only.
    plus = np.where(eye, a[:, None, :] + steps, a[:, None, :])
    minus = np.where(eye, a[:, None, :] - steps, a[:, None, :])
    sizes = [3, 4, 5]
    for pert in (plus, minus):
        low = pert[:, sizes, sizes] < SIZE_FLOOR  # (n, 3)
        if np.any(low):
            rows, cols = np.nonzero(low)
            pert[rows, cols + 3, cols + 3] = SIZE_FLOOR
            if flags is not None:
                flags.size_clamped += len(rows)
    span = plus[:, eye] - minus[:, eye]  # (n, 7)

    # Clip rows: each a against b (the base footprint), the footprint
    # perturbations against b, then, for the IoUs, the pairs with vertical
    # overlap in iou3d's clip order.  The kernel is row-independent, so
    # every area equals that of a separate call.
    k = len(_FOOTPRINT_PARAMS)
    y_overlap = _y_overlap(a, b)
    idx = np.flatnonzero(y_overlap > 0.0)
    subject, clip = _clip_order(a[idx], b[idx])
    subjects = [a, *(pert[:, _FOOTPRINT_PARAMS].reshape(-1, 7) for pert in (plus, minus)), subject]
    clip_corners = [
        [c, np.repeat(c, k, axis=0), np.repeat(c, k, axis=0), c_pair]
        for c, c_pair in zip(_bev_corners_rows(b), _bev_corners_rows(clip))
    ]
    areas = _clip_area_rows(
        *_bev_corners_rows(np.concatenate(subjects)), *(np.concatenate(c) for c in clip_corners)
    )
    bev = np.empty((n, 7, 2))  # (box, parameter, plus / minus)
    bev[:] = areas[:n, None, None]
    bev[:, _FOOTPRINT_PARAMS, 0] = areas[n : n + n * k].reshape(n, k)
    bev[:, _FOOTPRINT_PARAMS, 1] = areas[n + n * k : n + 2 * n * k].reshape(n, k)

    p = np.stack([plus, minus], axis=2)  # (n, 7, 2, 7)
    b_p = b[:, None, None, :]
    value, degenerate = _iou_from_bev(bev, _y_overlap(p, b_p), p, b_p)
    moved = span != 0.0  # a zero span skips the evaluation, and its flags
    if flags is not None:
        flags.degenerate_union += int(np.count_nonzero(degenerate & moved[:, :, None]))
    grad = np.zeros((n, 7))
    grad[moved] = (value[..., 0][moved] - value[..., 1][moved]) / span[moved]
    pair_bev = np.zeros(n)
    pair_bev[idx] = areas[n + 2 * n * k :]
    iou, degenerate = _iou_from_bev(pair_bev, y_overlap, a, b)
    if flags is not None:
        flags.degenerate_union += int(np.count_nonzero(degenerate))
    return iou, grad


def iou3d_grad_fd(
    a: np.ndarray,
    b_const: np.ndarray,
    steps: np.ndarray | None = None,
    flags: GeometryFlags | None = None,
) -> np.ndarray:
    """The gradient of :func:`iou3d_and_grad_fd`.

    ``flags`` counts what that call counts, the degenerate-union guard of
    the pairs' own IoUs included.
    """
    return iou3d_and_grad_fd(a, b_const, steps, flags)[1]


def iou3d_and_grad_fd(
    a: np.ndarray,
    b_const: np.ndarray,
    steps: np.ndarray | None = None,
    flags: GeometryFlags | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``iou3d(a, b_const, flags)`` and the central-difference gradient of
    iou3d w.r.t. the 7 parameters of ``a``, from one batched clip.

    ``a`` and ``b_const`` are (n, 7) arrays of box parameters; ``b_const``
    is held fixed (the stop-gradient target).  Returns the (n,) IoUs, bit
    for bit those of :func:`iou3d`, and the (n, 7) row-wise gradients.
    ``steps`` must be 7 finite positive values.  Perturbations that would
    drive an extent non-positive are clamped at SIZE_FLOOR and counted in
    ``flags.size_clamped``; the actual parameter difference is used as the
    divisor so the estimate stays consistent.  ``flags.degenerate_union``
    counts the guard hits of the perturbed and of the unperturbed pairs.
    """
    return _iou3d_grad_fd_rows(a, b_const, steps, flags)
