"""Desk-scale detection testbed.

Synthetic scenes with disjoint ground-truth boxes, per-position feature
vectors derived from local geometry plus modality noise, a noise-calibrated
teacher oracle standing in for the accurate-modality detector, and a
trainable linear student.  Training minimizes the combined hard-label and
distillation objective with Adam; every operation is a pure function of its
inputs and explicit seeds.
"""
from __future__ import annotations

import contextvars
import json
import math
import os
import threading
from contextlib import closing
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .anchors import (
    AnchorGrid,
    Assignment,
    decode_deltas,
    encode_deltas,
    positive_target_deltas,
)
from .blas import openblas_threads_set
from .cld import LogitMap, UnifiedDistribution, cld_grad, cld_loss, unified_distribution
from .geometry import Box3D, GeometryFlags, bev_iou, in_footprint, wrap_angle
from .xgd import (
    COMPONENT_NAMES,
    gate_decisions,
    gate_keep_rates,
    positive_component_update,
    xgd_loss,  # noqa: F401  (benchmarks/spans.py wraps sim.xgd_loss and sim.xgd_loss_grad)
    xgd_loss_and_grad,
    xgd_loss_grad,  # noqa: F401
)

# Stream tags mixed into SeedSequence entropy; they keep scene sampling,
# teacher noise, parameter init, and batch shuffling independent.
_STREAM_SCENE = 101
_STREAM_TEACHER = 202
_STREAM_INIT = 303
_STREAM_SHUFFLE = 404

BACKGROUND_LOGIT = -4.0
PEAK_LOGIT = 3.5


class SceneTooDenseError(RuntimeError):
    """Raised when rejection sampling cannot place the requested objects."""


class TrainingDivergedError(RuntimeError):
    """Raised when training stops being finite: the loss, the weights after
    an Adam step, or the student's positive-anchor deltas.

    ``snapshot`` holds the epoch, the scene seed, the last finite
    ``LossBreakdown`` (None before the first one) and the per-tensor
    gradient norms of the last Adam step (empty before the first one).
    """

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass(frozen=True)
class NoiseProfile:
    """Modality error model: positional / size / heading noise, a chance of
    reporting the wrong class, and depth error that grows with distance."""

    center_sigma: float = 0.0
    size_sigma: float = 0.0
    yaw_sigma: float = 0.0
    score_corruption: float = 0.0
    depth_bias: float = 0.0

    def __post_init__(self) -> None:
        # Positive tests, so that NaN fails too.
        for name in ("center_sigma", "size_sigma", "yaw_sigma", "score_corruption", "depth_bias"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.score_corruption <= 1:
            raise ValueError("score_corruption is a probability")


# Fixed scene-sampler conventions: each object's heading, its size scale
# per extent (relative to its class template), and its height; the BEV
# clearance kept between footprints; how far past a footprint its features
# reach; and the student modality's error model.
YAW_RANGE = (-math.pi / 3, math.pi / 3)
SIZE_SCALE_RANGE = (0.9, 1.15)
CY_RANGE = (0.9, 1.1)
MIN_GAP = 0.5
FEATURE_DILATION = 0.9
STUDENT_NOISE = NoiseProfile(
    center_sigma=0.06,
    size_sigma=0.04,
    yaw_sigma=0.05,
    score_corruption=0.08,
    depth_bias=0.002,
)


@dataclass(frozen=True)
class SceneConfig:
    n_objects: tuple[int, int] = (6, 11)
    # sampling weights per class id; empty means uniform.  The default
    # mirrors street scenes where car-sized objects dominate.
    class_weights: tuple[float, ...] = (0.45, 0.3, 0.25)
    border_margin: float = 2.5
    feature_dim: int = 16
    ambient_noise: float = 0.02
    max_rejects: int = 10_000

    def __post_init__(self) -> None:
        lo, hi = self.n_objects
        if not 0 <= lo <= hi:
            raise ValueError(f"n_objects must be a range 0 <= lo <= hi, got {list(self.n_objects)}")
        # Positive tests, so that NaN fails too.
        weights = self.class_weights
        if weights and not (all(0 <= w < math.inf for w in weights) and sum(weights) > 0):
            raise ValueError(f"class_weights must be finite, >= 0 and of positive sum, got {list(weights)}")
        if self.max_rejects < 1:
            raise ValueError(f"max_rejects must be >= 1, got {self.max_rejects}")
        if not self.ambient_noise >= 0:
            raise ValueError(f"ambient_noise must be >= 0, got {self.ambient_noise}")

    def check_classes(self, k_c: int) -> None:
        """Check the settings that depend on the grid's class count."""
        if self.class_weights and len(self.class_weights) != k_c:
            raise ValueError(
                f"class_weights must hold one weight per class ({k_c}), got {len(self.class_weights)}"
            )
        if self.feature_dim < 10 + k_c:
            raise ValueError(f"feature_dim {self.feature_dim} too small; need >= {10 + k_c}")


@dataclass(frozen=True)
class Scene:
    """Ground truth plus the (noisy) per-position features the student sees;
    every array is read-only.

    The features are zero away from objects apart from ambient noise, so a
    scene keeps only the rows of the positions near an object (``visible``,
    ascending, and their noise-free ``rows``) and the state of the noise
    stream just before its ambient draw (``noise_state``, None without
    ambient noise).  ``features`` rebuilds the dense array from these on
    each read.
    """

    boxes: np.ndarray  # (n_gt, 7) rows (cx, cy, cz, l, w, h, yaw)
    class_ids: np.ndarray  # (n_gt,) int64, the class of each row
    visible: np.ndarray  # (n_vis,) int64 position indices, ascending
    rows: np.ndarray  # (n_vis, feature_dim) features at ``visible`` before ambient noise
    n_positions: int
    seed: int
    noise_state: dict | None = None  # PCG64 state before the ambient draw
    ambient_noise: float = 0.0  # standard deviation of that draw

    def __post_init__(self) -> None:
        for arr in (self.boxes, self.class_ids, self.visible, self.rows):
            arr.setflags(write=False)

    @property
    def feature_dim(self) -> int:
        return self.rows.shape[1]

    @property
    def features(self) -> np.ndarray:
        """Dense read-only (n_positions, feature_dim) features, rebuilt bit
        for bit on each read: the ambient noise redrawn from its stream
        state, plus the visible rows.  A scene with every position visible
        and no noise returns its rows."""
        if self.noise_state is None:
            if self.visible.size == self.n_positions:
                return self.rows
            features = np.zeros((self.n_positions, self.feature_dim))
            features[self.visible] = self.rows
        else:
            bits = np.random.PCG64(0)
            bits.state = self.noise_state
            features = np.random.Generator(bits).normal(
                0.0, self.ambient_noise, (self.n_positions, self.feature_dim)
            )
            features[self.visible] += self.rows
        features.setflags(write=False)
        return features

    @property
    def gts(self) -> tuple[tuple[Box3D, int], ...]:
        """(Box3D, class id) pairs for scalar code, rebuilt on each read."""
        return tuple((Box3D.from_array(r), c) for r, c in zip(self.boxes, self.class_ids.tolist()))


def generate_scene(rng_seed: int, config: SceneConfig, grid: AnchorGrid) -> Scene:
    """Sample a scene with pairwise-disjoint footprints, fully seeded.

    Object footprints keep ``MIN_GAP`` meters of BEV clearance, so no two
    ground truths ever overlap.  Features encode the nearest visible
    object's geometry as estimated through the student modality's noise.
    """
    config.check_classes(grid.k_c)
    rng = np.random.default_rng(np.random.SeedSequence((rng_seed, _STREAM_SCENE)))
    lo, hi = config.n_objects
    n_target = int(rng.integers(lo, hi + 1))
    x_lo = grid.origin[0] + config.border_margin
    x_hi = grid.origin[0] + grid.nx * grid.cell[0] - config.border_margin
    z_lo = grid.origin[1] + config.border_margin
    z_hi = grid.origin[1] + grid.nz * grid.cell[1] - config.border_margin

    class_sizes = _template_sizes(grid)
    gts: list[tuple[Box3D, int]] = []
    footprints: list[Box3D] = []  # each placed box grown by MIN_GAP
    class_p = None
    if config.class_weights:
        weights = np.asarray(config.class_weights, dtype=float)
        class_p = weights / weights.sum()
    attempts = 0
    while len(gts) < n_target:
        attempts += 1
        if attempts > config.max_rejects:
            raise SceneTooDenseError(
                f"failed to place object {len(gts) + 1}/{n_target} after {config.max_rejects} attempts"
            )
        if class_p is not None:
            class_id = int(rng.choice(grid.k_c, p=class_p))
        else:
            class_id = int(rng.integers(0, grid.k_c))
        base_l, base_w, base_h = class_sizes[class_id]
        sl, sw, sh = rng.uniform(*SIZE_SCALE_RANGE, size=3)
        box = Box3D(
            cx=float(rng.uniform(x_lo, x_hi)),
            cy=float(rng.uniform(*CY_RANGE)),
            cz=float(rng.uniform(z_lo, z_hi)),
            l=base_l * sl,
            w=base_w * sw,
            h=base_h * sh,
            yaw=float(rng.uniform(*YAW_RANGE)),
        )
        grown = replace(box, l=box.l + MIN_GAP, w=box.w + MIN_GAP)
        if all(bev_iou(grown, g) == 0.0 for g in footprints):
            gts.append((box, class_id))
            footprints.append(grown)

    boxes = np.array([box.as_array() for box, _ in gts]).reshape(-1, 7)
    class_ids = np.array([c for _, c in gts], dtype=np.int64)
    visible, rows = _embed_features(boxes, class_ids, grid, config, rng)
    # The ambient noise is the stream's last draw: keep the state that
    # draws it, not the (n_positions, feature_dim) noise.
    noise_state = rng.bit_generator.state if config.ambient_noise > 0 else None
    return Scene(
        boxes, class_ids, visible, rows, grid.n_positions, rng_seed, noise_state, config.ambient_noise
    )


def _template_sizes(grid: AnchorGrid) -> dict[int, tuple[float, float, float]]:
    sizes: dict[int, tuple[float, float, float]] = {}
    for t in grid.templates:
        sizes.setdefault(t.class_id, (t.l, t.w, t.h))
    return sizes


def _embed_features(
    boxes: np.ndarray,
    class_ids: np.ndarray,
    grid: AnchorGrid,
    config: SceneConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position geometry embedding seen through the student modality,
    before ambient noise: the positions near an object and their rows.

    Layout: [occupancy, dx, dy, dz, l, w, h, sin yaw, cos yaw,
    one-hot class (k_c), squared BEV offset, zero padding].  Noise enters
    through a perturbed copy of the object, so offsets, sizes, and the
    derived distance stay mutually consistent; depth error grows with z.
    """
    k_c = grid.k_c
    dim = config.feature_dim
    centers = grid.position_centers
    n = centers.shape[0]
    noise = STUDENT_NOISE

    visible_gt = np.full(n, -1, dtype=np.int64)
    best_d2 = np.full(n, np.inf)
    for g, box in enumerate(boxes.tolist()):
        dx = centers[:, 0] - box[0]
        dz = centers[:, 1] - box[2]
        d2 = dx * dx + dz * dz
        take = in_footprint(centers[:, 0], centers[:, 1], box, FEATURE_DILATION) & (d2 < best_d2)
        visible_gt[take] = g
        best_d2[take] = d2[take]

    # Each visible position draws seven normals (center x, y, z, log sizes,
    # yaw), then the class-corruption coin and, if it lands, a class.
    visible = np.flatnonzero(visible_gt >= 0)
    obj = boxes[visible_gt[visible]]
    seen_class = class_ids[visible_gt[visible]]
    normals = np.empty((visible.size, 7))
    for k in range(visible.size):
        rng.standard_normal(out=normals[k])
        if noise.score_corruption > 0 and rng.random() < noise.score_corruption:
            seen_class[k] = rng.integers(0, k_c)
    scale = np.empty_like(normals)
    scale[:, 0:2] = noise.center_sigma
    scale[:, 2] = noise.center_sigma + noise.depth_bias * obj[:, 2]
    scale[:, 3:6] = noise.size_sigma
    scale[:, 6] = noise.yaw_sigma
    shift = 0.0 + scale * normals  # as rng.normal(0.0, scale) draws it
    dx = obj[:, 0] + shift[:, 0] - centers[visible, 0]
    dz = obj[:, 2] + shift[:, 2] - centers[visible, 1]
    yaw = (obj[:, 6] + shift[:, 6]).tolist()
    rows = np.zeros((visible.size, dim))
    rows[:, 0] = 1.0
    rows[:, 1] = dx
    rows[:, 2] = obj[:, 1] + shift[:, 1] - 1.0
    rows[:, 3] = dz
    rows[:, 4:7] = obj[:, 3:6] * np.exp(shift[:, 3:6])
    rows[:, 7] = np.fromiter(map(math.sin, yaw), float, len(yaw))
    rows[:, 8] = np.fromiter(map(math.cos, yaw), float, len(yaw))
    rows[np.arange(visible.size), 9 + seen_class] = 1.0
    rows[:, 9 + k_c] = dx * dx + dz * dz
    return visible, rows


@dataclass(frozen=True)
class DetectorOutputs:
    """Dense head outputs on the shared grid."""

    logits: np.ndarray  # (n_positions, k_a, k_c)
    deltas: np.ndarray  # (n_positions, k_a, 7)

    def __post_init__(self) -> None:
        if self.logits.ndim != 3 or self.deltas.ndim != 3 or self.deltas.shape[2] != 7:
            raise ValueError("outputs must be (n_positions, k_a, k_c) and (n_positions, k_a, 7)")
        if self.logits.shape[:2] != self.deltas.shape[:2]:
            raise ValueError("logits and deltas disagree on positions/anchors")
        self.logits.setflags(write=False)
        self.deltas.setflags(write=False)

    @property
    def logits_flat(self) -> np.ndarray:
        """(n_anchors, k_c); anchor row index = position * k_a + slot."""
        return self.logits.reshape(-1, self.logits.shape[2])

    @property
    def deltas_flat(self) -> np.ndarray:
        return self.deltas.reshape(-1, 7)


@dataclass(frozen=True)
class TeacherResponse:
    """The oracle teacher's outputs, kept as its positive-anchor rows.

    Off the positive anchors the teacher answers the constant background:
    ``BACKGROUND_LOGIT`` for every class and zero deltas.  These rows
    therefore determine its dense outputs (``dense``) and its CLD logit
    maps (``logit_map``); the three arrays are read-only.
    """

    anchors: np.ndarray  # (n_pos,) positive anchor indices, ascending
    logits: np.ndarray  # (n_pos, k_c): the peak at the reported class
    deltas: np.ndarray  # (n_pos, 7) encoded teacher boxes
    n_positions: int
    k_a: int

    def __post_init__(self) -> None:
        n = self.anchors.size
        rows_ok = self.anchors.shape == (n,) and self.logits.ndim == 2 and self.logits.shape[0] == n
        if not rows_ok or self.deltas.shape != (n, 7):
            raise ValueError("rows must be (n_pos,) anchors, (n_pos, k_c) logits and (n_pos, 7) deltas")
        for arr in (self.anchors, self.logits, self.deltas):
            arr.setflags(write=False)

    @property
    def k_c(self) -> int:
        return self.logits.shape[1]

    @property
    def grid_shape(self) -> tuple[int, int, int]:
        """Shape of the dense logits, (n_positions, k_a, k_c)."""
        return self.n_positions, self.k_a, self.k_c

    def dense(self) -> DetectorOutputs:
        """The dense outputs these rows stand for."""
        return DetectorOutputs(logits=self.dense_logits(), deltas=self.dense_deltas())

    def dense_logits(self) -> np.ndarray:
        """(n_positions, k_a, k_c) logits."""
        out = np.full((self.n_positions * self.k_a, self.k_c), BACKGROUND_LOGIT)
        out[self.anchors] = self.logits
        return out.reshape(self.grid_shape)

    def dense_deltas(self) -> np.ndarray:
        """(n_positions, k_a, 7) deltas."""
        # np.zeros leaves the pages that no positive touches unallocated
        # only while glibc serves this size by mmap; once its dynamic mmap
        # threshold has risen past it, the array comes from the heap and
        # every page is written.
        out = np.zeros((self.n_positions * self.k_a, 7))
        out[self.anchors] = self.deltas
        return out.reshape(self.n_positions, self.k_a, 7)

    def logit_map(self, positions: np.ndarray, k_a: int) -> LogitMap:
        """The rows of ``self.dense()``'s logits at the (sorted)
        ``positions`` (``verify.extract_logit_map``) without the dense
        array: background rows with the positives found there written in;
        other positives are skipped."""
        values = np.full((positions.size * self.k_a, self.k_c), BACKGROUND_LOGIT)
        position = self.anchors // self.k_a
        at = np.searchsorted(positions, position)
        found = at < positions.size
        found[found] = positions[at[found]] == position[found]
        values[at[found] * self.k_a + self.anchors[found] % self.k_a] = self.logits[found]
        return LogitMap(values=values, k_a=k_a)


@dataclass(frozen=True)
class DetectorParams:
    """One linear head pair shared over all grid positions."""

    w_cls: np.ndarray
    b_cls: np.ndarray
    w_reg: np.ndarray
    b_reg: np.ndarray

    def __post_init__(self) -> None:
        for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def init(cls, seed: int, feature_dim: int, k_a: int, k_c: int) -> "DetectorParams":
        rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_INIT)))
        w_cls = rng.normal(0.0, 0.01, size=(feature_dim, k_a * k_c))
        w_reg = rng.normal(0.0, 0.01, size=(feature_dim, k_a * 7))
        # Background prior ~1%: classification starts near its background
        # optimum instead of spending epochs suppressing scores.
        b_cls = np.full(k_a * k_c, -4.6)
        b_reg = np.zeros(k_a * 7)
        return cls(w_cls=w_cls, b_cls=b_cls, w_reg=w_reg, b_reg=b_reg)


def _step_arena_floats(grid: AnchorGrid) -> int:
    """Floats in a training worker's arena: the largest item of a scene's
    step, the classification side's four (n_anchors, k_c) arrays (logits,
    two focal temporaries, logit gradient), or one (n_anchors, 7) array
    (a regression head's output, then the delta gradient)."""
    return max(4 * grid.k_c, 7) * grid.n_anchors


class StepWorkspace:
    """The arrays a worker's steps write into.

    With an ``arena`` (``train`` gives each worker one, sized by
    _step_arena_floats), ``array`` and ``zeros`` hand out the arena's next
    unused stretch, and ``_SceneWorkers.map`` rewinds it before each item
    (a minibatch's item 0 also rewinds it before each scene), so nothing
    an item returns may be a workspace array.  Without one, each array is
    allocated exactly; the one-scene public functions run on such a fresh
    workspace, so what they return is never overwritten.
    """

    def __init__(self, arena: np.ndarray | None = None) -> None:
        self._arena = arena
        self._used = 0

    def rewind(self) -> None:
        """Hand the whole arena out again."""
        self._used = 0

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous float array of ``shape``; its contents are
        whatever the last user left.  Past the arena's end, reshape raises
        ValueError."""
        if self._arena is None:
            return np.empty(shape)
        start, self._used = self._used, self._used + math.prod(shape)
        return self._arena[start : self._used].reshape(shape)

    def zeros(self, shape: tuple[int, ...]) -> np.ndarray:
        """``array(shape)`` filled with zeros."""
        if self._arena is None:
            return np.zeros(shape)
        arr = self.array(shape)
        arr.fill(0.0)
        return arr


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _SceneWorkers:
    """Workers for the one map of a minibatch.

    Worker 0 is the calling thread; the others are threads of one pool,
    stopped by ``close``.  Each worker runs with its own StepWorkspace,
    whose arena, of ``arena_floats`` NaNs (none at 0), is rewound before
    each item; it is the one buffer a worker keeps from item to item.
    With one worker every call runs inline and no thread starts.
    """

    def __init__(self, n: int = 1, arena_floats: int = 0) -> None:
        # NaN, not zero pages: an item that reads what it has not written
        # spoils its results instead of reading zeros.
        self.workspaces = [
            StepWorkspace(np.full(arena_floats, np.nan) if arena_floats else None)
            for _ in range(n)
        ]
        self._pool = None
        if n > 1:
            # Imported here so that importing the package stays as fast.
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(max_workers=n - 1)

    def map(self, fn: Callable[[int, StepWorkspace], object], n_items: int) -> list:
        """``[fn(k, workspace) for k in range(n_items)]``, in batch order.

        Each worker takes the next item from a shared counter and runs it
        with its own workspace, so items start in order but may end in
        any order; an item may wait on a lower one, which has started
        already.  Returns once every call has ended; if calls raised,
        raises the exception of the lowest k.
        """
        results: list = [None] * n_items
        errors: dict[int, BaseException] = {}
        items = iter(range(n_items))
        lock = threading.Lock()

        def work(ws: StepWorkspace) -> None:
            while True:
                with lock:
                    k = next(items, None)
                if k is None:
                    return
                ws.rewind()
                try:
                    results[k] = fn(k, ws)
                except BaseException as exc:  # re-raised below, on the calling thread
                    errors[k] = exc

        # Each helper runs in a copy of the caller's context, so numpy's
        # error state (np.errstate) holds on every worker.
        helpers = self.workspaces[1:n_items]
        pending = [self._pool.submit(contextvars.copy_context().run, work, ws) for ws in helpers]
        work(self.workspaces[0])
        for future in pending:
            future.result()
        if errors:
            raise errors[min(errors)]
        return results

    def close(self) -> None:
        """Stop the helper threads once they finish their current calls."""
        if self._pool is not None:
            self._pool.shutdown()


def _head(
    feats: np.ndarray, w: np.ndarray, b: np.ndarray, ws: StepWorkspace, width: int,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """One linear head at every position, ``feats @ w + b``, computed into
    a workspace array and returned as (n_anchors, width) rows.  With
    ``rows``, only those anchor rows, a new array: the bias is added at
    them alone, as the same additions ``(feats @ w + b)[rows]`` makes."""
    if feats.shape[1] != w.shape[0]:
        raise ValueError(f"feature dim {feats.shape[1]} does not match params ({w.shape[0]})")
    out = np.matmul(feats, w, out=ws.array((feats.shape[0], w.shape[1])))
    if rows is not None:
        k_a = w.shape[1] // width
        return out.reshape(-1, width)[rows] + b.reshape(k_a, width)[rows % k_a]
    out += b
    return out.reshape(-1, width)


def student_forward(params: DetectorParams, scene: Scene) -> DetectorOutputs:
    """Linear per-position heads; deterministic in (params, scene)."""
    feats = scene.features
    ws = StepWorkspace()
    n = feats.shape[0]
    k_a = params.w_reg.shape[1] // 7
    k_c = params.w_cls.shape[1] // k_a
    logits = _head(feats, params.w_cls, params.b_cls, ws, k_c)
    deltas = _head(feats, params.w_reg, params.b_reg, ws, 7)
    return DetectorOutputs(logits=logits.reshape(n, k_a, k_c), deltas=deltas.reshape(n, k_a, 7))


def teacher_predict(
    scene: Scene,
    profile: NoiseProfile,
    grid: AnchorGrid,
    assignment: Assignment,
) -> TeacherResponse:
    """Oracle teacher: ground truth perturbed by the profile.

    Each object gets one perturbed box and one reported class (flipped to a
    random class with probability ``score_corruption``); all of its
    positive anchors carry that box's encoded offsets and a confident
    logit.  Everything else stays at the background logit, so the response
    holds the positive-anchor rows only.  Raises ValueError when the noise
    leaves a box non-finite or without positive extents.
    """
    rng = np.random.default_rng(np.random.SeedSequence((scene.seed, _STREAM_TEACHER)))
    k_c = grid.k_c
    rate = profile.score_corruption
    n_gt = scene.boxes.shape[0]
    noisy = np.empty((n_gt, 7))
    reported = scene.class_ids.copy()
    peaks = np.empty(n_gt)
    for i, (cx, cy, cz, l, w, h, yaw) in enumerate(scene.boxes.tolist()):
        # Small noise on every component; depth noise grows with distance.
        cx += rng.normal(0.0, profile.center_sigma)
        cy += rng.normal(0.0, profile.center_sigma)
        cz += rng.normal(0.0, profile.center_sigma + profile.depth_bias * cz)
        l, w, h = (l, w, h) * np.exp(rng.normal(0.0, profile.size_sigma, size=3))
        yaw = wrap_angle(yaw + rng.normal(0.0, profile.yaw_sigma))
        if rate > 0:
            # Each response component flips independently: the reported
            # class becomes random; the center jumps by about half the
            # footprint diagonal, the sizes by tens of percent, the yaw by
            # up to a quarter turn.  The oracle stays confident about its
            # mistakes.
            class_flipped = rng.uniform() < rate
            if class_flipped:
                reported[i] = rng.integers(0, k_c)
            center_corrupted = rng.uniform() < rate
            if center_corrupted:
                diag = math.hypot(l, w)
                cx += rng.normal(0.0, 0.5 * diag)
                cy += rng.normal(0.0, 0.25 * h)
                cz += rng.normal(0.0, 0.5 * diag)
            size_corrupted = rng.uniform() < rate
            if size_corrupted:
                l, w, h = (l, w, h) * np.exp(rng.normal(0.0, 0.35, size=3))
            angle_corrupted = rng.uniform() < rate
            if angle_corrupted:
                yaw = wrap_angle(yaw + rng.uniform(-math.pi / 4, math.pi / 4))
        peaks[i] = PEAK_LOGIT + rng.normal(0.0, 0.3)
        noisy[i] = cx, cy, cz, l, w, h, yaw
    if not (np.all(np.isfinite(noisy)) and np.all(noisy[:, 3:6] > 0)):
        raise ValueError("teacher noise left a box non-finite or without positive extents")

    pos = assignment.positive_indices
    logits = np.full((pos.size, k_c), BACKGROUND_LOGIT)
    deltas = np.zeros((pos.size, 7))
    if pos.size:
        # Each positive takes its object's row; one encode for the scene.
        m = assignment.matched
        deltas = encode_deltas(noisy[m], grid.anchor_params[pos])
        logits[np.arange(pos.size), reported[m]] = peaks[m]
    return TeacherResponse(anchors=pos, logits=logits, deltas=deltas, n_positions=grid.n_positions, k_a=grid.k_a)


# Fixed hard-label loss conventions: RetinaNet's focal gamma and alpha
# (Lin et al., ICCV 2017) and the smooth-L1 transition point.
FOCAL_GAMMA = 2.0
FOCAL_ALPHA = 0.25
SMOOTH_L1_BETA = 1.0 / 9.0


@dataclass(frozen=True)
class LossConfig:
    """Weights and switches for the combined training objective."""

    xgd_weight: float = 1.0
    cld_weight: float = 1.0
    tau: float = 1.0
    xgd_components: tuple[str, ...] = COMPONENT_NAMES
    xgd_selection: str = "gate"  # "gate" | "confidence"
    confidence_threshold: float = 0.3
    cld_region: str = "foreground"  # "foreground" | "positive"
    cld_mode: str = "unified"  # "unified" | "classical"

    def __post_init__(self) -> None:
        # Positive tests, so that NaN fails too.
        if not (self.xgd_weight >= 0 and self.cld_weight >= 0):
            raise ValueError("loss weights must be >= 0")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        # Values above 1 are legal and select no box.
        if not math.isfinite(self.confidence_threshold):
            raise ValueError(f"confidence_threshold must be finite, got {self.confidence_threshold}")
        if self.xgd_selection not in ("gate", "confidence"):
            raise ValueError(f"unknown xgd_selection {self.xgd_selection!r}")
        if self.cld_region not in ("foreground", "positive"):
            raise ValueError(f"unknown cld_region {self.cld_region!r}")
        if self.cld_mode not in ("unified", "classical"):
            raise ValueError(f"unknown cld_mode {self.cld_mode!r}")
        # With no component the gate keeps nothing, and the XGD term only
        # pays for its IoU pass.
        if not self.xgd_components:
            raise ValueError("xgd_components must name at least one component")
        unknown = set(self.xgd_components) - set(COMPONENT_NAMES)
        if unknown:
            raise ValueError(f"unknown XGD components {sorted(unknown)}")


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    ori: float
    xgd: float
    cld: float
    n_pos: int
    gate_keep: dict[str, float] = field(default_factory=dict)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, without overflow for large |z|."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _focal_terms(
    logits_flat: np.ndarray,
    pos_rows: np.ndarray,
    cols: np.ndarray,
    ignore_rows: np.ndarray,
    gamma: float,
    alpha: float,
    ws: StepWorkspace,
) -> tuple[float, np.ndarray]:
    """Summed focal loss over non-ignore anchors and its logit gradient.

    ``pos_rows`` are the positive anchors and ``cols`` their classes.  The
    background formula is evaluated array-wide; the handful of positive
    (anchor, class) entries are patched afterwards.

    Overwrites ``logits_flat``: the positive entries and the ``z >= 0``
    mask are read first, then the array holds -|z|, exp(-|z|) and the
    focal weight p**gamma in turn.  The rest runs in three workspace
    arrays: two temporaries and the returned gradient, which first carries
    log1p(e), then 1 + e, then the loss, so the focal pass uses four dense
    arrays with its logits.  The comments give each array's value as
    a plain expression, and every element goes through the same operations
    in the same order as in that expression.
    """
    z = logits_flat
    zp = z[pos_rows, cols]
    nonneg = z >= 0.0
    ln_1mp = ws.array(z.shape)
    p = ws.array(z.shape)
    scratch = ws.array(z.shape)

    # sigmoid, log-sigmoid(z), and log-sigmoid(-z) all share e = exp(-|z|).
    np.negative(z, out=ln_1mp)
    e = np.minimum(z, ln_1mp, out=z)  # -|z|
    np.exp(e, out=e)
    log1p_e = np.log1p(e, out=scratch)
    # ln_1mp = min(-z, 0) - log1p_e
    np.minimum(ln_1mp, 0.0, out=ln_1mp)
    np.subtract(ln_1mp, log1p_e, out=ln_1mp)
    # ln p = min(z, 0) - log1p_e is read only at the positive entries.
    ln_p = np.minimum(zp, 0.0) - log1p_e[pos_rows, cols]
    # p = where(z >= 0, 1, e) / (1 + e)
    one_plus_e = np.add(1.0, e, out=scratch)
    np.copyto(p, e)
    np.copyto(p, 1.0, where=nonneg)
    np.divide(p, one_plus_e, out=p)
    pp = p[pos_rows, cols]
    p_g = np.power(p, gamma, out=e)
    # loss = -(1 - alpha) * p_g * ln_1mp
    loss = np.multiply(p_g, -(1.0 - alpha), out=scratch)
    loss *= ln_1mp
    if pos_rows.size:
        qq = 1.0 - pp
        q_g = qq**gamma
        loss[pos_rows, cols] = -alpha * q_g * ln_p
    if ignore_rows.size:
        loss[ignore_rows] = 0.0
    total = float(loss.sum())

    # grad = (1 - alpha) * (p_g * p - gamma * p_g * (1 - p) * ln_1mp)
    grad = np.multiply(p_g, p, out=scratch)
    one_minus_p = np.subtract(1.0, p, out=p)
    p_g *= gamma
    p_g *= one_minus_p
    p_g *= ln_1mp
    grad -= p_g
    grad *= 1.0 - alpha
    if pos_rows.size:
        grad[pos_rows, cols] = alpha * (gamma * pp * q_g * ln_p - q_g * qq)
    if ignore_rows.size:
        grad[ignore_rows] = 0.0
    return total, grad


def _smooth_l1(diff: np.ndarray, beta: float) -> tuple[np.ndarray, np.ndarray]:
    absd = np.abs(diff)
    quad = absd < beta
    loss = np.where(quad, 0.5 * diff * diff / beta, absd - 0.5 * beta)
    grad = np.where(quad, diff / beta, np.sign(diff))
    return loss, grad


def cld_positions(assignment: Assignment, grid: AnchorGrid, region: str) -> np.ndarray:
    """Position indices feeding logit distillation for the chosen region."""
    if region == "foreground":
        return np.flatnonzero(assignment.foreground)
    pos_positions = np.unique(assignment.positive_indices // grid.k_a)
    return pos_positions


_NO_BOXES = np.zeros((0, 7))
_NO_BOXES.setflags(write=False)


@dataclass(frozen=True)
class _SceneTargets:
    """What the loss of one scene reads that does not depend on the student.

    ``train`` builds one per scene per call (never module state);
    ``total_loss_and_grad`` builds one per call.  With a zero weight, that
    term's distillation fields are empty.
    """

    pos: np.ndarray  # positive anchors, ascending
    pos_classes: np.ndarray  # ground-truth class of each positive
    ignore_rows: np.ndarray  # anchors the focal loss skips
    pos_positions: np.ndarray  # grid positions holding a positive, ascending
    target_deltas: np.ndarray  # (n_pos, 7) encoded ground truth
    # XGD runs on all positives ("gate") or on the confident ones.
    xgd_rows: np.ndarray  # indices into pos
    xgd_anchors: np.ndarray
    xgd_teacher: np.ndarray  # decoded teacher boxes
    xgd_gt: np.ndarray  # ground-truth boxes ("gate" only)
    # CLD softmaxes span k_a anchors ("unified") or one ("classical").
    cld_positions: np.ndarray
    cld_rows: np.ndarray  # flat logit rows of cld_positions
    cld_k_a: int
    teacher_dist: UnifiedDistribution | None

    @property
    def norm(self) -> int:
        return max(1, self.pos.size)


def _scene_targets(
    scene: Scene,
    assignment: Assignment,
    grid: AnchorGrid,
    cfg: LossConfig,
    teacher: TeacherResponse,
) -> _SceneTargets:
    pos, target_deltas = positive_target_deltas(grid, assignment, scene.boxes)
    if not np.array_equal(teacher.anchors, pos):
        raise ValueError("the teacher response's anchors must be the assignment's positive anchors")
    xgd_rows = pos[:0]
    xgd_anchors = xgd_teacher = xgd_gt = _NO_BOXES
    if cfg.xgd_weight > 0 and pos.size:
        anchors = grid.anchor_params[pos]
        teacher_rows = decode_deltas(teacher.deltas, anchors)
        if cfg.xgd_selection == "gate":
            xgd_rows, xgd_anchors, xgd_teacher = np.arange(pos.size), anchors, teacher_rows
            xgd_gt = scene.boxes[assignment.matched]
        else:
            # Box-level alternative: keep whole teacher boxes whose best
            # class score clears the confidence threshold.
            conf = sigmoid(teacher.logits).max(axis=1)
            chosen = np.flatnonzero(conf > cfg.confidence_threshold)
            xgd_rows, xgd_anchors, xgd_teacher = chosen, anchors[chosen], teacher_rows[chosen]
    positions = pos[:0]
    cld_k_a = grid.k_a if cfg.cld_mode == "unified" else 1
    teacher_dist = None
    if cfg.cld_weight > 0:
        positions = cld_positions(assignment, grid, cfg.cld_region)
        if positions.size:
            teacher_dist = unified_distribution(teacher.logit_map(positions, cld_k_a), cfg.tau)
    return _SceneTargets(
        pos=pos,
        pos_classes=scene.class_ids[assignment.matched],
        ignore_rows=assignment.ignore_indices,
        pos_positions=np.unique(pos // grid.k_a),
        target_deltas=target_deltas,
        xgd_rows=xgd_rows,
        xgd_anchors=xgd_anchors,
        xgd_teacher=xgd_teacher,
        xgd_gt=xgd_gt,
        cld_positions=positions,
        cld_rows=(positions[:, None] * grid.k_a + np.arange(grid.k_a)[None, :]).ravel(),
        cld_k_a=cld_k_a,
        teacher_dist=teacher_dist,
    )


@dataclass(frozen=True)
class _RegressionTerms:
    """One scene's smooth-L1 term, and the small arrays XGD and the delta
    gradient read later (no dense buffer is kept)."""

    reg: float
    base_rows: np.ndarray  # smooth-L1 gradient at the positives, / norm
    xgd_deltas: np.ndarray  # student deltas at the XGD rows


def _regression_terms(pos_deltas: np.ndarray, t: _SceneTargets) -> _RegressionTerms:
    """Smooth-L1 regression term of one scene from its student deltas at
    the positive anchors."""
    sl, sg = _smooth_l1(pos_deltas - t.target_deltas, SMOOTH_L1_BETA)
    return _RegressionTerms(
        reg=float(sl.sum()) / t.norm,
        base_rows=sg / t.norm,
        xgd_deltas=pos_deltas[t.xgd_rows],
    )


def _classification_terms(
    logits_flat: np.ndarray, t: _SceneTargets, cfg: LossConfig, ws: StepWorkspace
) -> tuple[float, float, np.ndarray]:
    """Focal term and CLD of one scene from its flat student logits, plus
    the flat logit gradient (a workspace array, complete: XGD adds
    none).

    Overwrites ``logits_flat`` (see _focal_terms); the CLD rows are
    gathered before the focal pass."""
    cld_values = logits_flat[t.cld_rows]
    floss, dlogits = _focal_terms(
        logits_flat, t.pos, t.pos_classes, t.ignore_rows, FOCAL_GAMMA, FOCAL_ALPHA, ws
    )
    dlogits /= t.norm
    cld_term = 0.0
    if t.teacher_dist is not None:
        s_dist = unified_distribution(LogitMap(values=cld_values, k_a=t.cld_k_a), cfg.tau)
        cld_term = cld_loss(t.teacher_dist, s_dist)
        dlogits[t.cld_rows] += cfg.cld_weight * cld_grad(t.teacher_dist, s_dist, cfg.tau)
    return floss / t.norm, cld_term, dlogits


def _xgd_terms(
    terms: Sequence[_RegressionTerms],
    targets: Sequence[_SceneTargets],
    cfg: LossConfig,
    flags: GeometryFlags | None,
) -> list[tuple[float, dict[str, float], np.ndarray | None]]:
    """XGD of several scenes in one pass over their concatenated rows.

    Returns, per scene, the loss term, the gate keep rates and the delta
    gradient at its XGD rows (None without rows).  Every value equals a
    separate pass over that scene alone: each scene's loss sums its slice
    of the per-pair terms.  The terms and the gradient come from one
    batched clip.
    """
    sizes = [t.xgd_rows.size for t in targets]
    if not any(sizes):
        return [(0.0, {}, None) for _ in targets]
    deltas = np.concatenate([s.xgd_deltas for s in terms])
    anchors = np.concatenate([t.xgd_anchors for t in targets])
    teacher_rows = np.concatenate([t.xgd_teacher for t in targets])
    student_rows = decode_deltas(deltas, anchors, flags)
    gated = cfg.xgd_selection == "gate"
    if gated:
        gt_rows = np.concatenate([t.xgd_gt for t in targets])
        decisions = gate_decisions(teacher_rows, student_rows, gt_rows)
        box_targets = positive_component_update(
            teacher_rows,
            student_rows,
            gt_rows,
            components=cfg.xgd_components,
            decisions=decisions,
        )
    else:
        box_targets = teacher_rows
    pair_terms, grad = xgd_loss_and_grad(
        deltas, anchors, box_targets, flags, student_rows=student_rows
    )
    pair_terms = pair_terms.tolist()
    out = []
    start = 0
    for n in sizes:
        rows = slice(start, start + n)
        loss = sum(pair_terms[rows]) if n else 0.0
        keep = gate_keep_rates(decisions[rows]) if gated else {}
        out.append((loss, keep, grad[rows] if n else None))
        start += n
    return out


def _delta_grad(
    r: _RegressionTerms,
    t: _SceneTargets,
    xgd_grad: np.ndarray | None,
    cfg: LossConfig,
    ws: StepWorkspace,
    n_anchors: int,
) -> np.ndarray:
    """(n_anchors, 7) delta gradient of one scene, a workspace array: zero
    but for the positive rows, the smooth-L1 rows plus the weighted XGD rows."""
    ddeltas = ws.zeros((n_anchors, 7))
    ddeltas[t.pos] = r.base_rows
    if xgd_grad is not None:
        ddeltas[t.pos[t.xgd_rows]] += cfg.xgd_weight * xgd_grad
    return ddeltas


def _breakdown(
    t: _SceneTargets,
    r: _RegressionTerms,
    cls_term: float,
    cld_term: float,
    xgd_term: float,
    gate_keep: dict[str, float],
    cfg: LossConfig,
) -> LossBreakdown:
    """The loss breakdown of one scene from its terms."""
    ori = cls_term + r.reg
    return LossBreakdown(
        total=ori + cfg.xgd_weight * xgd_term + cfg.cld_weight * cld_term,
        ori=ori,
        xgd=xgd_term,
        cld=cld_term,
        n_pos=int(t.pos.size),
        gate_keep=gate_keep,
    )


def total_loss_and_grad(
    student: DetectorOutputs,
    teacher: TeacherResponse,
    scene: Scene,
    assignment: Assignment,
    grid: AnchorGrid,
    cfg: LossConfig = LossConfig(),
    flags: GeometryFlags | None = None,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Loss breakdown plus gradients w.r.t. student logits and deltas.

    The one-scene case of the training step: its items in order, on one
    fresh workspace.  XGD runs before classification, as in the step, so
    when both raise, the error is the one the step raises.  Distillation
    targets (gated boxes, teacher distributions) are detached snapshots;
    the gate itself never contributes gradient.  With both distillation
    weights at 0, ``ori`` is the hard-label objective alone: focal
    classification over the non-ignore anchors plus smooth-L1 regression,
    both normalized by max(1, n_pos).  Returned arrays have the dense
    (n_positions, k_a, *) shape.
    """
    if student.logits.shape != teacher.grid_shape:
        raise ValueError("student and teacher outputs must share the grid layout")
    targets = _scene_targets(scene, assignment, grid, cfg, teacher)
    ws = StepWorkspace()
    r = _regression_terms(student.deltas_flat[targets.pos], targets)
    ((xgd_term, gate_keep, xgd_grad),) = _xgd_terms([r], [targets], cfg, flags)
    # The focal pass overwrites its logits; the outputs are read-only.
    logits = ws.array(student.logits_flat.shape)
    np.copyto(logits, student.logits_flat)
    cls_term, cld_term, dlogits = _classification_terms(logits, targets, cfg, ws)
    ddeltas = _delta_grad(r, targets, xgd_grad, cfg, ws, student.deltas_flat.shape[0])
    return (
        _breakdown(targets, r, cls_term, cld_term, xgd_term, gate_keep, cfg),
        dlogits.reshape(student.logits.shape),
        ddeltas.reshape(student.deltas.shape),
    )


def replace_outputs(
    student: DetectorOutputs, teacher: TeacherResponse, mode: str
) -> DetectorOutputs:
    """Substitute the selected student head(s) with the teacher's; only the
    substituted heads are built from the teacher's rows."""
    if mode not in ("regression", "classification", "both", "none"):
        raise ValueError(f"unknown replacement mode {mode!r}")
    if student.logits.shape != teacher.grid_shape:
        raise ValueError("student and teacher outputs must share shapes")
    logits = teacher.dense_logits() if mode in ("classification", "both") else student.logits
    deltas = teacher.dense_deltas() if mode in ("regression", "both") else student.deltas
    return DetectorOutputs(logits=logits, deltas=deltas)


# Adam's moment decay rates and denominator guard, at Kingma and Ba's defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float = 0.003
    weight_decay: float = 0.01
    epochs: int = 60
    batch_size: int = 4

    def __post_init__(self) -> None:
        # Positive tests, so that NaN fails too.
        if not (self.learning_rate >= 0 and self.weight_decay >= 0):
            raise ValueError("learning_rate and weight_decay must be >= 0")
        if not self.epochs >= 0:
            raise ValueError("epochs must be >= 0 (0 evaluates the initialized model)")
        if not self.batch_size >= 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class EpochStats:
    total: float
    ori: float
    xgd: float
    cld: float
    n_pos_mean: float
    gate_keep: dict[str, float]


@dataclass
class TrainResult:
    params: DetectorParams
    history: list[EpochStats]

    def final_gate_keep(self) -> dict[str, float]:
        for stats in reversed(self.history):
            if stats.gate_keep:
                return stats.gate_keep
        return {}


class _Adam:
    def __init__(self, shapes: list[np.ndarray], cfg: OptimizerConfig):
        self.cfg = cfg
        self.m = [np.zeros_like(a) for a in shapes]
        self.v = [np.zeros_like(a) for a in shapes]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        c = self.cfg
        self.t += 1
        out = []
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / (1 - ADAM_BETA1**self.t)
            v_hat = self.v[i] / (1 - ADAM_BETA2**self.t)
            out.append(p - c.learning_rate * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + c.weight_decay * p))
        return out


class _NonFiniteDeltas(Exception):
    def __init__(self, position: int):
        super().__init__(position)
        self.position = position  # in the minibatch


def _minibatch_grads(
    params: DetectorParams,
    features: Sequence[np.ndarray],
    targets: Sequence[_SceneTargets],
    cfg: LossConfig,
    flags: GeometryFlags | None,
    workers: _SceneWorkers,
) -> tuple[list[LossBreakdown], list[np.ndarray]]:
    """One optimizer minibatch: per-scene breakdowns and the weight
    gradients (w_cls, b_cls, w_reg, b_reg) summed over its scenes, read as
    their dense (n_positions, feature_dim) features.

    Runs the one ``workers.map`` that ``train`` describes.  Item 0 computes
    every scene's regression terms, then runs the XGD pass, the only part
    that writes ``flags``; a delta item skips its products when item 0
    raised.  Each item runs in the workspace of the worker that takes it.
    Raises _NonFiniteDeltas with the batch position of the first scene in
    batch order whose positive-anchor deltas are not finite; that, or an
    XGD error, before any scene's classification error.
    """
    k_a = params.w_reg.shape[1] // 7
    k_c = params.w_cls.shape[1] // k_a
    n = len(targets)
    regressed: list[_RegressionTerms] = []
    xgd: list = []
    xgd_ended = threading.Event()

    def classification(k: int, ws: StepWorkspace) -> tuple[float, float, np.ndarray, np.ndarray]:
        feats = features[k]
        logits = _head(feats, params.w_cls, params.b_cls, ws, k_c)
        cls_term, cld_term, dlogits = _classification_terms(logits, targets[k], cfg, ws)
        dl = dlogits.reshape(feats.shape[0], -1)
        # einsum adds the rows in order, as dl.sum(axis=0) does when dl has
        # more than one column, and takes a quarter of its time.
        return cls_term, cld_term, feats.T @ dl, np.einsum("ij->j", dl)

    def delta_products(k: int, ws: StepWorkspace) -> tuple[np.ndarray, np.ndarray] | None:
        xgd_ended.wait()
        if not xgd:
            return None  # item 0 raised, and map raises its error
        feats = features[k]
        ddeltas = _delta_grad(regressed[k], targets[k], xgd[k][2], cfg, ws, feats.shape[0] * k_a)
        dd = ddeltas.reshape(feats.shape[0], -1)
        # Rows without a positive are zero; an axis-0 sum adds rows in
        # order, so skipping them leaves every bit of the sum unchanged.
        return feats.T @ dd, dd[targets[k].pos_positions].sum(axis=0)

    def item(i: int, ws: StepWorkspace):
        if i > n:
            return delta_products(i - n - 1, ws)
        if i > 0:
            return classification(i - 1, ws)
        try:  # item 0: every scene's regression terms, then the XGD pass
            for k, t in enumerate(targets):
                ws.rewind()  # each head's rows are read out at once
                deltas = _head(features[k], params.w_reg, params.b_reg, ws, 7, t.pos)
                # Decoding would reject non-finite deltas with a bare ValueError.
                if not np.all(np.isfinite(deltas)):
                    raise _NonFiniteDeltas(k)
                regressed.append(_regression_terms(deltas, t))
            xgd.extend(_xgd_terms(regressed, targets, cfg, flags))
        finally:
            xgd_ended.set()

    done = workers.map(item, 2 * n + 1)
    classified, products = done[1 : n + 1], done[n + 1 :]
    grads = [np.zeros_like(w) for w in (params.w_cls, params.b_cls, params.w_reg, params.b_reg)]
    # Added in batch order, whichever worker finished first, so every sum
    # is the same for any number of workers.
    for (_, _, w_cls, b_cls), (w_reg, b_reg) in zip(classified, products):
        grads[0] += w_cls
        grads[1] += b_cls
        grads[2] += w_reg
        grads[3] += b_reg
    breakdowns = [
        _breakdown(t, r, cls_term, cld_term, xgd_term, gate_keep, cfg)
        for t, r, (cls_term, cld_term, _, _), (xgd_term, gate_keep, _) in zip(
            targets, regressed, classified, xgd
        )
    ]
    return breakdowns, grads


def train(
    grid: AnchorGrid,
    scenes: Sequence[Scene],
    teacher_outputs: Sequence[TeacherResponse],
    assignments: Sequence[Assignment],
    loss_cfg: LossConfig,
    opt_cfg: OptimizerConfig,
    seed: int,
    flags: GeometryFlags | None = None,
) -> TrainResult:
    """Adam over the combined loss; deterministic given the seed.  At 0
    epochs, the initialized model and an empty history.

    What depends only on a scene (its dense features, encoded targets,
    teacher boxes and distributions) is built once per call; gates and
    distillation targets are recomputed at every step from the current
    student, with one XGD pass per minibatch.  Each teacher response must
    hold the positive anchors of its scene's assignment (ValueError
    otherwise).  Raises TrainingDivergedError with a diagnostic snapshot
    when training stops being finite.  Within a minibatch, non-finite
    positive-anchor deltas of any scene are reported before a non-finite
    loss of any scene, each for the first such scene in batch order;
    non-finite weights are reported after the Adam step.

    A minibatch is one map of 2n + 1 items for n scenes, run on min(batch
    size, scenes, usable CPUs) workers: this thread and threads that live
    for this call, each with its own workspace (an arena allocated once
    per call, see StepWorkspace), taking items in order from a shared
    counter as they come free.  Item 0 computes, scene by scene in batch
    order, the regression head at the positive anchors, their finiteness
    check and the smooth-L1 term, then runs the XGD pass over the whole
    minibatch (one batched clip for its losses and its IoU gradient);
    then, per scene, the classification head, focal loss, CLD and
    logit-gradient products; then, per scene, the delta-gradient
    products, each of which waits until item 0 has ended.  Every scene
    goes through the same operations on whichever worker runs it, and its
    products are added into the weight gradients in batch order, so
    weights, history and ``flags`` are the same bits for any number of
    workers.  OpenBLAS runs on one thread during training, and the
    caller's thread count is restored when training returns or raises.
    """
    return _train(
        grid, scenes, teacher_outputs, assignments, loss_cfg, opt_cfg, seed, flags, _usable_cpus()
    )


def _train(
    grid: AnchorGrid,
    scenes: Sequence[Scene],
    teacher_outputs: Sequence[TeacherResponse],
    assignments: Sequence[Assignment],
    loss_cfg: LossConfig,
    opt_cfg: OptimizerConfig,
    seed: int,
    flags: GeometryFlags | None,
    cpus: int,
) -> TrainResult:
    """``train`` on at most ``cpus`` workers."""
    if not (len(scenes) == len(teacher_outputs) == len(assignments)):
        raise ValueError("scenes, teacher outputs, and assignments must align")
    if not scenes:
        raise ValueError("at least one training scene is required")
    params = DetectorParams.init(seed, scenes[0].feature_dim, grid.k_a, grid.k_c)
    if opt_cfg.epochs == 0:
        return TrainResult(params, [])
    weights = [params.w_cls, params.b_cls, params.w_reg, params.b_reg]
    adam = _Adam(weights, opt_cfg)
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_SHUFFLE)))
    targets = [
        _scene_targets(s, a, grid, loss_cfg, t)
        for s, t, a in zip(scenes, teacher_outputs, assignments)
    ]
    # Every step reads each scene's dense features: rebuild them once here.
    features = [s.features for s in scenes]
    history: list[EpochStats] = []
    last_finite: LossBreakdown | None = None
    last_grads: list[np.ndarray] = []

    def diverged(what: str, epoch: int, scene_seed: int, **extra) -> TrainingDivergedError:
        return TrainingDivergedError(
            f"{what} at epoch {epoch}, scene {scene_seed}",
            snapshot={
                "epoch": epoch,
                "scene_seed": scene_seed,
                "last_finite_breakdown": last_finite,
                "grad_norms": {
                    name: float(np.linalg.norm(g))
                    for name, g in zip(("w_cls", "b_cls", "w_reg", "b_reg"), last_grads)
                },
                **extra,
            },
        )

    n_workers = min(opt_cfg.batch_size, len(scenes), cpus)
    # OpenBLAS's own threads would compete with the workers for the cores.
    with openblas_threads_set(1), closing(
        _SceneWorkers(n_workers, _step_arena_floats(grid))
    ) as workers:
        for epoch in range(opt_cfg.epochs):
            order = shuffle_rng.permutation(len(scenes))
            sums = np.zeros(4)
            n_pos_sum = 0
            keep_sums = {name: 0.0 for name in COMPONENT_NAMES}
            keep_count = 0
            for start in range(0, len(order), opt_cfg.batch_size):
                batch = order[start : start + opt_cfg.batch_size]
                try:
                    breakdowns, grads = _minibatch_grads(
                        DetectorParams(weights[0], weights[1], weights[2], weights[3]),
                        [features[si] for si in batch],
                        [targets[si] for si in batch],
                        loss_cfg,
                        flags,
                        workers,
                    )
                except _NonFiniteDeltas as exc:
                    scene_seed = scenes[batch[exc.position]].seed
                    raise diverged("non-finite positive-anchor deltas", epoch, scene_seed) from None
                for si, breakdown in zip(batch, breakdowns):
                    if not math.isfinite(breakdown.total):
                        raise diverged("non-finite loss", epoch, scenes[si].seed, breakdown=breakdown)
                    last_finite = breakdown
                    sums += (breakdown.total, breakdown.ori, breakdown.xgd, breakdown.cld)
                    n_pos_sum += breakdown.n_pos
                    if breakdown.gate_keep:
                        for name in COMPONENT_NAMES:
                            keep_sums[name] += breakdown.gate_keep[name]
                        keep_count += 1
                last_grads = [g / len(batch) for g in grads]
                weights = adam.step(weights, last_grads)
                if not all(np.all(np.isfinite(w)) for w in weights):
                    last_seed = scenes[batch[-1]].seed
                    raise diverged("non-finite weights after the Adam step", epoch, last_seed)
            n_seen = len(order)
            history.append(
                EpochStats(
                    total=sums[0] / n_seen,
                    ori=sums[1] / n_seen,
                    xgd=sums[2] / n_seen,
                    cld=sums[3] / n_seen,
                    n_pos_mean=n_pos_sum / n_seen,
                    gate_keep={k: v / keep_count for k, v in keep_sums.items()} if keep_count else {},
                )
            )
    final = DetectorParams(weights[0], weights[1], weights[2], weights[3])
    return TrainResult(params=final, history=history)


def save_scenes(path: str | Path, scenes: Sequence[Scene]) -> None:
    """Write scenes as line-delimited records: seed, GT boxes, class ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            record = {
                "seed": scene.seed,
                "gts": scene.boxes.tolist(),
                "class_ids": scene.class_ids.tolist(),
            }
            fh.write(json.dumps(record) + "\n")
