import math
from dataclasses import replace

import numpy as np
import pytest

from boxdistill import geometry as geom
from boxdistill.geometry import (
    Box3D,
    GeometryFlags,
    _bev_corners,
    _clip,
    _signed_area,
    bev_iou,
    iou3d,
    iou3d_and_grad_fd,
    iou3d_grad_fd,
    iou3d_mc_oracle,
    wrap_angle,
)
from boxdistill.verify import (
    check_iou_grad_self_consistency,
    clip_tie_cases,
    near_pair,
    random_box,
    reference_iou3d_grad_fd,
)

OCTAGON_AREA = 2.0 * (math.sqrt(2.0) - 1.0)  # unit square clipped by its 45-degree copy
ROT45_IOU = OCTAGON_AREA / (2.0 - OCTAGON_AREA)


class TestWrapAngle:
    def test_identity(self):
        assert wrap_angle(0.0) == 0.0

    def test_single_wrap(self):
        assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1, abs=1e-12)

    def test_odd_multiple_maps_to_upper_boundary(self):
        assert wrap_angle(-3 * math.pi) == pytest.approx(math.pi, abs=0)

    def test_range_fuzz(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(-50, 50, 1000):
            w = wrap_angle(theta)
            assert -math.pi < w <= math.pi
            # congruent modulo 2 pi
            assert abs(math.remainder(w - theta, 2 * math.pi)) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            wrap_angle(math.nan)
        with pytest.raises(ValueError):
            wrap_angle(math.inf)


class TestBox3D:
    def test_rejects_non_positive_extent(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 0.0, 1, 1)
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, 1, -1, 1)

    def test_yaw_normalized_on_construction(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3 * math.pi).yaw == pytest.approx(math.pi)

    def test_array_round_trip(self):
        box = Box3D(1, 2, 3, 4, 5, 6, 0.5)
        assert Box3D.from_array(box.as_array()) == box


def clip_area(a: Box3D, b: Box3D) -> float:
    return _signed_area(_clip(_bev_corners(a), _bev_corners(b)))


class TestBevPolygon:
    def test_unit_box_axis_aligned(self):
        verts = set(_bev_corners(Box3D(0, 0, 0, 1, 1, 1, 0)))
        assert verts == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}

    def test_square_symmetric_under_quarter_turn(self):
        base = _bev_corners(Box3D(0, 0, 0, 1, 1, 1, 0))
        rot = _bev_corners(Box3D(0, 0, 0, 1, 1, 1, math.pi / 2))
        for v in rot:
            assert min(math.hypot(v[0] - u[0], v[1] - u[1]) for u in base) < 1e-12

    def test_quarter_turn_swaps_extents(self):
        verts = _bev_corners(Box3D(0, 0, 0, 2, 1, 1, math.pi / 2))
        xs = sorted(round(v[0], 9) for v in verts)
        zs = sorted(round(v[1], 9) for v in verts)
        assert xs == [-0.5, -0.5, 0.5, 0.5]
        assert zs == [-1.0, -1.0, 1.0, 1.0]

    def test_ccw_orientation(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            box = random_box(rng)
            assert _signed_area(_bev_corners(box)) == pytest.approx(box.l * box.w, rel=1e-12)


class TestConvexClip:
    def test_self_intersection_is_identity(self):
        box = Box3D(0.2, 0, -0.3, 1.7, 0.9, 1, 0.4)
        assert clip_area(box, box) == pytest.approx(_signed_area(_bev_corners(box)), abs=1e-12)
        assert bev_iou(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_axis_aligned_half_overlap(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0.5, 0, 0, 1, 1, 1, 0)
        assert clip_area(a, b) == pytest.approx(0.5, abs=1e-12)
        assert bev_iou(a, b) == pytest.approx(0.5 / 1.5, abs=1e-12)

    def test_rotated_square_octagon_closed_form(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0, 0, 0, 1, 1, 1, math.pi / 4)
        octagon = _clip(_bev_corners(a), _bev_corners(b))
        assert _signed_area(octagon) == pytest.approx(OCTAGON_AREA, abs=1e-9)
        assert len(octagon) == 8

    def test_octagon_cross_checked_by_point_sampling(self):
        # Monte-Carlo area of the same intersection region.
        rng = np.random.default_rng(42)
        pts = rng.uniform(-0.5, 0.5, size=(200_000, 2))
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        u = pts[:, 0] * c + pts[:, 1] * s
        v = -pts[:, 0] * s + pts[:, 1] * c
        inside = (np.abs(u) <= 0.5) & (np.abs(v) <= 0.5)
        estimate = inside.mean()  # area of unit-square domain is 1
        assert estimate == pytest.approx(OCTAGON_AREA, abs=0.005)

    def test_disjoint_is_empty(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0.3)
        b = Box3D(10, 0, 0, 1, 1, 1, -0.2)
        assert _clip(_bev_corners(a), _bev_corners(b)) == []
        assert bev_iou(a, b) == 0.0

    def test_empty_inputs(self):
        square = _bev_corners(Box3D(0, 0, 0, 1, 1, 1, 0))
        assert _clip([], square) == []


class TestPolygonArea:
    def test_unit_square(self):
        assert _signed_area(_bev_corners(Box3D(0, 0, 0, 1, 1, 1, 0))) == 1.0

    def test_empty(self):
        assert _signed_area([]) == 0.0

    def test_triangle(self):
        assert _signed_area([(0, 0), (1, 0), (0, 1)]) == pytest.approx(0.5)


class TestIoU3D:
    def test_identity(self):
        box = Box3D(1, 2, 3, 2, 1, 1.5, 0.7)
        assert iou3d(box, box) == 1.0

    def test_axis_aligned_offset_cubes(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0.5, 0, 0, 1, 1, 1, 0)
        assert iou3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_coaxial_rotated_cube(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0, 0, 0, 1, 1, 1, math.pi / 4)
        assert iou3d(a, b) == pytest.approx(ROT45_IOU, abs=1e-9)

    def test_symmetry_bit_identical(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            a, b = near_pair(rng)
            assert iou3d(a, b) == iou3d(b, a)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = near_pair(rng)
            base = iou3d(a, b)
            tx, ty, tz = rng.uniform(-20, 20, 3)
            phi = rng.uniform(-math.pi, math.pi)
            c, s = math.cos(phi), math.sin(phi)

            def moved(box):
                x, z = box.cx * c - box.cz * s, box.cx * s + box.cz * c
                return Box3D(x + tx, box.cy + ty, z + tz, box.l, box.w, box.h, box.yaw + phi)

            assert iou3d(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)

    def test_range_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            a, b = random_box(rng), random_box(rng)
            v = iou3d(a, b)
            assert 0.0 <= v <= 1.0

    def test_degenerate_union_flagged(self):
        flags = GeometryFlags()
        tiny = 1e-7
        a = Box3D(0, 0, 0, tiny, tiny, tiny, 0)
        b = Box3D(100, 0, 0, tiny, tiny, tiny, 0)
        assert iou3d(a, b, flags) == 0.0
        assert flags.degenerate_union == 1

    def test_bev_iou_identity_and_disjoint(self):
        a = Box3D(0, 0, 0, 2, 1, 1, 0.3)
        assert bev_iou(a, a) == pytest.approx(1.0)
        assert bev_iou(a, Box3D(50, 0, 0, 2, 1, 1, 0.3)) == 0.0

    def test_identity_up_to_footprint_yaw_symmetry(self):
        a = Box3D(1, 0, 2, 2.5, 1.2, 1.1, 0.4)
        flipped = Box3D(1, 0, 2, 2.5, 1.2, 1.1, 0.4 + math.pi)
        assert iou3d(a, flipped) == pytest.approx(1.0, abs=1e-12)


class TestScalarRows:
    """Production passes plain (cx, cy, cz, l, w, h, yaw) rows to the
    scalar geometry; they must give the Box3D path's floats and flags."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(23)
        pairs = [near_pair(rng) for _ in range(200)]
        for group in clip_tie_cases(rng, 10).values():
            pairs += group
        tiny = Box3D(0, 0, 0, 1e-7, 1e-7, 1e-7, 0)  # a degenerate union
        pairs += [(tiny, replace(tiny, cx=1e-8)), (tiny, replace(tiny, cx=100.0))]
        return pairs + [(b, a) for a, b in pairs]

    def test_rows_equal_box3d(self):
        # Detections are tuples and ground truths lists, on either side.
        flags_rows, flags_boxes = GeometryFlags(), GeometryFlags()
        for a, b in self.pairs():
            row_a, row_b = tuple(map(float, a)), list(map(float, b))
            for got, want in (
                (bev_iou(row_a, row_b), bev_iou(a, b)),
                (iou3d(row_a, row_b, flags_rows), iou3d(a, b, flags_boxes)),
            ):
                assert type(got) is float
                assert repr(got) == repr(float(want)), (a, b)
        assert flags_rows == flags_boxes
        assert flags_boxes.degenerate_union > 0


class TestMonteCarloOracle:
    def test_identical_boxes_exact_one(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0.2)
        assert iou3d_mc_oracle(box, box, 100_000, seed=0).value == 1.0

    def test_disjoint_boxes_zero(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(100, 0, 0, 1, 1, 1, 0)
        assert iou3d_mc_oracle(a, b, 10_000, seed=1).value == 0.0

    def test_rotated_case_within_three_sigma(self):
        a = Box3D(0, 0, 0, 1, 1, 1, 0)
        b = Box3D(0, 0, 0, 1, 1, 1, math.pi / 4)
        est = iou3d_mc_oracle(a, b, 1_000_000, seed=2)
        assert abs(est.value - ROT45_IOU) <= max(3 * est.stderr, 0.002)

    def test_seed_determinism(self):
        a = Box3D(0, 0, 0, 1.5, 1, 1, 0.4)
        b = Box3D(0.3, 0.1, 0.2, 1, 1.2, 0.9, -0.3)
        assert iou3d_mc_oracle(a, b, 50_000, seed=7) == iou3d_mc_oracle(a, b, 50_000, seed=7)

    def test_rejects_bad_sample_count(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            iou3d_mc_oracle(box, box, 0, seed=0)


def grad_fd(a, b, **kwargs):
    """iou3d_grad_fd of one Box3D pair, as a (7,) gradient."""
    return iou3d_grad_fd(a.as_array()[None, :], b.as_array()[None, :], **kwargs)[0]


class TestIoUGradFD:
    def test_identical_boxes_center_components_vanish(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        grad = grad_fd(box, box)
        assert np.all(np.abs(grad[:3]) < 1e-6)

    def test_trailing_cube_sign(self):
        grad = grad_fd(Box3D(0, 0, 0, 1, 1, 1, 0), Box3D(0.5, 0, 0, 1, 1, 1, 0))
        assert grad[0] > 0

    def test_step_halving_self_consistency(self):
        assert check_iou_grad_self_consistency(n_cases=25).passed

    def test_size_clamp_flagged(self):
        flags = GeometryFlags()
        a = Box3D(0, 0, 0, 1e-7, 1, 1, 0)
        grad_fd(a, Box3D(0, 0, 0, 1, 1, 1, 0), flags=flags)
        assert flags.size_clamped > 0

    def test_rejects_bad_steps(self):
        box = Box3D(0, 0, 0, 1, 1, 1, 0)
        with pytest.raises(ValueError):
            grad_fd(box, box, steps=np.zeros(7))
        rows = box.as_array()[None, :]
        for bad in (math.nan, math.inf):
            steps = np.full(7, 1e-3)
            steps[6] = bad
            for call in (iou3d_grad_fd, iou3d_and_grad_fd):
                with pytest.raises(ValueError, match="steps must be 7 positive values"):
                    call(rows, rows, steps=steps)


def kernel_clip_areas(pairs):
    a = np.array([p[0].as_array() for p in pairs]).reshape(-1, 7)
    b = np.array([p[1].as_array() for p in pairs]).reshape(-1, 7)
    return geom._clip_area_rows(*geom._bev_corners_rows(a), *geom._bev_corners_rows(b))


class TestClipKernel:
    """The batched clip must replay the scalar clip bit for bit."""

    def test_empty_batch(self):
        assert kernel_clip_areas([]).shape == (0,)
        assert bev_iou(np.zeros((0, 7)), np.zeros((0, 7))).shape == (0,)

    def test_array_bev_iou_at_touching_circumcircles(self, monkeypatch):
        # 3 x 4 footprints have 2.5 m circumradii, so centers 5 m apart
        # touch exactly (at a corner when both yaws are 0); one ulp nearer
        # or farther falls either side of the tie.
        flagged = []
        original = geom._math_hypot_at

        def recorded(h, dx, dz, near):
            flagged.append(int(np.count_nonzero(near)))
            return original(h, dx, dz, near)

        monkeypatch.setattr(geom, "_math_hypot_at", recorded)
        a = Box3D(1.0, 0.0, 2.0, 3.0, 4.0, 1.0, 0.0)
        pairs = []
        for dx, dz in ((5.0, 0.0), (0.0, 5.0), (3.0, 4.0), (-4.0, 3.0)):
            cx = a.cx + dx
            for x in (np.nextafter(cx, -math.inf), cx, np.nextafter(cx, math.inf)):
                for yaw in (0.0, math.pi / 2, 0.3):
                    pairs.append((a, Box3D(float(x), 0.0, a.cz + dz, 3.0, 4.0, 1.0, yaw)))
        rows_a = np.array([p[0].as_array() for p in pairs])
        rows_b = np.array([p[1].as_array() for p in pairs])
        got = bev_iou(rows_a, rows_b)
        assert got.tolist() == [bev_iou(x, y) for x, y in pairs]
        # Every pair lies within 1e-12 of the tie, so each is recomputed
        # by math.hypot: the distance and both radii.
        assert flagged[:3] == [len(pairs)] * 3

    def test_array_bev_iou_skips_the_clip_when_no_pair_can_overlap(self, monkeypatch):
        def fail(*args):
            raise AssertionError("clip kernel ran")

        monkeypatch.setattr(geom, "_lex_le", fail)
        monkeypatch.setattr(geom, "_clip_area_rows", fail)
        # Circumradii 2.5 m (3 x 4) and 3.2 m (4 x 5); every pair is apart.
        a = np.array([[0.0, 0.0, 0.0, 3.0, 4.0, 1.0, 0.0]] * 3)
        b = np.array(
            [[5.5, 0.0, 0.0, 3.0, 4.0, 1.0, 0.3], [5.5, 0.0, 40.0, 3.0, 4.0, 1.0, 0.0],
             [0.0, 0.0, -9.0, 4.0, 5.0, 1.0, 1.0]]
        )
        got = bev_iou(a, b)
        assert got.tolist() == [0.0, 0.0, 0.0] == [bev_iou(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert bev_iou(np.zeros((0, 7)), np.zeros((0, 7))).shape == (0,)

    def test_array_bev_iou_rejects_bad_rows(self):
        good = Box3D(0, 0, 0, 1, 1, 1, 0).as_array()[None, :]
        with pytest.raises(ValueError):
            bev_iou(good, np.zeros((1, 6)))
        with pytest.raises(ValueError):
            bev_iou(good, np.array([[0, 0, 0, -1.0, 1, 1, 0]]))


class TestArrayIoU3D:
    """Array iou3d must equal the scalar call bit for bit, flags included."""

    @staticmethod
    def assert_matches_pairs(pairs):
        a = np.array([p[0].as_array() for p in pairs]).reshape(-1, 7)
        b = np.array([p[1].as_array() for p in pairs]).reshape(-1, 7)
        flags_rows, flags_pairs = GeometryFlags(), GeometryFlags()
        got = iou3d(a, b, flags_rows)
        want = [iou3d(x, y, flags_pairs) for x, y in pairs]
        assert got.shape == (len(pairs),)
        assert all(g == w for g, w in zip(got.tolist(), want))
        assert flags_rows == flags_pairs
        return got, flags_rows

    def test_canonical_order_keys_past_the_footprint(self):
        # Pairs equal in (cx, cz, l, w) but not in cy, h or yaw: the 7-key
        # order decides the clip direction where bev_iou's 5 keys would not.
        rng = np.random.default_rng(59)
        pairs = []
        for _ in range(100):
            a = random_box(rng)
            pairs.append((a, replace(a, cy=a.cy + rng.normal(0, 0.2), yaw=a.yaw + rng.normal(0, 0.3))))
            pairs.append((a, replace(a, h=a.h * 1.3, yaw=a.yaw - 0.4)))
        pairs += [(b, a) for a, b in pairs]
        self.assert_matches_pairs(pairs)

    def test_vertically_disjoint_pairs(self):
        rng = np.random.default_rng(61)
        pairs = []
        for _ in range(50):
            a = random_box(rng)
            pairs.append((a, replace(a, cy=a.cy + a.h)))  # touching faces
            pairs.append((a, replace(a, cy=a.cy - 2.0 * a.h, yaw=a.yaw + 0.2)))
        got, _ = self.assert_matches_pairs(pairs)
        assert not np.any(got)

    def test_circle_disjoint_pairs_reach_no_clip(self, monkeypatch):
        # Pairs within one ulp of touching circumcircles, half of them
        # corner to corner, and the same pairs with random yaws.
        rng = np.random.default_rng(67)
        pairs = clip_tie_cases(rng, 100)["tangent_circumcircles"]
        pairs += [(a, replace(b, yaw=rng.uniform(-math.pi, math.pi))) for a, b in pairs]
        pairs += [(b, a) for a, b in pairs]
        meet = [
            math.hypot(a.cx - b.cx, a.cz - b.cz)
            <= 0.5 * math.hypot(a.l, a.w) + 0.5 * math.hypot(b.l, b.w)
            for a, b in pairs
        ]
        assert 0 < sum(meet) < len(pairs)
        scalar_clips, row_clips = [], []
        scalar, rows = geom._bev_intersection_area, geom._clip_area_rows

        def counted_scalar(a, b):
            scalar_clips.append(1)
            return scalar(a, b)

        def counted_rows(sx, sz, cx, cz):
            row_clips.append(len(sx))
            return rows(sx, sz, cx, cz)

        monkeypatch.setattr(geom, "_bev_intersection_area", counted_scalar)
        monkeypatch.setattr(geom, "_clip_area_rows", counted_rows)
        # Every pair overlaps vertically, so only the reject skips a clip.
        got, _ = self.assert_matches_pairs(pairs)
        assert len(scalar_clips) == sum(row_clips) == sum(meet)
        assert not np.any(got[~np.array(meet)])

    def test_degenerate_unions_flagged_alike(self):
        tiny = Box3D(0, 0, 0, 1e-5, 1e-5, 1e-5, 0.3)
        pairs = [(tiny, tiny), (tiny, replace(tiny, cx=1e-6)), (tiny, Box3D(0, 0, 0, 1, 1, 1, 0))]
        _, flags = self.assert_matches_pairs(pairs)
        assert flags.degenerate_union == 2

    def test_empty_and_bad_rows(self):
        assert iou3d(np.zeros((0, 7)), np.zeros((0, 7))).shape == (0,)
        good = Box3D(0, 0, 0, 1, 1, 1, 0).as_array()[None, :]
        with pytest.raises(ValueError):
            iou3d(good, np.zeros((2, 7)))
        with pytest.raises(ValueError):
            iou3d(good, np.array([[0, 0, 0, 1, 0.0, 1, 0]]))


class TestIoUGradFDBatch:
    def pairs(self, rng):
        pairs = [near_pair(rng) for _ in range(150)]
        pairs += [(random_box(rng), random_box(rng)) for _ in range(50)]
        for group in clip_tie_cases(rng, 10).values():
            pairs += group
        for _ in range(20):
            # extents under the step trip the size clamp; tiny volumes make
            # degenerate unions
            a = random_box(rng)
            pairs.append((replace(a, l=1e-7, w=5e-4, h=1e-5), replace(a, l=1e-5, w=1e-5, h=1e-5)))
        return pairs

    @pytest.mark.parametrize("step", [None, 1e-20])
    def test_matches_seed_loop(self, step):
        # A 1e-20 step leaves most parameters unchanged: span == 0 skips
        # the evaluation and its flags.
        steps = None if step is None else np.full(7, step)
        pairs = self.pairs(np.random.default_rng(53))
        want_flags, got_flags = GeometryFlags(), GeometryFlags()
        want = np.array([reference_iou3d_grad_fd(a, b, steps, want_flags) for a, b in pairs])
        # The gradient view of the fused call counts the pairs' own IoU
        # guard too.
        for a, b in pairs:
            iou3d(a, b, want_flags)
        got = iou3d_grad_fd(
            np.array([a.as_array() for a, _ in pairs]),
            np.array([b.as_array() for _, b in pairs]),
            steps=steps,
            flags=got_flags,
        )
        assert np.array_equal(got, want)
        assert got_flags == want_flags
        assert want_flags.size_clamped > 0 and want_flags.degenerate_union > 0

    def test_box_form_is_a_row_of_the_batch(self):
        # A one-pair call equals that pair's row of the batch.
        pairs = self.pairs(np.random.default_rng(59))[:40]
        batch = iou3d_grad_fd(
            np.array([a.as_array() for a, _ in pairs]), np.array([b.as_array() for _, b in pairs])
        )
        for row, (a, b) in zip(batch, pairs):
            assert np.array_equal(grad_fd(a, b), row)


class TestIoUAndGradFD:
    """The fused call equals the scalar iou3d and the per-pair reference
    gradient bit for bit, flags included, from one clip-kernel call."""

    @staticmethod
    def assert_matches_reference(pairs, steps=None):
        a = np.array([p[0].as_array() for p in pairs]).reshape(-1, 7)
        b = np.array([p[1].as_array() for p in pairs]).reshape(-1, 7)
        flags_fused, flags_ref = GeometryFlags(), GeometryFlags()
        iou, grad = iou3d_and_grad_fd(a, b, steps=steps, flags=flags_fused)
        want_iou = [iou3d(x, y, flags_ref) for x, y in pairs]
        want_grad = [reference_iou3d_grad_fd(x, y, steps, flags_ref) for x, y in pairs]
        assert iou.shape == (len(pairs),) and grad.shape == (len(pairs), 7)
        assert iou.tolist() == want_iou
        assert np.array_equal(grad, np.reshape(want_grad, (-1, 7)))
        assert flags_fused == flags_ref
        return iou, flags_fused

    def test_vertically_disjoint_pairs_get_no_clip_row(self, monkeypatch):
        rng = np.random.default_rng(73)
        pairs = []
        for _ in range(30):
            a = random_box(rng)
            pairs.append((a, replace(a, cy=a.cy + 2.0 * a.h)))
        pairs += [near_pair(rng) for _ in range(10)]
        rows = []
        clip = geom._clip_area_rows

        def counting(*corners):
            rows.append(len(corners[0]))
            return clip(*corners)

        monkeypatch.setattr(geom, "_clip_area_rows", counting)
        iou, _ = self.assert_matches_reference(pairs)
        assert not np.any(iou[:30])
        n_overlap = sum(
            min(a.cy + 0.5 * a.h, b.cy + 0.5 * b.h) - max(a.cy - 0.5 * a.h, b.cy - 0.5 * b.h) > 0.0
            for a, b in pairs
        )
        assert 0 < n_overlap <= 10
        # One call: the FD rows (base plus 2 x 5 footprint perturbations
        # per pair) and one row per pair with vertical overlap.  The
        # scalar references never reach the kernel.
        n = len(pairs)
        assert rows == [11 * n + n_overlap]

    def test_size_floor_clamps_and_degenerate_unions(self):
        rng = np.random.default_rng(79)
        pairs = []
        for _ in range(20):
            a = random_box(rng)
            pairs.append((replace(a, l=1e-7, w=5e-4, h=1e-5), replace(a, l=1e-5, w=1e-5, h=1e-5)))
        _, flags = self.assert_matches_reference(pairs)
        assert flags.size_clamped > 0 and flags.degenerate_union > 0
        _, flags = self.assert_matches_reference(pairs, steps=np.full(7, 1e-20))
        assert flags.degenerate_union > 0

    def test_empty_batch(self):
        flags = GeometryFlags()
        iou, grad = iou3d_and_grad_fd(np.zeros((0, 7)), np.zeros((0, 7)), flags=flags)
        assert iou.shape == (0,) and grad.shape == (0, 7)
        assert flags == GeometryFlags()

    def test_rejects_bad_rows_as_the_separate_calls_do(self):
        good = Box3D(0, 0, 0, 1, 1, 1, 0).as_array()[None, :]
        for bad in (np.zeros((2, 7)), np.array([[0, 0, 0, 1, 0.0, 1, 0]]), np.full((1, 7), np.nan)):
            with pytest.raises(ValueError):
                iou3d_and_grad_fd(good, bad)
