import math

import numpy as np
import pytest

from boxdistill.cld import (
    LogitMap,
    UnifiedDistribution,
    cld_grad,
    cld_loss,
    unified_distribution,
)

# Frozen two-term reference: KL((1/2, 1/2) || (3/4, 1/4)).
HAND_KL = 0.5 * math.log(2.0 / 3.0) + 0.5 * math.log(2.0)


class TestLogitMap:
    def test_layout_metadata(self):
        lm = LogitMap(np.zeros((6, 3)), k_a=2)
        assert (lm.m_fore, lm.k_a, lm.k_c) == (3, 2, 3)

    def test_flattening_is_anchor_major(self):
        values = np.arange(12, dtype=float).reshape(4, 3)  # 2 positions x 2 anchors
        flat = LogitMap(values, k_a=2).flattened()
        # row 0 = anchors 0,1 of position 0; entry index = anchor * k_c + class
        assert flat[0].tolist() == [0, 1, 2, 3, 4, 5]
        assert flat[1].tolist() == [6, 7, 8, 9, 10, 11]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LogitMap(np.zeros((5, 3)), k_a=2)  # not divisible
        with pytest.raises(ValueError):
            LogitMap(np.zeros(6), k_a=2)  # 1-D
        with pytest.raises(ValueError):
            LogitMap(np.array([[np.inf, 0.0]]), k_a=1)


class TestUnifiedDistribution:
    def test_uniform_for_zero_logits(self):
        dist = unified_distribution(LogitMap(np.zeros((2, 3)), k_a=2))
        assert np.allclose(dist.rows, 1.0 / 6.0, atol=1e-15)

    def test_closed_form_softmax(self):
        logits = LogitMap(np.array([[math.log(2.0), 0, 0], [0, 0, 0]]), k_a=2)
        rows = unified_distribution(logits).rows
        assert rows[0, 0] == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert np.allclose(rows[0, 1:], 1.0 / 7.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 2, size=(4, 3))
        base = unified_distribution(LogitMap(values, k_a=2)).rows
        shifted = values.reshape(2, 6) + 5.0
        moved = unified_distribution(LogitMap(shifted.reshape(4, 3), k_a=2)).rows
        assert np.allclose(base, moved, atol=1e-9)

    def test_row_sums_fuzz(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            m, k_a, k_c = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            lm = LogitMap(rng.normal(0, 4, size=(m * k_a, k_c)), k_a=k_a)
            rows = unified_distribution(lm, tau=float(rng.uniform(0.1, 10))).rows
            assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12
            assert np.all(rows > 0)

    def test_rejects_non_positive_tau(self):
        with pytest.raises(ValueError):
            unified_distribution(LogitMap(np.zeros((2, 2)), k_a=1), tau=0.0)

    def test_highlighting_property(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            lm = LogitMap(rng.normal(0, 2, size=(6, 4)), k_a=3)
            dist = unified_distribution(lm)
            assert np.array_equal(dist.rows.argmax(axis=1), lm.flattened().argmax(axis=1))

    def test_tau_limit_flattens(self):
        rng = np.random.default_rng(3)
        lm = LogitMap(rng.normal(0, 3, size=(4, 3)), k_a=2)
        rows = unified_distribution(lm, tau=1e6).rows
        # entries land within (logit spread / tau) of uniform
        assert np.max(np.abs(rows - 1.0 / 6.0)) < 1e-5

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            UnifiedDistribution(np.array([[0.5, 0.6]]), k_a=1, k_c=2)
        with pytest.raises(ValueError):
            UnifiedDistribution(np.array([[1.0, 0.0]]), k_a=1, k_c=2)


class TestCldLoss:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(4)
        lm = LogitMap(rng.normal(size=(4, 3)), k_a=2)
        dist = unified_distribution(lm)
        assert cld_loss(dist, dist) == 0.0

    def test_hand_example(self):
        teacher = unified_distribution(LogitMap(np.zeros((1, 2)), k_a=1))
        student = unified_distribution(LogitMap(np.array([[math.log(3.0), 0.0]]), k_a=1))
        assert cld_loss(teacher, student) == pytest.approx(HAND_KL, abs=1e-12)
        assert HAND_KL == pytest.approx(0.143841, abs=1e-6)

    def test_empty_mean_is_zero(self):
        empty = unified_distribution(LogitMap(np.zeros((0, 3)), k_a=1))
        assert cld_loss(empty, empty) == 0.0

    def test_non_negative_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m, k_a, k_c = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 5))
            t = unified_distribution(LogitMap(rng.normal(0, 3, size=(m * k_a, k_c)), k_a=k_a))
            s = unified_distribution(LogitMap(rng.normal(0, 3, size=(m * k_a, k_c)), k_a=k_a))
            assert cld_loss(t, s) >= -1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        lm = LogitMap(rng.normal(size=(4, 3)), k_a=2)
        t = unified_distribution(lm)
        nudged = LogitMap(lm.values + np.array([0.05, 0, 0]), k_a=2)
        assert cld_loss(t, unified_distribution(nudged)) > 1e-6

    def test_shift_invariance_of_loss(self):
        rng = np.random.default_rng(7)
        t_vals = rng.normal(size=(4, 3))
        s_vals = rng.normal(size=(4, 3))
        t = unified_distribution(LogitMap(t_vals, k_a=2))
        base = cld_loss(t, unified_distribution(LogitMap(s_vals, k_a=2)))
        shifted = (s_vals.reshape(2, 6) + rng.normal(0, 10, size=(2, 1))).reshape(4, 3)
        moved = cld_loss(t, unified_distribution(LogitMap(shifted, k_a=2)))
        assert moved == pytest.approx(base, abs=1e-9)

    def test_shape_mismatch_rejected(self):
        a = unified_distribution(LogitMap(np.zeros((2, 3)), k_a=2))
        b = unified_distribution(LogitMap(np.zeros((4, 3)), k_a=2))
        with pytest.raises(ValueError):
            cld_loss(a, b)

    def test_tau_large_drives_loss_to_zero(self):
        rng = np.random.default_rng(8)
        t_vals = rng.normal(0, 3, size=(4, 3))
        s_vals = rng.normal(0, 3, size=(4, 3))
        t = unified_distribution(LogitMap(t_vals, k_a=2), tau=1e6)
        s = unified_distribution(LogitMap(s_vals, k_a=2), tau=1e6)
        assert cld_loss(t, s) < 1e-6


class TestCldGrad:
    def test_zero_at_identical(self):
        rng = np.random.default_rng(9)
        lm = LogitMap(rng.normal(size=(4, 3)), k_a=2)
        grad = cld_grad(unified_distribution(lm), unified_distribution(lm))
        assert np.max(np.abs(grad)) < 1e-12

    def test_per_row_sums_vanish(self):
        rng = np.random.default_rng(10)
        t = unified_distribution(LogitMap(rng.normal(size=(6, 3)), k_a=2))
        s = LogitMap(rng.normal(size=(6, 3)), k_a=2)
        grad = cld_grad(t, unified_distribution(s))
        flat = grad.reshape(3, 6)
        assert np.max(np.abs(flat.sum(axis=1))) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m, k_a, k_c = 3, 2, 3
            tau = float(rng.uniform(0.5, 3))
            t = unified_distribution(LogitMap(rng.normal(0, 2, size=(m * k_a, k_c)), k_a=k_a), tau)
            s_vals = rng.normal(0, 2, size=(m * k_a, k_c))
            analytic = cld_grad(t, unified_distribution(LogitMap(s_vals, k_a=k_a), tau), tau)
            h = 1e-5
            fd = np.zeros_like(s_vals)
            for i in range(m * k_a):
                for j in range(k_c):
                    up, dn = s_vals.copy(), s_vals.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd[i, j] = (
                        cld_loss(t, unified_distribution(LogitMap(up, k_a=k_a), tau))
                        - cld_loss(t, unified_distribution(LogitMap(dn, k_a=k_a), tau))
                    ) / (2 * h)
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel < 1e-4

    def test_empty_map(self):
        t = unified_distribution(LogitMap(np.zeros((0, 3)), k_a=1))
        grad = cld_grad(t, unified_distribution(LogitMap(np.zeros((0, 3)), k_a=1)))
        assert grad.shape == (0, 3)


def per_anchor(values, tau=1.0):
    """The classical per-anchor softmax: the unified one, one anchor per position."""
    return unified_distribution(LogitMap(values, k_a=1), tau)


def classical_loss(t_vals, s_vals, tau=1.0):
    return cld_loss(per_anchor(t_vals, tau), per_anchor(s_vals, tau))


class TestClassicalDistill:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(12)
        lm = LogitMap(rng.normal(size=(4, 3)), k_a=2)
        assert classical_loss(lm.values, lm.values) == 0.0

    def test_single_class_degenerate(self):
        rng = np.random.default_rng(13)
        t = LogitMap(rng.normal(size=(6, 1)), k_a=2)
        s = LogitMap(rng.normal(size=(6, 1)), k_a=2)
        assert classical_loss(t.values, s.values) == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n, k_c = int(rng.integers(1, 5)) * 2, int(rng.integers(2, 5))
            tau = float(rng.uniform(0.5, 3))
            t_vals = rng.normal(0, 2, size=(n, k_c))
            s_vals = rng.normal(0, 2, size=(n, k_c))
            got = classical_loss(t_vals, s_vals, tau)
            acc = 0.0
            for i in range(n):
                pt = np.exp(t_vals[i] / tau) / np.exp(t_vals[i] / tau).sum()
                ps = np.exp(s_vals[i] / tau) / np.exp(s_vals[i] / tau).sum()
                acc += float(np.sum(pt * (np.log(pt) - np.log(ps))))
            assert got == pytest.approx(acc / n, abs=1e-12)

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(15)
        t_vals = rng.normal(size=(4, 3))
        s_vals = rng.normal(size=(4, 3))
        analytic = cld_grad(per_anchor(t_vals), per_anchor(s_vals))
        h = 1e-5
        fd = np.zeros_like(s_vals)
        for i in range(4):
            for j in range(3):
                up, dn = s_vals.copy(), s_vals.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (classical_loss(t_vals, up) - classical_loss(t_vals, dn)) / (2 * h)
        assert np.linalg.norm(analytic - fd) / np.linalg.norm(fd) < 1e-4

    def test_layout_mismatch_rejected(self):
        # Unified teacher rows cannot be compared with per-anchor student rows.
        values = np.zeros((4, 3))
        teacher = unified_distribution(LogitMap(values, k_a=2))
        with pytest.raises(ValueError):
            cld_loss(teacher, per_anchor(values))
        with pytest.raises(ValueError):
            cld_grad(teacher, per_anchor(values))
