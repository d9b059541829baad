"""Cross-anchor logit distillation.

Classification logits of all anchors at one BEV position are flattened
into a single vector and renormalized with one softmax, so the teacher's
single most confident (anchor, class) pair dominates the target
distribution.  The loss is a row-mean KL divergence with the teacher as
reference.  The classical per-anchor baseline is the same softmax and KL
with one anchor per position: ``unified_distribution(LogitMap(values,
k_a=1))``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12

# Softmax output floor; keeps distributions strictly positive even for
# pathologically spread logits without measurably changing row sums.
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class LogitMap:
    """Classification logits over the anchors of selected positions.

    ``values`` has one row per (position, anchor slot) pair — row index
    ``p * k_a + a`` — and one column per class.
    """

    values: np.ndarray
    k_a: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("logits must be finite")
        if self.k_a < 1:
            raise ValueError(f"k_a must be >= 1, got {self.k_a}")
        if values.shape[0] % self.k_a != 0:
            raise ValueError(
                f"row count {values.shape[0]} is not divisible by k_a={self.k_a}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def m_fore(self) -> int:
        return self.values.shape[0] // self.k_a

    @property
    def k_c(self) -> int:
        return self.values.shape[1]

    def flattened(self) -> np.ndarray:
        """(m_fore, k_a * k_c) view; entry index is anchor * k_c + class."""
        return self.values.reshape(self.m_fore, self.k_a * self.k_c)


@dataclass(frozen=True)
class UnifiedDistribution:
    """Row-stochastic matrix over the (anchor, class) pairs of a position."""

    rows: np.ndarray
    k_a: int
    k_c: int

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.k_a * self.k_c:
            raise ValueError(
                f"rows must be (m_fore, k_a*k_c); got {rows.shape} for k_a={self.k_a}, k_c={self.k_c}"
            )
        if rows.size and (np.any(rows <= 0.0) or np.max(np.abs(rows.sum(axis=1) - 1.0)) > ROW_SUM_TOL):
            raise ValueError("rows must be strictly positive and sum to 1")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def m_fore(self) -> int:
        return self.rows.shape[0]


def unified_distribution(logits: LogitMap, tau: float = 1.0) -> UnifiedDistribution:
    """Softmax over each position's flattened (anchor, class) logits / tau."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    flat = logits.flattened() / tau
    if flat.shape[0] == 0:
        return UnifiedDistribution(flat.copy(), logits.k_a, logits.k_c)
    shifted = flat - flat.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    probs = np.maximum(probs, PROB_FLOOR)
    return UnifiedDistribution(probs, logits.k_a, logits.k_c)


def cld_loss(teacher: UnifiedDistribution, student: UnifiedDistribution) -> float:
    """Mean over positions of KL(teacher row || student row); 0 when empty."""
    if teacher.rows.shape != student.rows.shape:
        raise ValueError(
            f"shape mismatch: teacher {teacher.rows.shape} vs student {student.rows.shape}"
        )
    if teacher.m_fore == 0:
        return 0.0
    kl = np.sum(teacher.rows * (np.log(teacher.rows) - np.log(student.rows)), axis=1)
    return float(np.mean(kl))


def cld_grad(
    teacher: UnifiedDistribution, student: UnifiedDistribution, tau: float = 1.0
) -> np.ndarray:
    """Analytic gradient of :func:`cld_loss` w.r.t. the student logits.

    ``student`` is the distribution the loss was evaluated at, i.e.
    ``unified_distribution(student_logits, tau)``.  For a
    softmax-parameterized student this is (P_student - P_teacher) scaled by
    1 / (tau * m_fore), returned in the LogitMap row layout.
    """
    if teacher.rows.shape != student.rows.shape:
        raise ValueError(
            f"shape mismatch: teacher {teacher.rows.shape} vs student {student.rows.shape}"
        )
    m = student.m_fore
    if m == 0:
        return np.zeros((0, student.k_c))
    flat_grad = (student.rows - teacher.rows) / (tau * m)
    return flat_grad.reshape(m * student.k_a, student.k_c)

