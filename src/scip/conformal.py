"""Split conformal machinery: scores, rank-based prediction sets, informativeness levels.

The level-q prediction set collects every candidate label whose rank among the
calibration scores keeps ``(1 + #{i : V_i >= V(x, y)}) / (n + 1)`` strictly
above q.  Because the count only changes at calibration score values, each set
is a score sublevel region ``{y : V(x, y) <= v*}`` with a closed-form radius
v*, so no label-space grid search is ever needed.

The I-adjusted p-value of a unit is the smallest level at which its prediction
set becomes admissible for the active constraint.  A score turns X into
predictions once (``predict``) and reads its scores (``scores``) and sets
(``sets``) from them; the constraint reads them for its breakpoint nu(x),
and the p-value is ``admissible_level``: ``(1 + #{i : V_i >= nu(x)}) / (n + 1)``.
A unit with no admissible nonempty set at any level has nu(x) = -inf: p = 1.

Both rank counts are cheap at n = m = 1e6.  ``count_geq`` hands its keys to
``core._ranks``, which splits them into contiguous index chunks, one thread
per usable CPU from 2^17 keys on, and searches each chunk's keys in ascending
order, so the sorted scores are read nearly left to right (a run of 2^12 keys
only between its least and greatest key); each chunk writes only its own
slots, so the counts are the same integers whatever the split.
The level count behind ``score_radius`` is arithmetic, ``floor(q (n + 1))``
corrected by one step each way, with no level grid held.  A radius is then
one gather from the sorted scores held between a -inf and a +inf sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClassBatch,
    InformativeConstraint,
    IntervalBatch,
    MuHatFn,
    ProbFn,
    ScipError,
    _ranks,
)


class LevelError(ScipError):
    """A conformal level outside [0, 1] was requested."""


# ---------------------------------------------------------------------------
# Nonconformity scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsoluteResidual:
    """V(x, y) = |y - mu_hat(x)| for a frozen point predictor."""

    mu_hat: MuHatFn

    def predict(self, X: np.ndarray) -> np.ndarray:
        """mu_hat per row of X, as floats of shape (n,)."""
        return np.asarray(self.mu_hat(X), dtype=float)

    @staticmethod
    def scores(mu: np.ndarray, y: np.ndarray) -> np.ndarray:
        """|y - mu| per prediction mu and label y; ``eval(X, y)`` is ``scores(predict(X), y)``."""
        return np.abs(np.asarray(y, dtype=float) - mu)

    def eval(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        # scores(predict(X), y) spelled out, so that the predictions are freed before the result is allocated
        return np.abs(np.asarray(y, dtype=float) - self.predict(X))

    sets = staticmethod(IntervalBatch.from_radius)  # {y : |y - mu| <= r} per prediction mu and radius r


@dataclass(frozen=True)
class OneMinusProb:
    """V(x, y) = 1 - p_hat(Y = y | x) for a frozen class-probability estimator."""

    p_hat: ProbFn

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities per row of X, as floats of shape (n, K)."""
        return np.asarray(self.p_hat(X), dtype=float)

    @staticmethod
    def scores(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
        """1 - p_y per probability row and label y in 1..K."""
        return 1.0 - probs[np.arange(probs.shape[0]), np.asarray(y) - 1]

    sets = staticmethod(ClassBatch.from_radius)  # {y : 1 - p_y <= r} per probability row and radius r


NonconformityScore = AbsoluteResidual | OneMinusProb


# ---------------------------------------------------------------------------
# Calibration scores
# ---------------------------------------------------------------------------


class CalibrationScores:
    """Frozen calibration score sample with rank/count helpers.

    ``count_geq(v)`` takes its counts from ``core._ranks``, which searches a
    large batch of keys in index chunks, one thread each, every chunk in
    ascending key order; the counts come back in the keys' own order and are
    exact whatever the split.
    ``min_count_for_level(q)`` returns the smallest integer c such that a
    candidate with c calibration scores >= its own score passes the strict
    level-q rank test, i.e. the number of grid values k/(n+1), k = 1..n+1,
    that are <= q.  It is computed arithmetically, without the grid.  A
    result of 0 means every candidate passes; n+1 means none does (NaN gives
    n+1).  ``score_radius(q)`` gathers the radius from the sorted scores held
    between a -inf and a +inf sentinel.
    """

    def __init__(self, values):
        vals = np.asarray(values, dtype=float).ravel()
        if vals.size == 0:
            raise ValueError("calibration scores must be nonempty")
        if not np.all(np.isfinite(vals)):
            raise ValueError("calibration scores must be finite")
        # the sorted scores between a -inf and a +inf sentinel, so a radius is one gather
        self._padded = np.empty(vals.size + 2)
        self._padded[0], self._padded[-1] = -math.inf, math.inf
        self._padded[1:-1] = vals
        self._padded[1:-1].sort()
        self._padded.setflags(write=False)
        self._sorted = self._padded[1:-1]

    @property
    def n(self) -> int:
        return self._sorted.size

    def count_geq(self, v) -> np.ndarray | int:
        """#{i : V_i >= v}, vectorized over v."""
        keys = np.asarray(v)
        (below,) = _ranks(self._sorted, keys.ravel(), "left")
        # the counts stay intp whatever width _ranks returns; [()] makes a 0-d result a scalar
        return np.subtract(self.n, below, dtype=np.intp).reshape(keys.shape)[()]

    def admissible_level(self, nu) -> np.ndarray:
        """The I-adjusted p-value (1 + #{i : V_i >= nu}) / (n + 1): 1 at nu = -inf, 1/(n+1) at +inf."""
        pvals = np.add(self.count_geq(nu), 1.0)
        pvals /= self.n + 1
        return pvals

    def min_count_for_level(self, q) -> np.ndarray | int:
        """#{k in 1..n+1 : k/(n+1) <= q}, vectorized over q.

        floor(q (n+1)) is off by at most one; one step each way against the
        grid values c/(n+1) and (c+1)/(n+1), the same correctly rounded
        quotients as ``np.arange(1, n+2) / (n+1)``, makes the count exact.
        """
        q = np.asarray(q, dtype=float)
        n1 = self.n + 1
        with np.errstate(over="ignore"):
            c = np.atleast_1d(q * n1)
        np.floor(c, out=c)
        c -= c / n1 > q
        c += (c + 1.0) / n1 <= q
        np.fmin(c, n1, out=c)  # caps at n+1, and turns NaN (no candidate passes) into n+1
        counts = np.maximum(c, 0.0, out=c).astype(np.intp)
        return counts if q.ndim else int(counts[0])

    def score_radius(self, q) -> np.ndarray | float:
        """Largest score value admitted at level q: +inf (all), -inf (none), or a score.

        The radius is the min_count-th largest calibration score; candidates
        belong to the level-q set exactly when their score is <= the radius.
        """
        q_arr = np.asarray(q, dtype=float)
        if q_arr.size and not (q_arr.min() >= 0.0 and q_arr.max() <= 1.0):  # a NaN fails both
            raise LevelError("conformal levels must lie in [0, 1]")
        radii = self._padded[self.n + 1 - self.min_count_for_level(q_arr)]
        return radii if np.ndim(q) else float(radii)


# ---------------------------------------------------------------------------
# I-adjusted p-values
# ---------------------------------------------------------------------------


def i_adjusted_pvalues(
    X: np.ndarray,
    cal: CalibrationScores,
    score: NonconformityScore,
    constraint: InformativeConstraint,
) -> np.ndarray:
    """Smallest admissible conformal level per row of X; 1 when none exists."""
    return cal.admissible_level(constraint.breakpoints(score.predict(np.asarray(X, dtype=float))))
