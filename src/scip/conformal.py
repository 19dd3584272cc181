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

Both rank passes are cheap at n = m = 1e6.  ``admissible_level`` hands its
keys to ``core._ranks``, which searches them in contiguous index chunks
(``core._in_chunks``): one chunk inline below 2^17 keys, otherwise one
thread per usable CPU, each chunk in ascending key order, so the sorted
scores are read nearly left to right (a run of 2^12 keys only between its
least and greatest key).  The int32 counts below each key become the
quotient (n + 1 - below) / (n + 1) in one inline pass.  The level count
behind ``score_radius`` is arithmetic, ``floor(q (n + 1))`` corrected by one
step each way, with no level grid held; it runs in the same index chunks,
each of which checks its levels, counts them and gathers their radii from
the sorted scores held between a -inf and a +inf sentinel, block by block
into the caller's output.  Every chunk writes only its own slots with
element-wise operations, so each count and radius has the same bits
whatever the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    ClassBatch,
    InformativeConstraint,
    IntervalBatch,
    MuHatFn,
    ProbFn,
    ScipError,
    _BLOCK_KEYS,
    _in_chunks,
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
    """Frozen calibration score sample with its two rank passes.

    ``admissible_level(nu)`` takes its counts from ``core._ranks``, which
    searches a large batch of keys in index chunks, one thread each, every
    chunk in ascending key order; the counts come back in the keys' own order
    and are exact whatever the split.  ``score_radius(q)`` runs in
    ``core._in_chunks``' index chunks: each chunk range-checks its levels,
    counts them (``_min_counts``) and gathers their radii from the sorted
    scores held between a -inf and a +inf sentinel, ``_BLOCK_KEYS`` levels at
    a time, so a thread allocates nothing larger than a block.
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

    def admissible_level(self, nu) -> np.ndarray:
        """The I-adjusted p-value (1 + #{i : V_i >= nu}) / (n + 1): 1 at nu = -inf, 1/(n+1) at +inf."""
        keys = np.asarray(nu)
        (below,) = _ranks(self._sorted, keys.ravel(), "left")
        pvals = np.subtract(self.n + 1, below, dtype=float)  # the count, exact in float
        pvals /= self.n + 1
        return pvals.reshape(keys.shape)[()]

    def score_radius(self, q) -> np.ndarray | float:
        """Largest score value admitted at level q: +inf (all), -inf (none), or a score.

        The radius is the c-th largest calibration score, with c the level's
        ``_min_counts``; candidates belong to the level-q set exactly when
        their score is <= the radius.
        """
        q_arr = np.asarray(q, dtype=float)
        levels = q_arr.ravel()
        radii = np.empty(levels.size)
        _in_chunks(levels.size, partial(_radius_chunk, self._padded, levels, radii))
        return radii.reshape(q_arr.shape) if np.ndim(q) else float(radii[0])


def _min_counts(n1: int, q, c):
    """#{k in 1..n+1 : k/(n+1) <= q} per level q, as floats written to c (of q's shape) and returned.

    This is the smallest count c of calibration scores at or above a
    candidate's own score that passes the strict level-q rank test: 0 means
    every candidate passes, n+1 that none does (NaN gives n+1).
    floor(q (n+1)) is off by at most one; one step each way against the grid
    values c/(n+1) and (c+1)/(n+1), the same correctly rounded quotients as
    ``np.arange(1, n+2) / (n+1)``, makes the count exact.
    """
    with np.errstate(over="ignore"):
        np.multiply(q, n1, out=c)
    np.floor(c, out=c)
    c -= c / n1 > q
    c += (c + 1.0) / n1 <= q
    np.fmin(c, n1, out=c)  # caps at n+1, and turns NaN (no candidate passes) into n+1
    return np.maximum(c, 0.0, out=c)


def _radius_chunk(padded, levels, radii, lo: int, hi: int):
    """``radii[lo:hi]``: the range check, the min counts and the gather of ``levels[lo:hi]``, block by block."""
    n1 = padded.size - 1
    counts = np.empty(min(_BLOCK_KEYS, hi - lo))
    index = np.empty(counts.size, dtype=np.intp)
    for start in range(lo, hi, _BLOCK_KEYS):
        q = levels[start : min(start + _BLOCK_KEYS, hi)]
        if not (q.min() >= 0.0 and q.max() <= 1.0):  # a NaN fails both
            raise LevelError("conformal levels must lie in [0, 1]")
        c = _min_counts(n1, q, counts[: q.size])
        np.subtract(n1, c, out=c)  # n + 1 - count: the radius's slot among the padded scores
        index[: q.size] = c
        np.take(padded, index[: q.size], out=radii[start : start + q.size], mode="clip")  # mode "raise" buffers


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
