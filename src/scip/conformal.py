"""Split conformal machinery: scores, rank-based prediction sets, informativeness levels.

The level-q prediction set collects every candidate label whose rank among the
calibration scores keeps ``(1 + #{i : V_i >= V(x, y)}) / (n + 1)`` strictly
above q.  Because the count only changes at calibration score values, each set
is a score sublevel region ``{y : V(x, y) <= v*}`` with a closed-form radius
v*, so no label-space grid search is ever needed.

The I-adjusted p-value of a unit is the smallest level at which its prediction
set becomes admissible for the active constraint.  With the constraint's
breakpoint nu(x) in hand it reduces to the tie-aware count
``(1 + #{i : V_i >= nu(x)}) / (n + 1)``, with the convention that it equals 1
when no admissible nonempty set exists at any level.

Both rank counts are cheap at n = m = 1e6: ``count_geq`` runs its binary
searches over the keys in ascending order, so the sorted scores are read left
to right, and the level count behind ``score_radius`` is arithmetic,
``floor(q (n + 1))`` corrected by one step each way, with no level grid held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InformativeConstraint,
    MuHatFn,
    ProbFn,
    ScipError,
    _search_in_key_order,
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
    kind: str = "absolute_residual"

    def eval(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(y, dtype=float) - np.asarray(self.mu_hat(X), dtype=float))


@dataclass(frozen=True)
class OneMinusProb:
    """V(x, y) = 1 - p_hat(Y = y | x) for a frozen class-probability estimator."""

    p_hat: ProbFn
    kind: str = "one_minus_prob"

    def eval(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        probs = np.asarray(self.p_hat(X), dtype=float)
        labels = np.asarray(y)
        return 1.0 - probs[np.arange(probs.shape[0]), labels - 1]


@dataclass(frozen=True)
class ClippedScore:
    """mu_hat(x) - c0 - 2M * 1{y > c0}, with M exceeding sup |mu_hat|.

    The clip drops every label above c0 far below every label at or under it,
    which turns rank comparisons into comparisons of mu_hat among sub-threshold
    units only.
    """

    mu_hat: MuHatFn
    c0: float
    big_m: float
    kind: str = "clipped"

    def eval(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        mu = np.asarray(self.mu_hat(X), dtype=float)
        return mu - self.c0 - 2.0 * self.big_m * (np.asarray(y, dtype=float) > self.c0)


NonconformityScore = AbsoluteResidual | OneMinusProb | ClippedScore


# ---------------------------------------------------------------------------
# Calibration scores
# ---------------------------------------------------------------------------


class CalibrationScores:
    """Frozen calibration score sample with rank/count helpers.

    ``count_geq(v)`` searches the keys in ascending order and scatters the
    counts back, so a large batch of keys reads the sorted scores once from
    left to right.  ``min_count_for_level(q)`` returns the smallest integer c
    such that a candidate with c calibration scores >= its own score passes
    the strict level-q rank test, i.e. the number of grid values k/(n+1),
    k = 1..n+1, that are <= q.  It is computed arithmetically, without the
    grid.  A result of 0 means every candidate passes; n+1 means none does
    (NaN gives n+1).
    """

    def __init__(self, values):
        vals = np.asarray(values, dtype=float).ravel()
        if vals.size == 0:
            raise ValueError("calibration scores must be nonempty")
        if not np.all(np.isfinite(vals)):
            raise ValueError("calibration scores must be finite")
        self._values = vals.copy()
        self._values.setflags(write=False)
        self._sorted = np.sort(vals)
        self._sorted.setflags(write=False)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def n(self) -> int:
        return self._values.size

    def count_geq(self, v) -> np.ndarray | int:
        """#{i : V_i >= v}, vectorized over v."""
        keys = np.asarray(v)
        order, below = _search_in_key_order(self._sorted, keys.ravel(), "left")
        np.subtract(self.n, below, out=below)
        out = np.empty_like(below)
        out[order] = below
        return out.reshape(keys.shape)[()]  # [()] makes a 0-d result a scalar

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
        if np.any(~((q_arr >= 0.0) & (q_arr <= 1.0))):
            raise LevelError("conformal levels must lie in [0, 1]")
        counts = np.asarray(self.min_count_for_level(q_arr))
        radii = np.empty(counts.shape, dtype=float)
        all_in = counts == 0
        none_in = counts == self.n + 1
        mid = ~(all_in | none_in)
        radii[all_in] = math.inf
        radii[none_in] = -math.inf
        radii[mid] = self._sorted[self.n - counts[mid]]
        return radii if np.ndim(q) else float(radii[()])


# ---------------------------------------------------------------------------
# I-adjusted p-values
# ---------------------------------------------------------------------------


def i_adjusted_pvalues(
    X: np.ndarray,
    cal: CalibrationScores,
    score: NonconformityScore,
    constraint: InformativeConstraint,
) -> np.ndarray:
    """Smallest admissible conformal level per unit; 1 when none exists."""
    nu = np.asarray(constraint.breakpoints(score, np.asarray(X, dtype=float)), dtype=float)
    ok = ~np.isnan(nu)
    every = bool(ok.all())
    # count_geq(+inf) = 0, so an always-admissible unit gets the floor 1/(n+1)
    pvals = np.add(cal.count_geq(nu if every else nu[ok]), 1.0)
    pvals /= cal.n + 1
    if every:
        return pvals
    out = np.ones(nu.shape, dtype=float)
    out[ok] = pvals
    return out

