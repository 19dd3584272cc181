"""Trust-score ranking and selection: generalized conformal p-values and BH thresholding.

A generalized conformal p-value compares a test unit's trust score against the
trust scores of the *null* calibration units (those whose label escaped their
own informative set):

    p_j = [ #{i : null_i, T_i > T_j} + (1 + #{i : null_i, T_i = T_j}) * U_j ] / (n + 1)

with U_j in (0, 1] breaking ties.  Both counts come from ``core._ranks``,
which searches the sorted null trusts in index chunks of the test trusts (one
thread per usable CPU from 2^17 keys on), each chunk in ascending order; from
2^15 test trusts on it searches once per trust and reads the count above a
tied trust off the end of its run of ties.  The counts come back in unit
order, exact whatever the split, as int32 below 2^31 - 1 null units.  The
U_j are drawn only once the counts are in hand, and the formula is evaluated
in the draws' own buffer, so at large m the step holds about 16 bytes per
test unit at its peak.  Each run of 2^12 ascending keys searches only the
slice of sorted null trusts between its least and greatest key.
Selection applies the step-up BH rule, whose self-consistent form
alpha_hat = max{a : (alpha/m) #{p <= a} >= a} produces the identical
selected set.  The counting-knockoff scan over an estimated false discovery
proportion reproduces BH on deterministic (U = 1) p-values and, with a
single shared U, the homogeneous variant.  Over the FASI pool (one target
class's probability as trust) and the Zhao-Su pool (the largest
probability) it is the selective-classification reference of the
equivalence suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import RngStream, _ranks


class TieMode(enum.Enum):
    """How the uniform tie-breakers in the generalized p-values are drawn."""

    PER_UNIT = "per_unit"
    SHARED_U = "shared_u"
    DETERMINISTIC = "deterministic"


@dataclass(frozen=True)
class ScoredPool:
    """Calibration trust scores with null flags, plus test trust scores."""

    cal_trust: np.ndarray
    cal_null: np.ndarray
    test_trust: np.ndarray

    def __post_init__(self):
        cal = np.asarray(self.cal_trust, dtype=float)
        null = np.asarray(self.cal_null, dtype=bool)
        test = np.asarray(self.test_trust, dtype=float)
        if cal.shape != null.shape or cal.ndim != 1 or test.ndim != 1:
            raise ValueError("pool arrays must be aligned 1-d vectors")
        if not (np.all(np.isfinite(cal)) and np.all(np.isfinite(test))):
            raise ValueError("trust scores must be finite")
        object.__setattr__(self, "cal_trust", cal)
        object.__setattr__(self, "cal_null", null)
        object.__setattr__(self, "test_trust", test)

    @property
    def n(self) -> int:
        return self.cal_trust.size

    @property
    def m(self) -> int:
        return self.test_trust.size


@dataclass(frozen=True)
class SelectionResult:
    """Selected indices (0-based), the threshold, and the p-values used.

    ``pvalues`` is ``None`` for the counting-knockoff scan, which thresholds
    the trusts directly and builds no p-values.
    """

    selected: np.ndarray
    threshold_alpha_hat: float
    pvalues: np.ndarray | None
    k_hat: int


def _tie_draws(tie_mode: TieMode, rng: RngStream | None) -> Callable[[int], np.ndarray]:
    """The function that gives m tie draws in a fresh buffer; checked here, drawn later."""
    if tie_mode is TieMode.DETERMINISTIC:
        return np.ones
    if rng is None:
        raise ValueError(f"tie mode {tie_mode.value} needs an RngStream")
    if tie_mode is TieMode.SHARED_U:
        u = float(rng.uniform_open_closed())
        return lambda m: np.full(m, u)
    return rng.uniform_open_closed


def generalized_conformal_pvalues(
    pool: ScoredPool,
    tie_mode: TieMode = TieMode.PER_UNIT,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Tie-aware rank of each test trust score among null calibration trusts."""
    return _pvalues_at(pool, _tie_draws(tie_mode, rng))


def _pvalues_at(pool: ScoredPool, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """(gt + (1 + (geq - gt)) u) / (n + 1) per test unit, with u = ``draw(m)``.

    gt and geq count the null calibration trusts above and at-or-above each
    test trust; both come from ``_ranks`` in unit order, so the formula runs
    element-wise in unit order too.  The null trusts are sorted in the copy
    their boolean index made.  The tie draws are taken only once the counts
    are in hand and the sorted trusts are freed, and the p-values are built
    in the draws' buffer as ``u *= 1 + ties``, ``u += gt``, ``u /= n + 1``.
    The counts are exact integers, so the bits are those of the formula
    written out.
    """
    null_sorted = pool.cal_trust[pool.cal_null]  # a copy, sorted in place
    null_sorted.sort()
    # the left and right ranks, turned in place into 1 + ties and gt
    ties, gt = _ranks(null_sorted, pool.test_trust, "left", "right")
    np.subtract(gt, ties, out=ties)  # geq - gt, the null trusts tied with the key
    ties += 1
    np.subtract(null_sorted.size, gt, out=gt)
    del null_sorted
    pvals = draw(pool.m)
    pvals *= ties
    del ties
    pvals += gt
    del gt
    pvals /= pool.n + 1
    return pvals


def bh_select(pvalues, alpha: float) -> SelectionResult:
    """Step-up BH: k_hat = max{k : p_(k) <= alpha k / m}, threshold alpha k_hat / m.

    Identical selected set to the self-consistent rule
    max{a in [0,1] : (alpha/m) #{p <= a} >= a}, with max over the empty set
    read as 0.  The range check reads the minimum and the maximum, which a
    NaN fails.  The p-values that can pass some k are copied out by index
    (``np.compress``, faster than a boolean index) and sorted in place.
    """
    p = np.asarray(pvalues, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p-values must form a nonempty vector")
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    m = p.size
    # alpha * m / m is the largest threshold as the rule computes it; a larger p passes no k
    order = np.compress(p <= alpha * m / m, p)
    order.sort()
    passing = np.flatnonzero(order <= alpha * np.arange(1, order.size + 1) / m)
    k_hat = int(passing[-1] + 1) if passing.size else 0
    alpha_hat = alpha * k_hat / m
    selected = np.flatnonzero(p <= alpha_hat) if k_hat else np.array([], dtype=int)
    return SelectionResult(selected, float(alpha_hat), p, k_hat)


def self_consistent_select(pvalues, alpha: float) -> SelectionResult:
    """Literal maximization of the self-consistent threshold over its candidate grid.

    Reference path for the equivalence suite; the achievable maxima all lie on
    {alpha k / m} so the scan is exact.
    """
    p = np.asarray(pvalues, dtype=float)
    m = p.size
    candidates = np.concatenate([[0.0], p, alpha * np.arange(1, m + 1) / m])
    candidates = candidates[(candidates >= 0.0) & (candidates <= 1.0)]
    counts = (p[None, :] <= candidates[:, None]).sum(axis=1)
    feasible = candidates[(alpha / m) * counts >= candidates]
    alpha_hat = float(feasible.max()) if feasible.size else 0.0
    selected = np.flatnonzero(p <= alpha_hat) if alpha_hat > 0.0 else np.array([], dtype=int)
    return SelectionResult(selected, alpha_hat, p, int(selected.size))


def _knockoff_fdps(pool: ScoredPool, taus: np.ndarray, u: float) -> np.ndarray:
    """The FDP estimate at every trust threshold tau in ``taus``, from one sort of the null and test trusts.

    With a shared tie draw u (u = 1 gives the deterministic form) the estimate at tau is
    [#{i : null_i, T_i > tau} + (1 + #{i : null_i, T_i = tau}) u] / (1 v #{j : T_j >= tau}) * m / (n + 1).

    The three counts are ranks in the sorted trusts (``np.searchsorted``, not ``core._ranks``: this
    scan is the reference BH is checked against), and the estimate is formed with the float
    operations of the formula in its order, so each value has the bits of the formula written out
    (a NaN tau counts no trust).
    """
    null_t = np.sort(pool.cal_trust[pool.cal_null])
    above = null_t.size - np.searchsorted(null_t, taus, "right")
    ties = null_t.size - np.searchsorted(null_t, taus, "left") - above
    den = np.maximum(1, pool.m - np.searchsorted(np.sort(pool.test_trust), taus, "left"))
    return (above + (1.0 + ties) * u) / den * pool.m / (pool.n + 1)


def counting_knockoff_select(
    pool: ScoredPool,
    alpha: float,
    tie_mode: TieMode = TieMode.DETERMINISTIC,
    rng: RngStream | None = None,
) -> SelectionResult:
    """Smallest test trust threshold whose FDP estimate is <= alpha.

    Equals BH over deterministic generalized p-values (tie mode DETERMINISTIC)
    or over shared-U p-values (SHARED_U).  PER_UNIT has no coherent shared
    threshold semantics and is rejected.  Every distinct test trust is a
    candidate threshold, all scanned at once in O((n + m) log(n + m)).
    """
    if tie_mode is TieMode.PER_UNIT:
        raise ValueError("counting-knockoff selection needs a shared or deterministic tie regime")
    draw = _tie_draws(tie_mode, rng)
    u = float(draw(1)[0])
    taus = np.unique(pool.test_trust)  # ascending, so the first feasible one is the smallest
    feasible = taus[_knockoff_fdps(pool, taus, u) <= alpha]
    if not feasible.size:
        return SelectionResult(np.array([], dtype=int), 0.0, None, 0)
    selected = np.flatnonzero(pool.test_trust >= feasible[0])
    k_hat = int(selected.size)
    return SelectionResult(selected, alpha * k_hat / pool.m, None, k_hat)


def scip_select_arrays(
    cal_trust,
    cal_null,
    test_trust,
    alpha: float,
    tie_mode: TieMode = TieMode.PER_UNIT,
    rng: RngStream | None = None,
    test_eligible=None,
) -> SelectionResult:
    """Generalized p-values + BH over raw arrays.

    Ineligible test units (empty informative sets) are never selected: they
    keep their slot in the BH denominator and are frozen out by assigning
    p = 1.
    """
    pool = ScoredPool(np.asarray(cal_trust), np.asarray(cal_null), np.asarray(test_trust))
    pvals = generalized_conformal_pvalues(pool, tie_mode, rng)
    if test_eligible is not None:
        pvals[~np.asarray(test_eligible, dtype=bool)] = 1.0
    return bh_select(pvals, alpha)
