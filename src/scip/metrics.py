"""Error and power metrics with Monte-Carlo aggregation.

Per replication: FCP = (# reported sets missing their label) / max(1, # reported),
counting power = # reported, resolution-adjusted power = sum of reciprocal set
measures (an unbounded set contributes 0, a zero-length interval inf).
Across replications, FCR is the mean FCP; the marginal rate mFCR is the ratio
of totals, not the mean of ratios.  An infinite rpow makes the aggregate rpow
inf and, from two replications on, its stderr nan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ScipError, SetBatch, UndefinedMetricError


@dataclass(frozen=True)
class ReplicationMetrics:
    fcp: float
    cpow: float
    rpow: float
    n_selected: int
    n_false: int


@dataclass(frozen=True)
class AggregateMetrics:
    reps: int
    fcr: float
    fcr_stderr: float
    cpow: float
    cpow_stderr: float
    rpow: float
    rpow_stderr: float
    mfcr: float | None


def replication_metrics(selected, sets: SetBatch, truth) -> ReplicationMetrics:
    """Score one replication's reported sets against the truth; row i belongs to unit ``selected[i]``."""
    selected = np.asarray(selected, dtype=int)
    truth = np.asarray(truth)
    n_selected = int(selected.size)
    outside = (selected < 0) | (selected >= truth.shape[0])
    if outside.any():
        raise ScipError(f"no truth available for reported unit {selected[np.argmax(outside)]}")
    n_false = n_selected - int(np.count_nonzero(sets.covers(truth[selected])))
    with np.errstate(divide="ignore"):
        inverse = 1.0 / sets.measure()  # an unbounded set gives 0, a zero-length one inf
    # a left-to-right sum: np.sum adds pairwise, which changes the last bits the CSV writes
    rpow = float(np.cumsum(inverse)[-1]) if n_selected else 0.0
    fcp = n_false / max(1, n_selected)
    return ReplicationMetrics(fcp, float(n_selected), rpow, n_selected, n_false)


def mfcr_estimate(n_false, n_selected) -> float:
    """Ratio of totals sum(false) / sum(selected); undefined without selections."""
    total_sel = int(np.sum(n_selected))
    if total_sel == 0:
        raise UndefinedMetricError("mFCR is undefined when nothing was ever selected")
    return float(np.sum(n_false) / total_sel)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    # exact compensated sums keep the fold invariant to replication order
    n = values.size
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    if math.isinf(mean):  # inf - inf leaves no spread to measure
        return mean, math.nan
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def aggregate(rows: list[ReplicationMetrics]) -> AggregateMetrics:
    """Order-invariant aggregation with Monte-Carlo standard errors."""
    if not rows:
        raise ValueError("nothing to aggregate")
    fcp = np.array([r.fcp for r in rows])
    cpow = np.array([r.cpow for r in rows])
    rpow = np.array([r.rpow for r in rows])
    fcr, fcr_se = _mean_stderr(fcp)
    cp, cp_se = _mean_stderr(cpow)
    rp, rp_se = _mean_stderr(rpow)
    try:
        mfcr = mfcr_estimate([r.n_false for r in rows], [r.n_selected for r in rows])
    except UndefinedMetricError:
        mfcr = None
    return AggregateMetrics(len(rows), fcr, fcr_se, cp, cp_se, rp, rp_se, mfcr)
