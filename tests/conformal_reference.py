"""Per-row reference for level-q split conformal sets, written as plain values.

Procedures build their sets in columns from ``CalibrationScores.score_radius``;
this reference applies the rank test to each candidate directly instead:
a label y belongs to the level-q set when
``(1 + #{i : V_i >= V(x, y)}) / (n + 1) > q``.  It uses no set type of
``scip.core``, so it stays independent of the code it checks.
"""

import math

import numpy as np

from scip.conformal import AbsoluteResidual, OneMinusProb


def conformal_set(x_row, cal_values, score, q):
    """The level-q conformal set of one unit, for a residual or class-probability score.

    Classification: the tuple of member classes.  Regression: the closed
    ends ``(lower, upper)`` (the whole line at r = inf is ``(-inf, inf)``),
    or None when the set is empty.
    """
    cal_values = np.asarray(cal_values, dtype=float)

    def passes(v):
        return (1 + np.count_nonzero(cal_values >= v)) / (cal_values.size + 1) > q

    X = np.atleast_2d(np.asarray(x_row, dtype=float))
    if isinstance(score, OneMinusProb):
        probs = np.asarray(score.p_hat(X), dtype=float)[0]
        return tuple(k + 1 for k, p in enumerate(probs) if passes(1.0 - p))
    if not isinstance(score, AbsoluteResidual):
        raise TypeError(f"no reference for {score!r}")
    mu = float(np.asarray(score.mu_hat(X), dtype=float)[0])
    if passes(math.inf):
        return (-math.inf, math.inf)
    # the rank count only steps at calibration scores, so the largest passing one is the radius
    radii = [float(v) for v in cal_values if passes(v)]
    if not radii:
        return None
    return (mu - max(radii), mu + max(radii))
