"""Independent reference implementations used by the equivalence suite.

These follow the mirror-process / counting constructions literally (per-unit
FDP-style quotients and a minimal passing score threshold) so they share no
code path with the trust-score selection they are checked against.
"""

from __future__ import annotations

import numpy as np


def _quotient_select(wrong, s_test, n: int, alpha: float) -> np.ndarray:
    """The test units selected by per-unit quotients against the wrong calibration scores.

    Q_j = [1 + #{wrong scores >= S_j}] / [1 v #{j' : S_j' >= S_j}] * m/(n+1);
    the threshold is the smallest test score with Q_j <= alpha and every test
    unit at or above it is selected (empty when none qualifies).
    """
    m = s_test.size
    q = np.empty(m)
    for j in range(m):
        num = 1.0 + np.count_nonzero(wrong >= s_test[j])
        den = max(1, int(np.count_nonzero(s_test >= s_test[j])))
        q[j] = num / den * m / (n + 1)
    passing = s_test[q <= alpha]
    if passing.size == 0:
        return np.array([], dtype=int)
    tau = passing.min()
    return np.flatnonzero(s_test >= tau)


def fasi_select(cal_y, cal_scores, test_scores, y0: int, alpha: float) -> np.ndarray:
    """Target-class selection: the wrong calibration scores are those with Y_i != y0."""
    s_cal = np.asarray(cal_scores, dtype=float)
    s_test = np.asarray(test_scores, dtype=float)
    return _quotient_select(s_cal[np.asarray(cal_y) != y0], s_test, s_cal.size, alpha)


def zhao_su_select(cal_y, cal_probs, test_probs, alpha: float):
    """All-class singleton selection: argmax class, max-probability score.

    Returns (selected indices, assigned class per test unit).
    """
    cal_y = np.asarray(cal_y)
    cal_probs = np.asarray(cal_probs, dtype=float)
    test_probs = np.asarray(test_probs, dtype=float)
    y_hat_cal = np.argmax(cal_probs, axis=1) + 1
    s_cal = cal_probs.max(axis=1)
    y_hat_test = np.argmax(test_probs, axis=1) + 1
    s_test = test_probs.max(axis=1)
    return _quotient_select(s_cal[cal_y != y_hat_cal], s_test, s_cal.size, alpha), y_hat_test
