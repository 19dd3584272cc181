import math

import numpy as np
import pytest

from scip.conformal import (
    AbsoluteResidual,
    CalibrationScores,
    ClassLabels,
    ClippedScore,
    LevelError,
    OneMinusProb,
    RealLine,
    conformal_prediction_set,
    i_adjusted_pvalue,
    i_adjusted_pvalues,
    truncated_i_adjusted_pvalue,
)
from scip.core import MaxSize, PositiveInterval


def _const_mu(value):
    return lambda X: np.full(np.atleast_2d(X).shape[0], float(value))


def _const_probs(probs):
    return lambda X: np.tile(np.asarray(probs, dtype=float), (np.atleast_2d(X).shape[0], 1))


X0 = np.array([0.0])


def _brute_force_set_members(cal_values, v_candidates, q):
    """Direct evaluation of the rank condition per candidate score value."""
    cal_values = np.asarray(cal_values, dtype=float)
    n = cal_values.size
    return [(1 + np.sum(cal_values >= v)) / (n + 1) > q for v in v_candidates]


def test_membership_counts_match_spec_fixture():
    cal = CalibrationScores([1.0, 2.0, 3.0, 4.0])
    score = AbsoluteResidual(_const_mu(1.5))
    low = conformal_prediction_set(X0, cal, score, 0.4, RealLine())
    high = conformal_prediction_set(X0, cal, score, 0.6, RealLine())
    y = 4.0  # residual 2.5: rank ratio 3/5
    assert low.contains(y) is True
    assert high.contains(y) is False


def test_level_zero_gives_full_label_space():
    cal = CalibrationScores([1.0, 2.0])
    full = conformal_prediction_set(X0, cal, AbsoluteResidual(_const_mu(0.0)), 0.0, RealLine())
    assert full.contains(1e12) and full.contains(-1e12)
    all_classes = conformal_prediction_set(
        X0, CalibrationScores([0.1, 0.2]), OneMinusProb(_const_probs([0.7, 0.2, 0.1])), 0.0, ClassLabels(3)
    )
    assert all_classes.members == (1, 2, 3)


def test_level_one_gives_empty_set():
    cal = CalibrationScores([1.0, 2.0])
    assert conformal_prediction_set(X0, cal, AbsoluteResidual(_const_mu(0.0)), 1.0, RealLine()).is_empty


def test_level_out_of_range_rejected():
    cal = CalibrationScores([1.0])
    with pytest.raises(LevelError):
        conformal_prediction_set(X0, cal, AbsoluteResidual(_const_mu(0.0)), 1.2, RealLine())


@pytest.mark.parametrize("n", [1, 2, 3, 7, 999, 1000, 12345, 999_999, 1_000_000])
def test_min_count_for_level_matches_grid_search(n):
    """The arithmetic level count equals a search of the grid k/(n+1), k = 1..n+1."""
    cal = CalibrationScores(np.zeros(n))
    grid = np.arange(1, n + 2) / (n + 1)
    edges = [0.0, -0.0, 1.0, -1e-300, -0.5, -math.inf, 5e-324, 1.5, 1e308, math.inf, math.nan]
    random = np.random.default_rng(n).random(1000)
    q = np.concatenate([grid, np.nextafter(grid, -math.inf), np.nextafter(grid, math.inf), edges, random])
    got = cal.min_count_for_level(q)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.searchsorted(grid, q, side="right"))
    for scalar in (0.0, 1.0, math.nan, -0.5, 1.5, float(grid[n // 2]), float(np.nextafter(grid[0], 0.0))):
        count = cal.min_count_for_level(scalar)
        assert type(count) is int
        assert count == np.searchsorted(grid, scalar, side="right")


def test_count_geq_matches_plain_search():
    """Searching the keys in ascending order gives the counts of a plain search in any key order."""
    gen = np.random.default_rng(58)
    values = np.repeat([-1.5, 0.0, 0.25, 1.0, 3.0], [1, 400, 3, 250, 40])  # heavy ties
    cal = CalibrationScores(gen.permutation(values))
    table = np.sort(values)
    keys = np.concatenate([
        table,  # every key equal to a table value
        [-math.inf, math.inf, math.nan, -2.0, 0.1, 5.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)],
        gen.choice(table, 2000) + gen.choice([-1e-12, 0.0, 1e-12], 2000),
    ])
    for batch in (keys, keys[::-1], gen.permutation(keys)):
        assert np.array_equal(cal.count_geq(batch), cal.n - np.searchsorted(table, batch, side="left"))
    grid_keys = keys[:12].reshape(3, 4)
    assert np.array_equal(cal.count_geq(grid_keys), cal.n - np.searchsorted(table, grid_keys, side="left"))
    empty = cal.count_geq(np.array([]))
    assert empty.shape == (0,) and empty.dtype == np.intp
    for scalar in (0.0, 0.25, -math.inf, math.inf, math.nan, 2):
        count = cal.count_geq(scalar)
        assert np.ndim(count) == 0
        assert count == cal.n - np.searchsorted(table, scalar, side="left")


def test_set_membership_matches_brute_force_counts():
    gen = np.random.default_rng(52)
    for _ in range(400):
        n = int(gen.integers(1, 30))
        # dyadic grid: ties between candidate scores and calibration scores are float-exact
        cal_vals = gen.integers(0, 33, n) / 8.0
        cal = CalibrationScores(cal_vals)
        mu = float(gen.integers(-16, 17)) / 8.0
        score = AbsoluteResidual(_const_mu(mu))
        q = float(gen.random())
        pset = conformal_prediction_set(X0, cal, score, q, RealLine())
        ys = mu + np.concatenate([gen.normal(0, 2, 8), gen.integers(0, 33, 4) / 8.0])
        expected = _brute_force_set_members(cal_vals, np.abs(ys - mu), q)
        got = [pset.contains(float(y)) for y in ys]
        assert got == expected


def test_monotone_nesting():
    gen = np.random.default_rng(53)
    for _ in range(1000):
        n = int(gen.integers(1, 40))
        cal = CalibrationScores(gen.random(n))
        mu = float(gen.normal())
        score = AbsoluteResidual(_const_mu(mu))
        q1, q2 = sorted(gen.random(2))
        inner = conformal_prediction_set(X0, cal, score, q2, RealLine())
        outer = conformal_prediction_set(X0, cal, score, q1, RealLine())
        if inner.is_empty:
            continue
        for iv in inner.intervals:
            assert any(
                o.lower <= iv.lower and iv.upper <= o.upper for o in outer.intervals
            )


def test_marginal_coverage():
    gen = np.random.default_rng(54)
    q = 0.2
    draws = 10_000
    mu_hat = lambda X: 0.3 * np.asarray(X, dtype=float).reshape(-1) ** 2
    hits = 0
    for _ in range(20):
        x = gen.normal(size=60)
        y = 0.3 * x**2 + gen.normal(size=60) * 0.7
        cal = CalibrationScores(np.abs(y[:-1] - mu_hat(x[:-1])))
        radius = cal.score_radius(q)
        hits += np.abs(y[-1] - mu_hat(x[-1:])[0]) <= radius
    # tiny pilot; the real check uses vectorized draws below
    x = gen.normal(size=(draws, 31))
    y = 0.3 * x**2 + gen.normal(size=(draws, 31)) * 0.7
    resid = np.abs(y - 0.3 * x**2)
    cal_sorted = np.sort(resid[:, :-1], axis=1)
    n = 30
    min_count = int(np.searchsorted(np.arange(1, n + 2) / (n + 1), q, side="right"))
    radius = cal_sorted[:, n - min_count]
    covered = resid[:, -1] <= radius
    rate = covered.mean()
    stderr = covered.std(ddof=1) / math.sqrt(draws)
    assert rate >= 1 - q - 3 * stderr


def test_i_adjusted_pvalue_spec_fixtures():
    score = AbsoluteResidual(_const_mu(1.5))
    cal = CalibrationScores([0.5, 1.0, 2.0, 3.0])
    assert i_adjusted_pvalue(X0, cal, score, PositiveInterval()) == pytest.approx(0.6)
    neg = AbsoluteResidual(_const_mu(-0.2))
    assert i_adjusted_pvalue(X0, cal, neg, PositiveInterval()) == 1.0
    cscore = OneMinusProb(_const_probs([0.5, 0.3, 0.2]))
    ccal = CalibrationScores([0.1, 0.4, 0.6, 0.9])
    assert i_adjusted_pvalue(X0, ccal, cscore, MaxSize(2)) == pytest.approx(0.4)
    # every set is admissible when the size bound covers the label space
    assert i_adjusted_pvalue(X0, ccal, cscore, MaxSize(3)) == pytest.approx(1 / 5)


def test_i_adjusted_pvalue_matches_grid_scan():
    """The counting form equals the smallest grid level whose set is admissible."""
    gen = np.random.default_rng(55)
    constraint = PositiveInterval()
    for _ in range(1000):
        n = int(gen.integers(1, 25))
        cal = CalibrationScores(np.round(gen.random(n) * 3, 1))
        mu = float(gen.normal(0.8, 1.2))
        score = AbsoluteResidual(_const_mu(mu))
        got = i_adjusted_pvalue(X0, cal, score, constraint)
        grid = np.arange(1, n + 2) / (n + 1)
        admissible = [
            q
            for q in grid
            if constraint.contains(conformal_prediction_set(X0, cal, score, float(q), RealLine()))
        ]
        expected = min(admissible) if admissible and min(admissible) < 1.0 else 1.0
        assert got == pytest.approx(expected)


def test_i_adjusted_pvalue_feedback_consistency():
    """Feeding the level back yields an admissible set; one grid step less does not."""
    gen = np.random.default_rng(56)
    constraint = PositiveInterval()
    for _ in range(300):
        n = int(gen.integers(2, 30))
        cal = CalibrationScores(gen.random(n) * 2)
        mu = float(gen.normal(0.8, 1.0))
        score = AbsoluteResidual(_const_mu(mu))
        q = i_adjusted_pvalue(X0, cal, score, constraint)
        if q == 1.0:
            continue
        assert constraint.contains(conformal_prediction_set(X0, cal, score, q, RealLine()))
        smaller = q - 1.0 / (n + 1)
        if smaller > 0:
            below = conformal_prediction_set(X0, cal, score, smaller, RealLine())
            assert not constraint.contains(below)


def test_vectorized_matches_scalar():
    gen = np.random.default_rng(57)
    cal = CalibrationScores(gen.random(20))
    mu_fn = lambda X: np.asarray(X, dtype=float).reshape(-1) ** 2 - 0.3
    score = AbsoluteResidual(mu_fn)
    X = gen.normal(size=(50, 1))
    vec = i_adjusted_pvalues(X, cal, score, PositiveInterval())
    for i in range(50):
        assert vec[i] == i_adjusted_pvalue(X[i], cal, score, PositiveInterval())


def test_truncation():
    assert truncated_i_adjusted_pvalue(0.6, 0.1) == 0.6
    assert truncated_i_adjusted_pvalue(0.05, 0.1) == 0.1
    assert truncated_i_adjusted_pvalue(1.0, 0.1) == 1.0
    with pytest.raises(LevelError):
        truncated_i_adjusted_pvalue(1.4, 0.1)


def test_clipped_score_sets():
    mu = _const_mu(1.0)
    clipped = ClippedScore(mu, c0=0.0, big_m=10.0)
    cal = CalibrationScores([0.5, 0.7, -19.0, -19.5])
    # mid levels keep only the above-threshold half line
    pset = conformal_prediction_set(X0, cal, clipped, 0.5, RealLine())
    assert pset.contains(0.5) and not pset.contains(-0.5) and not pset.contains(0.0)
