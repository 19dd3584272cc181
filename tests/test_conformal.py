import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scip.conformal
import scip.core
from scip.conformal import (
    AbsoluteResidual,
    CalibrationScores,
    LevelError,
    OneMinusProb,
    i_adjusted_pvalues,
)
from scip.core import (
    ClassBatch,
    HalfLine,
    IntervalBatch,
    LowerBoundedInterval,
    MaxSize,
    PositiveInterval,
    SingletonClass,
    TargetHalfLines,
)


def _const_mu(value):
    return lambda X: np.full(np.atleast_2d(X).shape[0], float(value))


def _const_probs(probs):
    return lambda X: np.tile(np.asarray(probs, dtype=float), (np.atleast_2d(X).shape[0], 1))


X0 = np.zeros((1, 1))


def _level_sets(cal, mu, q):
    """Level-q residual sets [mu - r(q), mu + r(q)], one batch row per (mu, q) pair."""
    return IntervalBatch.from_radius(mu, cal.score_radius(q))


def _admitted(constraint, batch):
    """Per row: the set satisfies the constraint (the empty set always does)."""
    return constraint.admits(batch) | ~batch.nonempty


def _brute_force_set_members(cal_values, v_candidates, q):
    """Direct evaluation of the rank condition per candidate score value."""
    cal_values = np.asarray(cal_values, dtype=float)
    n = cal_values.size
    return [(1 + np.sum(cal_values >= v)) / (n + 1) > q for v in v_candidates]


def test_membership_counts_match_spec_fixture():
    cal = CalibrationScores([1.0, 2.0, 3.0, 4.0])
    y = np.array([4.0, 4.0])  # residual 2.5: rank ratio 3/5
    assert _level_sets(cal, 1.5, np.array([0.4, 0.6])).covers(y).tolist() == [True, False]


def test_level_zero_gives_full_label_space():
    cal = CalibrationScores([1.0, 2.0])
    full = _level_sets(cal, np.zeros(2), 0.0)
    assert full.covers(np.array([1e12, -1e12])).all()
    all_classes = ClassBatch.from_radius([[0.7, 0.2, 0.1]], CalibrationScores([0.1, 0.2]).score_radius(0.0))
    assert all_classes.member.tolist() == [[True, True, True]]


def test_level_one_gives_empty_set():
    cal = CalibrationScores([1.0, 2.0])
    assert not _level_sets(cal, 0.0, 1.0).nonempty
    assert not ClassBatch.from_radius([[1.0, 0.0]], cal.score_radius(1.0)).nonempty.any()


def test_level_out_of_range_rejected():
    cal = CalibrationScores([1.0])
    for q in (1.2, -0.1, math.nan, np.array([0.5, 1.2])):
        with pytest.raises(LevelError):
            cal.score_radius(q)


def test_level_range_check_edges():
    """No level gives no radius; -0.0 is level 0; a NaN among levels in range still raises."""
    cal = CalibrationScores([1.0, 2.0])
    empty = cal.score_radius(np.array([]))
    assert empty.dtype == np.float64 and empty.shape == (0,)
    assert cal.score_radius(-0.0) == cal.score_radius(0.0) == math.inf
    assert np.array_equal(cal.score_radius(np.array([-0.0, 1.0])), [math.inf, -math.inf])
    for q in (np.array([0.5, math.nan]), np.array([[math.nan, 0.0]])):
        with pytest.raises(LevelError):
            cal.score_radius(q)


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


def _three_mask_radius(sorted_scores, counts):
    """The radius rule with its three cases written out: +inf, -inf, or the count-th largest score."""
    n = sorted_scores.size
    radii = np.empty(counts.shape, dtype=float)
    all_in, none_in = counts == 0, counts == n + 1
    mid = ~(all_in | none_in)
    radii[all_in] = math.inf
    radii[none_in] = -math.inf
    radii[mid] = sorted_scores[n - counts[mid]]
    return radii


@pytest.mark.parametrize("n", [1, 2, 3, 10, 1000])
def test_score_radius_matches_three_mask_form(n):
    """One gather between the sentinels gives the radius of the written-out three cases."""
    gen = np.random.default_rng(n)
    values = gen.choice([-2.0, 0.0, 0.5, 3.0], n) + (gen.normal(size=n) if n > 3 else 0.0)
    cal = CalibrationScores(values)
    grid = np.arange(1, n + 2) / (n + 1)
    q = np.concatenate([[0.0, 1.0], grid, np.nextafter(grid, 0.0), np.clip(np.nextafter(grid, 2.0), 0.0, 1.0),
                        gen.random(100)])
    counts = cal.min_count_for_level(q)
    assert counts.min() == 0 and counts.max() == n + 1 and np.any((counts > 0) & (counts < n + 1))
    sorted_scores = np.sort(values)
    assert np.array_equal(cal.score_radius(q), _three_mask_radius(sorted_scores, counts))
    assert np.array_equal(cal.score_radius(q.reshape(-1, 1)), _three_mask_radius(sorted_scores, counts)[:, None])
    for scalar in (0.0, 1.0, float(grid[0]), float(grid[n // 2]), 0.5):
        radius = cal.score_radius(scalar)
        assert type(radius) is float
        assert radius == _three_mask_radius(sorted_scores, np.array([cal.min_count_for_level(scalar)]))[0]
    assert np.array_equal(cal._sorted, sorted_scores) and not cal._sorted.flags.writeable
    with pytest.raises(ValueError):
        cal._sorted[0] = 0.0


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
    for scalar in (0.0, -0.0, 5e-324, 0.25, -math.inf, math.inf, math.nan, 2, np.float64(1.0)):
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
        q = float(gen.random())
        ys = mu + np.concatenate([gen.normal(0, 2, 8), gen.integers(0, 33, 4) / 8.0])
        expected = _brute_force_set_members(cal_vals, np.abs(ys - mu), q)
        got = _level_sets(cal, np.full(ys.size, mu), q).covers(ys)
        assert got.tolist() == expected


def test_monotone_nesting():
    gen = np.random.default_rng(53)
    for _ in range(1000):
        n = int(gen.integers(1, 40))
        cal = CalibrationScores(gen.random(n))
        mu = float(gen.normal())
        q1, q2 = sorted(gen.random(2))
        inner = _level_sets(cal, mu, q2)
        outer = _level_sets(cal, mu, q1)
        if not inner.nonempty:
            continue
        assert outer.lower <= inner.lower and inner.upper <= outer.upper


def test_marginal_coverage():
    gen = np.random.default_rng(54)
    q = 0.2
    draws = 10_000
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
    assert i_adjusted_pvalues(X0, cal, score, PositiveInterval())[0] == pytest.approx(0.6)
    neg = AbsoluteResidual(_const_mu(-0.2))
    assert i_adjusted_pvalues(X0, cal, neg, PositiveInterval())[0] == 1.0
    cscore = OneMinusProb(_const_probs([0.5, 0.3, 0.2]))
    ccal = CalibrationScores([0.1, 0.4, 0.6, 0.9])
    assert i_adjusted_pvalues(X0, ccal, cscore, MaxSize(2))[0] == pytest.approx(0.4)
    # every set is admissible when the size bound covers the label space
    assert i_adjusted_pvalues(X0, ccal, cscore, MaxSize(3))[0] == pytest.approx(1 / 5)


def test_i_adjusted_pvalue_matches_grid_scan():
    """The counting form equals the smallest grid level whose set is admissible."""
    gen = np.random.default_rng(55)
    constraint = PositiveInterval()
    for _ in range(1000):
        n = int(gen.integers(1, 25))
        cal = CalibrationScores(np.round(gen.random(n) * 3, 1))
        mu = float(gen.normal(0.8, 1.2))
        score = AbsoluteResidual(_const_mu(mu))
        got = i_adjusted_pvalues(X0, cal, score, constraint)[0]
        grid = np.arange(1, n + 2) / (n + 1)
        admissible = grid[_admitted(constraint, _level_sets(cal, np.full(grid.size, mu), grid))]
        expected = admissible.min() if admissible.min() < 1.0 else 1.0  # level 1 gives the empty set
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
        q = i_adjusted_pvalues(X0, cal, score, constraint)[0]
        if q == 1.0:
            continue
        assert _admitted(constraint, _level_sets(cal, mu, q))
        smaller = q - 1.0 / (n + 1)
        if smaller > 0:
            assert not _admitted(constraint, _level_sets(cal, mu, smaller))


def test_vectorized_matches_scalar():
    gen = np.random.default_rng(57)
    cal = CalibrationScores(gen.random(20))
    mu_fn = lambda X: np.asarray(X, dtype=float).reshape(-1) ** 2 - 0.3
    score = AbsoluteResidual(mu_fn)
    X = gen.normal(size=(50, 1))
    vec = i_adjusted_pvalues(X, cal, score, PositiveInterval())
    for i in range(50):
        assert vec[i] == i_adjusted_pvalues(X[i : i + 1], cal, score, PositiveInterval())[0]


def test_nan_probabilities_get_level_one():
    """A row of NaN probabilities has no admissible set at any level; a NaN calibration score is rejected."""
    table = np.array([[0.5, 0.3, 0.2], [np.nan, np.nan, np.nan]])
    score = OneMinusProb(lambda X: table[np.asarray(X, dtype=int)[:, 0]])
    cal = CalibrationScores([0.1, 0.4, 0.6, 0.9])
    X = np.array([[0], [1]])
    assert i_adjusted_pvalues(X, cal, score, MaxSize(2)).tolist() == [pytest.approx(0.4), 1.0]
    assert i_adjusted_pvalues(X, cal, score, SingletonClass(1)).tolist() == [pytest.approx(0.4), 1.0]
    with pytest.raises(ValueError, match="calibration scores must be finite"):
        CalibrationScores(score.scores(score.predict(X), np.array([1, 1])))


_QUARTER = st.integers(-8, 16).map(lambda k: k / 4.0)
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


def _masked_breakpoint(constraint, row) -> float:
    """One unit's breakpoint written out row by row, NaN where no admissible nonempty set exists."""
    if isinstance(constraint, (MaxSize, SingletonClass)):
        if not all(math.isfinite(p) for p in row):
            return math.nan
        desc = sorted(row, reverse=True)
        if isinstance(constraint, MaxSize):
            return math.inf if len(row) <= constraint.k0 else 1.0 - desc[constraint.k0]
        if len(row) < 2:
            return math.inf if constraint.y0 == 1 else math.nan
        return 1.0 - desc[1] if row.index(max(row)) == constraint.y0 - 1 else math.nan
    mu = row
    if isinstance(constraint, PositiveInterval):
        v = mu
    elif isinstance(constraint, LowerBoundedInterval):
        v = mu - constraint.c
    elif isinstance(constraint, HalfLine):
        v = mu - constraint.c0
        if mu - math.nextafter(v, -math.inf) <= constraint.c0:  # the closed set just inside v reaches c0
            v = mu - math.nextafter(constraint.c0, math.inf)
    else:
        v = max(constraint.c_l - mu, mu - constraint.c_u)
        r = math.nextafter(v, -math.inf)
        if r >= 0.0 and not (mu + r < constraint.c_l or mu - r > constraint.c_u):
            v = max(math.nextafter(constraint.c_l, -math.inf) - mu, mu - math.nextafter(constraint.c_u, math.inf))
    return v if math.isfinite(mu) and v > 0.0 else math.nan


def _masked_pvalue(cal_values, nu: float) -> float:
    """The masked formula: 1 for a NaN breakpoint, else (1 + #{i : V_i >= nu}) / (n + 1)."""
    if math.isnan(nu):
        return 1.0
    return (1.0 + sum(v >= nu for v in cal_values)) / (len(cal_values) + 1)


@pytest.mark.parametrize("kind", ["positive", "lower", "half", "target", "max_size", "singleton"])
@settings(derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_i_adjusted_pvalue_is_the_masked_formula(kind, data):
    """-inf marks "no admissible set" exactly where the masked formula read NaN, and the one
    formula (1 + count_geq(nu)) / (n + 1) gives the masked formula's bits, 1 included."""
    cal_values = data.draw(st.lists(_QUARTER, min_size=1, max_size=8), "cal")
    c_l, c_u = sorted(data.draw(st.tuples(_QUARTER, _QUARTER), "constants"))
    if kind in ("max_size", "singleton"):
        k = data.draw(st.integers(1, 4), "K")
        constraint = (MaxSize if kind == "max_size" else SingletonClass)(data.draw(st.integers(1, k + 1)))
        eighths = st.integers(0, 8).map(lambda j: j / 8.0)
        entry = st.one_of(st.sampled_from([1.0 - v for v in cal_values]), eighths, _NON_FINITE)
        rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), max_size=8), "probs")
        pred = np.array(rows, dtype=float).reshape(len(rows), k)
        score = OneMinusProb(lambda X: pred)
    else:
        constraint = {
            "positive": PositiveInterval(), "lower": LowerBoundedInterval(c_l), "half": HalfLine(c_l),
            "target": TargetHalfLines(c_l, c_u),
        }[kind]
        shifted = [v + c for v in cal_values for c in (0.0, c_l, c_u)] + [c_l - v for v in cal_values]
        entry = st.one_of(st.sampled_from(shifted), st.sampled_from([c_l, c_u]), _QUARTER, _NON_FINITE)
        rows = data.draw(st.lists(entry, max_size=8), "mu")
        pred = np.array(rows, dtype=float)
        score = AbsoluteResidual(lambda X: pred)
    masked = np.array([_masked_breakpoint(constraint, row) for row in rows], dtype=float)
    nu = constraint.breakpoints(pred)
    assert np.array_equal(np.isnan(masked), nu == -math.inf) and not np.isnan(nu).any()
    assert np.array_equal(nu[~np.isnan(masked)], masked[~np.isnan(masked)])
    expected = np.array([_masked_pvalue(cal_values, v) for v in masked], dtype=float)
    got = i_adjusted_pvalues(np.zeros((len(rows), 1)), CalibrationScores(cal_values), score, constraint)
    assert np.array_equal(got, expected)


# ---------------------------------------------------------------------------
# Level passes in index chunks
# ---------------------------------------------------------------------------

# (usable CPUs, block size) with _CHUNK_KEYS = 16: one chunk inline, then 2 and 9 threads whose
# chunks hold several blocks and a partial last one
_SPLITS = [(2, 7), (9, 5)]


def _in_split(fn, cpus: int, block_keys: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scip.core, "_CHUNK_KEYS", 16)
        patch.setattr(scip.conformal, "_BLOCK_KEYS", block_keys)
        patch.setattr(scip.core, "_usable_cpus", lambda: cpus)
        return fn()


def _edge_levels(n: int, gen) -> np.ndarray:
    """0, 1, the lattice points (1 + c)/(n + 1), BH thresholds tau0 = 0.1 k / m, each one ulp off
    either way, and uniform levels, shuffled."""
    lattice = np.arange(1, n + 2) / (n + 1)
    tau0 = 0.1 * np.arange(1, 40) / 39
    exact = np.concatenate([[0.0, 1.0], lattice, tau0])
    near = np.concatenate([exact, np.nextafter(exact, -1.0), np.nextafter(exact, 2.0), gen.random(200)])
    return gen.permutation(near[(near >= 0.0) & (near <= 1.0)])


@pytest.mark.parametrize("n", [1, 3, 40])
@pytest.mark.parametrize("cpus, block_keys", _SPLITS)
def test_level_passes_keep_their_bits_in_every_split(n, cpus, block_keys):
    """score_radius and admissible_level give the one-chunk result, bit for bit, with 2 and 9 chunks."""
    gen = np.random.default_rng(n)
    values = gen.choice([0.0, 0.5, 2.0], n) + (gen.normal(size=n) if n > 3 else 0.0)
    cal = CalibrationScores(values)
    q = _edge_levels(n, gen)
    nu = gen.permutation(np.concatenate([values, np.nextafter(values, -math.inf), np.nextafter(values, math.inf),
                                         [-math.inf, math.inf, 0.0, -0.0], gen.normal(size=200)]))
    assert q.size >= 2 * 16 and nu.size >= 2 * 16  # several chunks
    radii = cal.score_radius(q)
    assert np.array_equal(radii, _three_mask_radius(np.sort(values), cal.min_count_for_level(q)))
    pvals = cal.admissible_level(nu)
    assert np.array_equal(pvals, (cal.n - np.searchsorted(np.sort(values), nu, "left") + 1.0) / (n + 1))
    assert np.array_equal(_in_split(lambda: cal.score_radius(q), cpus, block_keys), radii)
    assert np.array_equal(_in_split(lambda: cal.score_radius(q.reshape(1, -1)), cpus, block_keys),
                          radii.reshape(1, -1))
    assert np.array_equal(_in_split(lambda: cal.admissible_level(nu), cpus, block_keys), pvals)


@pytest.mark.parametrize("bad", [math.nan, -5e-324, np.nextafter(1.0, 2.0)])
@pytest.mark.parametrize("cpus, block_keys", [(1, 7)] + _SPLITS)
def test_bad_level_in_the_last_chunk_raises(bad, cpus, block_keys):
    """A NaN or out-of-range level in the last block of the last chunk raises LevelError."""
    cal = CalibrationScores([1.0, 2.0, 3.0])
    q = np.linspace(0.0, 1.0, 301)
    q[-1] = bad
    with pytest.raises(LevelError):
        _in_split(lambda: cal.score_radius(q), cpus, block_keys)
