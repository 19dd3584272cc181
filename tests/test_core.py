import math
from fractions import Fraction

import numpy as np
import pytest

from scip.conformal import AbsoluteResidual, OneMinusProb
from scip.core import (
    ClassBatch,
    ClassSet,
    Dataset,
    HalfLine,
    Interval,
    IntervalBatch,
    IntervalUnion,
    LowerBoundedInterval,
    MaxSize,
    PositiveInterval,
    RngStream,
    SingletonClass,
    TargetHalfLines,
    TaskMismatchError,
    UnsupportedScoreError,
    interval,
)


def test_open_endpoint_excludes_boundary():
    above = interval(2.0, math.inf, lower_open=True, upper_open=True)
    assert above.contains(2.0) is False
    assert above.contains(2.0001) is True


def test_class_membership():
    assert ClassSet((1, 3)).contains(3) is True
    assert ClassSet((1, 3)).contains(2) is False


def test_closed_endpoint_includes_boundary():
    assert interval(0.5, 2.5).contains(0.5) is True


def test_measures():
    assert ClassSet((1, 2)).measure() == 2
    assert interval(0.5, 2.5).measure() == 2.0
    assert ClassSet(()).measure() == 0
    assert IntervalUnion(()).measure() == 0
    assert math.isinf(interval(0.0, math.inf, lower_open=True, upper_open=True).measure())


def test_task_mismatch_errors():
    with pytest.raises(TaskMismatchError):
        interval(0.0, 1.0).contains(1)  # integer label against an interval union
    with pytest.raises(TaskMismatchError):
        ClassSet((1, 2)).contains(1.5)


def test_interval_invariants():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(1.0, 1.0, lower_open=True)
    with pytest.raises(ValueError):
        Interval(-math.inf, 1.0, lower_open=False)
    with pytest.raises(ValueError):
        IntervalUnion((Interval(0, 2), Interval(1, 3)))
    with pytest.raises(ValueError):
        IntervalUnion((Interval(0, 1), Interval(1, 2)))  # mergeable at the shared endpoint
    # both-open junction leaves a gap: legal
    IntervalUnion((Interval(0, 1, upper_open=True), Interval(1, 2, lower_open=True)))
    with pytest.raises(ValueError):
        ClassSet((2, 1))
    with pytest.raises(ValueError):
        ClassSet((0,))


def _rational_union(gen, n_parts):
    """Random interval union with exact rational endpoints on a 1/8 grid."""
    points = sorted(gen.choice(np.arange(-40, 41), size=2 * n_parts, replace=False))
    ivs, fracs = [], []
    for k in range(n_parts):
        lo, up = points[2 * k] / 8.0, points[2 * k + 1] / 8.0
        lo_open, up_open = bool(gen.integers(2)), bool(gen.integers(2))
        ivs.append(Interval(lo, up, lo_open, up_open))
        fracs.append((Fraction(int(points[2 * k]), 8), Fraction(int(points[2 * k + 1]), 8), lo_open, up_open))
    return IntervalUnion(tuple(ivs)), fracs


def test_contains_agrees_with_rational_oracle():
    gen = np.random.default_rng(4257)
    for _ in range(10_000):
        union, fracs = _rational_union(gen, int(gen.integers(1, 4)))
        y_num = int(gen.integers(-42, 43))
        y = y_num / 8.0
        y_frac = Fraction(y_num, 8)
        oracle = any(
            (y_frac > lo if lo_open else y_frac >= lo) and (y_frac < up if up_open else y_frac <= up)
            for lo, up, lo_open, up_open in fracs
        )
        assert union.contains(y) == oracle


def _random_subset_interval(gen, union: IntervalUnion):
    """A random interval union nested inside the given one."""
    kept = []
    for iv in union.intervals:
        if gen.random() < 0.35 or math.isinf(iv.length()):
            continue
        lo = iv.lower + gen.random() * iv.length() * 0.4
        up = iv.upper - gen.random() * iv.length() * 0.4
        if lo < up:
            kept.append(Interval(lo, up, bool(gen.integers(2)), bool(gen.integers(2))))
    return IntervalUnion(tuple(kept))


def _per_interval_contains(constraint, pset) -> bool:
    """Admissibility by the per-interval (per-member) rule of each constraint's definition."""
    if isinstance(constraint, PositiveInterval):
        return all(iv.lower > 0.0 for iv in pset.intervals)
    if isinstance(constraint, LowerBoundedInterval):
        return all(iv.lower >= constraint.c for iv in pset.intervals)
    if isinstance(constraint, HalfLine):
        return all(
            iv.lower > constraint.c0 or (iv.lower == constraint.c0 and iv.lower_open) for iv in pset.intervals
        )
    if isinstance(constraint, TargetHalfLines):
        c_l, c_u = constraint.c_l, constraint.c_u
        below = all(iv.upper < c_l or (iv.upper == c_l and iv.upper_open) for iv in pset.intervals)
        above = all(iv.lower > c_u or (iv.lower == c_u and iv.lower_open) for iv in pset.intervals)
        return below or above
    if isinstance(constraint, MaxSize):
        return len(pset.members) <= constraint.k0
    return all(k == constraint.y0 for k in pset.members)


def test_contains_matches_per_interval_rules():
    """An interval union judged through its hull agrees with the rule applied to every interval."""
    gen = np.random.default_rng(4258)
    for _ in range(6000):
        union, _ = _rational_union(gen, int(gen.integers(0, 4)))
        c_l, c_u = sorted(int(v) / 8.0 for v in gen.integers(-44, 45, size=2))
        for constraint in (
            PositiveInterval(),
            LowerBoundedInterval(c_l),
            HalfLine(c_u),
            TargetHalfLines(c_l, c_u),
        ):
            assert constraint.contains(union) == _per_interval_contains(constraint, union)
        with pytest.raises(TaskMismatchError):
            MaxSize(2).contains(union)
    for _ in range(3000):
        members = sorted(gen.choice(np.arange(1, 7), size=int(gen.integers(0, 5)), replace=False))
        cset = ClassSet(tuple(int(k) for k in members))
        for constraint in (MaxSize(int(gen.integers(1, 4))), SingletonClass(int(gen.integers(1, 8)))):
            assert constraint.contains(cset) == _per_interval_contains(constraint, cset)
        with pytest.raises(TaskMismatchError):
            PositiveInterval().contains(cset)


def _random_interval_rows(gen, m):
    """Rows with open and closed ends, zero-length, infinite and empty rows, on a 1/4 grid."""
    lower = gen.integers(-8, 9, m) / 4.0
    upper = lower + gen.integers(0, 5, m) / 4.0
    lower_open = gen.random(m) < 0.5
    upper_open = gen.random(m) < 0.5
    point = lower == upper
    lower_open[point] = upper_open[point] = False  # a single point must be closed
    inf_lo, inf_up = gen.random(m) < 0.15, gen.random(m) < 0.15
    lower[inf_lo], lower_open[inf_lo] = -np.inf, True
    upper[inf_up], upper_open[inf_up] = np.inf, True
    empty = gen.random(m) < 0.2
    lower[empty], upper[empty] = upper[empty] + 0.25, lower[empty] - gen.integers(0, 3, empty.sum()) / 4.0
    lower[empty & (gen.random(m) < 0.3)] = np.inf
    return IntervalBatch(lower, upper, lower_open, upper_open)


def test_interval_batch_matches_its_sets():
    gen = np.random.default_rng(4259)
    for _ in range(200):
        m = int(gen.integers(0, 30))
        batch = _random_interval_rows(gen, m)
        sets = batch.sets()
        assert len(sets) == m
        y = gen.integers(-12, 13, m) / 4.0
        y[gen.random(m) < 0.05] = np.inf
        assert batch.covers(y).tolist() == [pset.contains(float(v)) for pset, v in zip(sets, y)]
        assert batch.measure().tolist() == [pset.measure() for pset in sets]
        assert batch.nonempty.tolist() == [not pset.is_empty for pset in sets]
        rows = gen.permutation(m)[: m // 2]
        assert batch.take(rows).sets() == tuple(sets[j] for j in rows)
    with pytest.raises(TaskMismatchError):
        _random_interval_rows(gen, 3).covers(np.array([1, 2, 3]))


def test_interval_batch_from_radius():
    """[mu - r, mu + r] for finite r >= 0, the open line at r = inf, empty for r < 0."""
    mu = np.array([0.5, -1.0, 2.0, 3.0, 0.0, 1.5])
    radius = np.array([0.25, 0.0, math.inf, -0.5, -math.inf, 1e-300])
    expected = (
        interval(0.25, 0.75),
        interval(-1.0, -1.0),
        interval(-math.inf, math.inf, lower_open=True, upper_open=True),
        IntervalUnion(()),
        IntervalUnion(()),
        interval(1.5 - 1e-300, 1.5 + 1e-300),
    )
    batch = IntervalBatch.from_radius(mu, radius)
    assert batch.sets() == expected
    assert batch.nonempty.tolist() == [True, True, True, False, False, True]
    shared = IntervalBatch.from_radius(mu[:2], 0.25)
    assert shared.sets() == (interval(0.25, 0.75), interval(-1.25, -0.75))


def test_class_batch_matches_its_sets():
    gen = np.random.default_rng(4260)
    for _ in range(200):
        m, k = int(gen.integers(0, 30)), int(gen.integers(1, 6))
        batch = ClassBatch(gen.random((m, k)) < 0.4)
        sets = batch.sets()
        y = gen.integers(1, k + 1, m)
        assert batch.covers(y).tolist() == [pset.contains(int(v)) for pset, v in zip(sets, y)]
        assert batch.measure().tolist() == [pset.measure() for pset in sets]
        assert batch.nonempty.tolist() == [not pset.is_empty for pset in sets]
        probs = gen.dirichlet(np.ones(k), m)
        radius = gen.choice([-math.inf, 0.2, 0.5, 0.9, math.inf], m)
        built = ClassBatch.from_radius(probs, radius).sets()
        assert built == tuple(
            ClassSet(tuple(int(c) + 1 for c in np.flatnonzero(1.0 - p <= r))) for p, r in zip(probs, radius)
        )
    with pytest.raises(TaskMismatchError):
        ClassBatch(np.ones((2, 3), dtype=bool)).covers(np.array([1.0, 2.0]))


@pytest.mark.parametrize(
    "constraint",
    [PositiveInterval(), LowerBoundedInterval(0.25), HalfLine(-0.5), TargetHalfLines(-1.0, 1.0)],
)
def test_interval_constraints_monotone(constraint):
    gen = np.random.default_rng(911)
    for _ in range(2500):
        union, _ = _rational_union(gen, int(gen.integers(1, 4)))
        sub = _random_subset_interval(gen, union)
        if constraint.contains(union):
            assert constraint.contains(sub)
    assert constraint.contains(IntervalUnion(()))


@pytest.mark.parametrize("constraint", [MaxSize(2), SingletonClass(2)])
def test_class_constraints_monotone(constraint):
    gen = np.random.default_rng(912)
    for _ in range(2500):
        members = tuple(sorted(gen.choice(np.arange(1, 7), size=int(gen.integers(0, 5)), replace=False)))
        full = ClassSet(tuple(int(k) for k in members))
        keep = [k for k in full.members if gen.random() < 0.6]
        sub = ClassSet(tuple(keep))
        if constraint.contains(full):
            assert constraint.contains(sub)
    assert constraint.contains(ClassSet(()))


def test_breakpoint_values():
    mu = lambda X: np.asarray(X, dtype=float).reshape(-1)
    score = AbsoluteResidual(mu)
    X = np.array([[1.5], [-0.2], [2.0], [2.5], [0.0]])
    np.testing.assert_allclose(PositiveInterval().breakpoints(score, X), [1.5, np.nan, 2.0, 2.5, np.nan])
    np.testing.assert_allclose(LowerBoundedInterval(2.0).breakpoints(score, X), [np.nan, np.nan, np.nan, 0.5, np.nan])
    np.testing.assert_allclose(TargetHalfLines(-1.0, 1.0).breakpoints(score, X), [0.5, np.nan, 1.0, 1.5, np.nan])

    p_hat = lambda X: np.tile([0.5, 0.3, 0.2], (np.atleast_2d(X).shape[0], 1))
    cscore = OneMinusProb(p_hat)
    X0 = np.zeros((1, 1))
    np.testing.assert_allclose(MaxSize(2).breakpoints(cscore, X0), [0.8])
    assert MaxSize(3).breakpoints(cscore, X0).tolist() == [math.inf]
    np.testing.assert_allclose(SingletonClass(1).breakpoints(cscore, X0), [0.7])
    assert np.isnan(SingletonClass(2).breakpoints(cscore, X0)).all()


def test_breakpoint_needs_the_matching_score():
    X = np.zeros((2, 1))
    residual = AbsoluteResidual(lambda X: np.ones(np.atleast_2d(X).shape[0]))
    class_prob = OneMinusProb(lambda X: np.tile([0.5, 0.3, 0.2], (np.atleast_2d(X).shape[0], 1)))
    for constraint in (PositiveInterval(), LowerBoundedInterval(0.0), HalfLine(0.0), TargetHalfLines(-1.0, 1.0)):
        with pytest.raises(UnsupportedScoreError, match="absolute-residual"):
            constraint.breakpoints(class_prob, X)
    for constraint in (MaxSize(1), SingletonClass(1)):
        with pytest.raises(UnsupportedScoreError, match="one-minus-probability"):
            constraint.breakpoints(residual, X)


def test_dataset_validation():
    Dataset(np.zeros((3, 2)), np.zeros(3), "regression")
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(2), "regression")
    with pytest.raises(TaskMismatchError):
        Dataset(np.zeros((3, 2)), np.zeros(3), "classification")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="regression labels must be finite"):
            Dataset(np.zeros((3, 2)), np.array([0.0, bad, 1.0]), "regression")
    ds = Dataset(np.arange(6.0).reshape(3, 2), np.array([1, 2, 1]), "classification")
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0  # frozen


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(7).child(1, 2).generator().random(5)
    b = RngStream(7).child(1, 2).generator().random(5)
    c = RngStream(7).child(1, 3).generator().random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    u = RngStream(7).child(9).uniform_open_closed(10_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
