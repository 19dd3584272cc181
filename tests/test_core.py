import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scip.core
from scip.conformal import AbsoluteResidual, CalibrationScores, OneMinusProb
from scip.core import (
    ClassBatch,
    Dataset,
    HalfLine,
    IntervalBatch,
    LowerBoundedInterval,
    MaxSize,
    PositiveInterval,
    RngStream,
    SingletonClass,
    TargetHalfLines,
    TaskMismatchError,
    UnsupportedScoreError,
    _ranks,
)
from scip.selection import ScoredPool, TieMode, generalized_conformal_pvalues

_PROPERTY = settings(derandomize=True, database=None, deadline=None)


def _intervals(lower, upper, lower_open=False, upper_open=False) -> IntervalBatch:
    """An interval batch from per-row ends, each finite open end held as the next float inside it;
    scalar open flags apply to every row."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))

    def inward(end, is_open, toward):
        with np.errstate(over="ignore"):  # past +-max the next float is +-inf
            return np.where(np.asarray(is_open, dtype=bool) & np.isfinite(end), np.nextafter(end, toward), end)

    return IntervalBatch(inward(lower, lower_open, math.inf), inward(upper, upper_open, -math.inf))


def _class_sets(rows, n_classes) -> ClassBatch:
    """A class batch from per-row tuples of 1-based classes."""
    member = np.zeros((len(rows), n_classes), dtype=bool)
    for i, classes in enumerate(rows):
        member[i, np.asarray(classes, dtype=int) - 1] = True
    return ClassBatch(member)


def test_open_endpoint_excludes_boundary():
    above = _intervals([2.0, 2.0], [math.inf, math.inf], lower_open=True, upper_open=True)
    assert above.lower.tolist() == [np.nextafter(2.0, 3.0)] * 2  # (2, inf) is held as [next float above 2, inf]
    assert above.covers(np.array([2.0, 2.0001])).tolist() == [False, True]


def test_class_membership():
    assert _class_sets([(1, 3), (1, 3)], 3).covers(np.array([3, 2])).tolist() == [True, False]


def test_closed_endpoint_includes_boundary():
    assert _intervals([0.5, 0.5], [2.5, 2.5]).covers(np.array([0.5, 2.5])).tolist() == [True, True]


def test_measures():
    assert _class_sets([(1, 2), ()], 3).measure().tolist() == [2.0, 0.0]
    lower, upper = [0.5, 1.0, 0.0], [2.5, 0.0, math.inf]  # [0.5, 2.5], an empty row, (0, inf)
    measure = _intervals(lower, upper, [False, False, True], [False, False, True]).measure()
    assert measure.tolist() == [2.0, 0.0, math.inf]


def test_open_point_row_is_empty():
    """(c, c) with an open end holds no point: empty, measure 0, covers nothing; [c, c] holds c;
    [inf, inf] and [-inf, -inf] hold no finite float, so they are empty too."""
    c = np.array([1.0, 1.0, 1.0, 1.0, math.inf, -math.inf])
    batch = _intervals(c, c, [True, False, True, False, True, True], [False, True, True, False, True, True])
    assert batch.nonempty.tolist() == [False, False, False, True, False, False]
    assert batch.measure().tolist() == [0.0] * 6
    assert batch.covers(c).tolist() == [False, False, False, True, False, False]


def test_task_mismatch_errors():
    with pytest.raises(TaskMismatchError):
        _intervals(0.0, 1.0).covers(np.array([1]))  # integer label against an interval row
    with pytest.raises(TaskMismatchError):
        _class_sets([(1, 2)], 2).covers(np.array([1.5]))


# Interval rows on a 1/8 grid, exactly representable in floats; None marks an infinite end.
_END = st.one_of(st.none(), st.integers(-40, 40))


@st.composite
def _interval_rows(draw):
    """Random rows (open and closed ends, points, empty and unbounded rows): their exact ends and the batch."""
    drawn = draw(st.lists(st.tuples(_END, _END, st.booleans(), st.booleans()), max_size=12))
    exact = [
        (None if lo is None else Fraction(lo, 8), None if up is None else Fraction(up, 8),
         lo_open or lo is None, up_open or up is None)
        for lo, up, lo_open, up_open in drawn
    ]
    lower = [-math.inf if lo is None else float(lo) for lo, _, _, _ in exact]
    upper = [math.inf if up is None else float(up) for _, up, _, _ in exact]
    return exact, _intervals(lower, upper, [r[2] for r in exact], [r[3] for r in exact])


def _exact_nonempty(row) -> bool:
    lo, up, lo_open, up_open = row
    return lo is None or up is None or lo < up or (lo == up and not (lo_open or up_open))


def _exact_covers(row, y: Fraction) -> bool:
    lo, up, lo_open, up_open = row
    above = lo is None or (y > lo if lo_open else y >= lo)
    below = up is None or (y < up if up_open else y <= up)
    return above and below


@_PROPERTY
@given(_interval_rows(), st.data())
def test_contains_agrees_with_rational_oracle(rows, data):
    """``covers`` and ``nonempty`` on each row agree with the exact rule on rational ends: an open end
    held as the next float inside it holds the same finite labels."""
    exact, batch = rows
    y = data.draw(st.lists(st.integers(-42, 42), min_size=len(exact), max_size=len(exact)))
    expected = [_exact_covers(row, Fraction(v, 8)) for row, v in zip(exact, y)]
    assert batch.covers(np.array(y, dtype=float) / 8.0).tolist() == expected
    assert batch.nonempty.tolist() == [_exact_nonempty(row) for row in exact]


def _exact_admits(constraint, row) -> bool:
    """Admissibility of one nonempty interval by the rule of each constraint's definition."""
    lo, up, lo_open, up_open = row

    def above(c):
        return lo is not None and (lo > c or (lo == c and lo_open))

    def below(c):
        return up is not None and (up < c or (up == c and up_open))

    if isinstance(constraint, PositiveInterval):  # every member is > 0, as for HalfLine(0)
        return above(0)
    if isinstance(constraint, LowerBoundedInterval):
        return lo is not None and lo >= Fraction(constraint.c)
    if isinstance(constraint, HalfLine):
        return above(Fraction(constraint.c0))
    return below(Fraction(constraint.c_l)) or above(Fraction(constraint.c_u))


@st.composite
def _class_rows(draw):
    n_classes = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n_classes, max_size=n_classes), max_size=12))
    return ClassBatch(np.array(rows, dtype=bool).reshape(len(rows), n_classes))


@_PROPERTY
@given(_interval_rows(), st.integers(-44, 44), st.integers(-44, 44), _class_rows(), st.integers(1, 3),
       st.integers(1, 7))
def test_contains_matches_per_interval_rules(rows, a, b, classes, k0, y0):
    """``admits`` on each nonempty row agrees with the constraint's rule written out per row."""
    exact, batch = rows
    c_l, c_u = sorted((a / 8.0, b / 8.0))
    nonempty = [i for i, row in enumerate(exact) if _exact_nonempty(row)]
    for constraint in (PositiveInterval(), LowerBoundedInterval(c_l), HalfLine(c_u), TargetHalfLines(c_l, c_u)):
        got = constraint.admits(batch)[nonempty].tolist()
        assert got == [_exact_admits(constraint, exact[i]) for i in nonempty]
    with pytest.raises(TaskMismatchError):
        MaxSize(2).admits(batch)
    members = [[k + 1 for k, inside in enumerate(row) if inside] for row in classes.member.tolist()]
    rows_in = [i for i, row in enumerate(members) if row]
    assert MaxSize(k0).admits(classes)[rows_in].tolist() == [len(members[i]) <= k0 for i in rows_in]
    expected = [all(k == y0 for k in members[i]) for i in rows_in]
    assert SingletonClass(y0).admits(classes)[rows_in].tolist() == expected
    with pytest.raises(TaskMismatchError):
        PositiveInterval().admits(classes)


def _random_interval_rows(gen, m):
    """Rows with open and closed ends, open and closed points, infinite and empty rows, on a 1/4 grid."""
    lower = gen.integers(-8, 9, m) / 4.0
    upper = lower + gen.integers(0, 5, m) / 4.0
    inf_lo, inf_up = gen.random(m) < 0.15, gen.random(m) < 0.15
    lower[inf_lo], upper[inf_up] = -np.inf, np.inf
    empty = gen.random(m) < 0.2
    lower[empty], upper[empty] = upper[empty] + 0.25, lower[empty] - gen.integers(0, 3, empty.sum()) / 4.0
    lower[empty & (gen.random(m) < 0.3)] = np.inf
    return _intervals(lower, upper, gen.random(m) < 0.5, gen.random(m) < 0.5)


def test_interval_batch_matches_its_sets():
    """Every column operation equals its per-row definition written out on plain floats: a row is
    the closed interval [lower, upper], empty when it holds no finite float."""
    gen = np.random.default_rng(4259)
    for _ in range(200):
        m = int(gen.integers(0, 30))
        batch = _random_interval_rows(gen, m)
        y = gen.integers(-12, 13, m) / 4.0
        y[gen.random(m) < 0.05] = np.inf
        y[gen.random(m) < 0.05] = -np.inf
        columns = (batch.lower, batch.upper)
        covers, measure, nonempty = [], [], []
        for lo, up, v in zip(*(c.tolist() for c in columns), y.tolist()):
            held = lo <= up and lo < math.inf and up > -math.inf
            nonempty.append(held)
            measure.append(up - lo if held else 0.0)
            covers.append(held and lo <= v <= up)
        assert batch.covers(y).tolist() == covers
        assert batch.measure().tolist() == measure
        assert batch.nonempty.tolist() == nonempty
        rows = gen.permutation(m)[: m // 2]
        taken = batch.take(rows)
        for column, full in zip((taken.lower, taken.upper), columns):
            assert column.tolist() == [full[j] for j in rows]
    with pytest.raises(TaskMismatchError):
        _random_interval_rows(gen, 3).covers(np.array([1, 2, 3]))


def test_interval_batch_from_radius():
    """[mu - r, mu + r] for finite r >= 0, the whole line at r = inf, empty for r < 0 (also where
    mu -+ r rounds to one point, as 1.5 -+ 1e-300 does)."""
    mu = np.array([0.5, -1.0, 2.0, 3.0, 0.0, 1.5, 1.5])
    radius = np.array([0.25, 0.0, math.inf, -0.5, -math.inf, 1e-300, -1e-300])
    batch = IntervalBatch.from_radius(mu, radius)
    assert batch.nonempty.tolist() == [True, True, True, False, False, True, False]
    assert batch.covers(np.full(7, 1.5)).tolist() == [False, False, True, False, False, True, False]
    held = batch.take(np.array([0, 1, 2, 5]))
    assert held.lower.tolist() == [0.25, -1.0, -math.inf, 1.5]  # 1.5 -+ 1e-300 rounds to 1.5
    assert held.upper.tolist() == [0.75, -1.0, math.inf, 1.5]
    shared = IntervalBatch.from_radius(mu[:2], 0.25)
    assert (shared.lower.tolist(), shared.upper.tolist()) == ([0.25, -1.25], [0.75, -0.75])


def test_interval_batch_from_radius_non_finite_mu_is_empty():
    mu = np.array([math.inf, -math.inf, math.nan, math.inf, 1.0])
    radius = np.array([0.5, 0.0, 0.5, math.inf, 0.5])
    batch = IntervalBatch.from_radius(mu, radius)
    assert batch.nonempty.tolist() == [False, False, False, False, True]
    assert not batch.covers(np.array([math.inf, -math.inf, 0.0, math.inf, 1.0]))[:4].any()
    assert batch.measure().tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


_MAX = sys.float_info.max
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.5, 1e308, -1e308, _MAX, -_MAX, math.inf, -math.inf,
                math.nan]
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(), st.floats(-4.0, 4.0))


@_PROPERTY
@given(data=st.data())
def test_from_radius_closed_form_matches_the_rule_with_open_ends(data):
    """Over (mu, r) with NaN, +-inf, negative r (also r that rounds away, as -1e-300 does at mu = 1.5),
    -0.0 and sums past +-max, a row is nonempty exactly when mu is finite and r >= 0, and holds a
    finite y exactly when y lies between the rounded ends, or anywhere at r = inf (the rule of the
    open line and closed finite ends)."""
    size = data.draw(st.integers(1, 8), "size")
    mu = np.array(data.draw(st.lists(_ANY_FLOAT, min_size=size, max_size=size), "mu"))
    radius = np.array(data.draw(st.lists(st.one_of(_ANY_FLOAT, st.just(-1e-300)), min_size=size, max_size=size), "r"))
    batch = IntervalBatch.from_radius(mu, radius)
    held = [math.isfinite(m) and r >= 0.0 for m, r in zip(mu.tolist(), radius.tolist())]
    assert batch.nonempty.tolist() == held
    for i, (m, r) in enumerate(zip(mu.tolist(), radius.tolist())):
        lo, up = m - r, m + r  # Python floats round past +-max to +-inf, as numpy does
        near = [v for end in (lo, up, m) if math.isfinite(end) for v in (end, math.nextafter(end, -math.inf),
                                                                           math.nextafter(end, math.inf))]
        for y in [v for v in near + [0.0, _MAX, -_MAX] if math.isfinite(v)]:
            inside = held[i] and (r == math.inf or lo <= y <= up)
            assert batch.take([i]).covers(np.array([y])).tolist() == [inside], (m, r, y)


def test_infinite_label_lies_in_a_row_whose_end_on_its_side_is_infinite():
    """An infinite end is closed: +-inf lies in the whole line, in a half line's far end and in an
    end that overflowed, as long as the row holds a finite float; a finite end or an empty row
    holds neither."""
    rows = IntervalBatch.from_radius([0.0, 1e308, 1.0, math.inf, 0.0], [math.inf, 1e308, 0.5, 1.0, -1.0])
    assert rows.upper.tolist()[:2] == [math.inf, math.inf]  # r = inf, and 1e308 + 1e308 overflowed
    assert rows.covers(np.full(5, math.inf)).tolist() == [True, True, False, False, False]
    assert rows.covers(np.full(5, -math.inf)).tolist() == [True, False, False, False, False]
    above = _intervals([2.0, _MAX], [math.inf, math.inf], lower_open=True)  # (2, inf), and (max, inf): no finite float
    assert above.nonempty.tolist() == [True, False]
    assert above.covers(np.full(2, math.inf)).tolist() == [True, False]


def test_class_batch_matches_its_sets():
    """Every column operation equals its per-row definition written out on plain lists."""
    gen = np.random.default_rng(4260)
    for _ in range(200):
        m, k = int(gen.integers(0, 30)), int(gen.integers(1, 6))
        batch = ClassBatch(gen.random((m, k)) < 0.4)
        member = batch.member.tolist()
        y = gen.integers(0, k + 2, m)  # 0 and k + 1 lie outside the classes
        assert batch.covers(y).tolist() == [1 <= v <= k and row[v - 1] for row, v in zip(member, y.tolist())]
        assert batch.measure().tolist() == [float(sum(row)) for row in member]
        assert batch.nonempty.tolist() == [any(row) for row in member]
        probs = gen.dirichlet(np.ones(k), m)
        radius = gen.choice([-math.inf, 0.2, 0.5, 0.9, math.inf], m)
        built = ClassBatch.from_radius(probs, radius).member.tolist()
        assert built == [[1.0 - p <= r for p in row] for row, r in zip(probs.tolist(), radius.tolist())]
    with pytest.raises(TaskMismatchError):
        ClassBatch(np.ones((2, 3), dtype=bool)).covers(np.array([1.0, 2.0]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_probability_row_is_empty_with_no_breakpoint(value):
    """A row holding a NaN or infinite probability is empty at every radius, -inf (level 1)
    and +inf included, and no class constraint gives it a breakpoint (-inf), whatever K."""
    finite = [0.5, 0.3, 0.2]
    probs = np.array([[value, 0.0, 0.0], [0.2, value, 0.8], [value] * 3, finite])
    for radius in (-math.inf, 0.0, 0.5, 1.0, math.inf):
        assert ClassBatch.from_radius(probs, radius).nonempty.tolist() == [False, False, False, radius >= 0.5]
    for constraint in (MaxSize(1), MaxSize(2), MaxSize(3), SingletonClass(1), SingletonClass(2)):
        alone = constraint.breakpoints(probs[3:])
        np.testing.assert_array_equal(constraint.breakpoints(probs), [-math.inf] * 3 + [alone[0]])
    for constraint in (MaxSize(1), SingletonClass(1)):  # K <= k0 and K < 2: no radius ever violates
        assert constraint.breakpoints(np.array([[value], [1.0]])).tolist() == [-math.inf, math.inf]


_EIGHTH = st.integers(-48, 48).map(lambda k: k / 8.0)


def _shrunk(data, batch: IntervalBatch) -> IntervalBatch:
    """A random subset of each row: each end kept or moved inward, and any finite end maybe opened."""
    columns = ([], [], [], [])
    for lo, up in zip(batch.lower.tolist(), batch.upper.tolist()):
        sub_lo = max(lo, data.draw(st.one_of(st.just(-math.inf), _EIGHTH)))
        sub_up = min(up, data.draw(st.one_of(st.just(math.inf), _EIGHTH)))
        for column, value in zip(columns, (sub_lo, sub_up, data.draw(st.booleans()), data.draw(st.booleans()))):
            column.append(value)
    return _intervals(*columns)


@pytest.mark.parametrize(
    "constraint",
    [PositiveInterval(), LowerBoundedInterval(0.25), HalfLine(-0.5), TargetHalfLines(-1.0, 1.0)],
)
@_PROPERTY
@given(rows=_interval_rows(), data=st.data())
def test_interval_constraints_monotone(constraint, rows, data):
    """Every nonempty subset of an admitted nonempty row is admitted, judged in one ``admits`` call."""
    _, batch = rows
    sub = _shrunk(data, batch.take(batch.nonempty & constraint.admits(batch)))
    assert constraint.admits(sub)[sub.nonempty].all()


@pytest.mark.parametrize("constraint", [MaxSize(2), SingletonClass(2)])
@_PROPERTY
@given(batch=_class_rows(), data=st.data())
def test_class_constraints_monotone(constraint, batch, data):
    """Every nonempty subset of an admitted nonempty class row is admitted, judged in one ``admits`` call."""
    parents = batch.member[batch.nonempty & constraint.admits(batch)]
    keep = data.draw(st.lists(st.booleans(), min_size=parents.size, max_size=parents.size))
    sub = ClassBatch(parents & np.array(keep, dtype=bool).reshape(parents.shape))
    assert constraint.admits(sub)[sub.nonempty].all()


def test_breakpoint_values():
    mu = np.array([1.5, -0.2, 2.0, 2.5, 0.0])
    never = -math.inf
    np.testing.assert_allclose(PositiveInterval().breakpoints(mu), [1.5, never, 2.0, 2.5, never])
    np.testing.assert_allclose(LowerBoundedInterval(2.0).breakpoints(mu), [never, never, never, 0.5, never])
    np.testing.assert_allclose(TargetHalfLines(-1.0, 1.0).breakpoints(mu), [0.5, never, 1.0, 1.5, never])

    probs = np.array([[0.5, 0.3, 0.2]])
    np.testing.assert_allclose(MaxSize(2).breakpoints(probs), [0.8])
    assert MaxSize(3).breakpoints(probs).tolist() == [math.inf]
    np.testing.assert_allclose(SingletonClass(1).breakpoints(probs), [0.7])
    assert SingletonClass(2).breakpoints(probs).tolist() == [never]


@pytest.mark.parametrize(
    "constraint",
    [PositiveInterval(), LowerBoundedInterval(-2.0), HalfLine(-0.5), TargetHalfLines(-1.0, 1.0)],
)
def test_non_finite_prediction_has_no_interval_breakpoint(constraint):
    """A NaN or infinite mu_hat is empty at every radius, so no interval constraint gives it a
    breakpoint (-inf; an infinite one would give it the floor p-value 1/(n+1)); finite rows keep theirs."""
    mu = np.array([math.inf, -math.inf, math.nan, 1e308, 3.0])
    assert not IntervalBatch.from_radius(mu[:3], math.inf).nonempty.any()
    nu = constraint.breakpoints(mu)
    assert (nu[:3] == -math.inf).all()
    finite = constraint.breakpoints(mu[3:])
    np.testing.assert_array_equal(nu[3:], finite)
    assert np.all(finite > 0.0)


_MAGNITUDE = st.floats(-1e6, 1e6)
_NOT_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])


@pytest.mark.parametrize("kind", ["positive", "lower", "half", "target", "max_size", "singleton"])
@_PROPERTY
@given(data=st.data())
def test_breakpoint_contract(kind, data):
    """Every radius in [0, nu) gives an admitted or empty set; a radius beyond nu by a few ulps of the
    row's scale (max(|mu|, |c|), or 1 for class probabilities) gives a rejected or empty one, also at
    nu = -inf.  Predictions near a constant make fl(mu - c) round, as in ROADMAP item 4's edge case."""
    if kind in ("max_size", "singleton"):
        k = data.draw(st.integers(1, 5), "K")
        constraint = (MaxSize if kind == "max_size" else SingletonClass)(data.draw(st.integers(1, k + 1)))
        entry = st.one_of(st.floats(0.0, 1.0), _NOT_FINITE)
        rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=1, max_size=12), "probs")
        pred = np.array(rows, dtype=float)
        scale = np.ones(pred.shape[0])
        sets = ClassBatch.from_radius
    else:
        c_l, c_u = sorted(data.draw(st.tuples(_MAGNITUDE, _MAGNITUDE), "constants"))
        constraint = {
            "positive": PositiveInterval(), "lower": LowerBoundedInterval(c_l), "half": HalfLine(c_l),
            "target": TargetHalfLines(c_l, c_u),
        }[kind]
        near = st.builds(lambda c, d: c + d, st.sampled_from([0.0, c_l, c_u]), st.floats(-1e3, 1e3))
        rows = data.draw(st.lists(st.one_of(near, _MAGNITUDE, _NOT_FINITE), min_size=1, max_size=12), "mu")
        pred = np.array(rows, dtype=float)
        with np.errstate(invalid="ignore"):
            scale = np.fmax(np.abs(pred), max(abs(c_l), abs(c_u)))
        sets = IntervalBatch.from_radius
    nu = constraint.breakpoints(pred)
    below = np.nextafter(nu, -math.inf)  # the largest radius below nu: every smaller one gives a subset
    fraction = data.draw(st.floats(0.0, 1.0), "fraction")
    for radius in (below, np.where(nu > 0.0, fraction * np.fmax(below, 0.0), -1.0)):
        batch = sets(pred, radius)
        assert (constraint.admits(batch) | ~batch.nonempty).all()
    beyond = np.where(nu == -math.inf, 0.0, nu) + 8.0 * np.spacing(scale)
    batch = sets(pred[nu < math.inf], beyond[nu < math.inf])
    assert not (constraint.admits(batch) & batch.nonempty).any()


def test_breakpoint_needs_the_matching_score():
    """An interval constraint reads one mu_hat per row, a class constraint one probability row."""
    X = np.zeros((2, 1))
    mu = AbsoluteResidual(lambda X: np.ones(np.atleast_2d(X).shape[0])).predict(X)
    probs = OneMinusProb(lambda X: np.tile([0.5, 0.3, 0.2], (np.atleast_2d(X).shape[0], 1))).predict(X)
    mismatched = [(c, probs, "absolute-residual") for c in
                  (PositiveInterval(), LowerBoundedInterval(0.0), HalfLine(0.0), TargetHalfLines(-1.0, 1.0))]
    mismatched += [(c, mu, "one-minus-probability") for c in (MaxSize(1), SingletonClass(1))]
    for constraint, pred, kind in mismatched:
        with pytest.raises(UnsupportedScoreError, match=f"{type(constraint).__name__} .* only for {kind} scores"):
            constraint.breakpoints(pred)


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


def test_dataset_take_keeps_task_labels_and_freeze():
    labelled = Dataset(np.arange(10.0).reshape(5, 2), np.array([1, 2, 3, 1, 2]), "classification")
    unlabelled = Dataset(np.arange(5.0), None, "regression")
    for rows in (slice(1, 4), np.array([4, 0, 2]), np.array([True, False, True, False, True])):
        part = labelled.take(rows)
        assert part.task == "classification"
        assert np.array_equal(part.X, labelled.X[rows]) and np.array_equal(part.y, labelled.y[rows])
        bare = unlabelled.take(rows)
        assert bare.task == "regression" and bare.y is None
        assert np.array_equal(bare.X, unlabelled.X[rows])
        for arr in (part.X, part.y, bare.X):
            assert not arr.flags.writeable


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(7).child(1, 2).generator().random(5)
    b = RngStream(7).child(1, 2).generator().random(5)
    c = RngStream(7).child(1, 3).generator().random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    u = RngStream(7).child(9).uniform_open_closed(10_000)
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    # 1 - r, whether drawn as an array (computed in r's buffer) or as one float
    r = RngStream(7).child(9).generator().random(10_000)
    assert np.array_equal(u, 1.0 - r)
    assert RngStream(7).child(9).uniform_open_closed() == 1.0 - r[0]


def test_rank_dtype_rule():
    """Counts are int32 while table.size + 1 fits in int32 (so a tie count plus one does too), else intp."""
    top = np.iinfo(np.int32).max
    assert scip.core._rank_dtype(0) is np.int32 and scip.core._rank_dtype(top - 1) is np.int32
    assert scip.core._rank_dtype(top) is np.intp
    table = np.repeat([0.0, 1.0, 2.0], [3, 1, 2])
    assert scip.core._run_ends(table).tolist() == [3, 3, 3, 4, 6, 6]
    assert scip.core._run_ends(table).dtype == np.int32


# ---------------------------------------------------------------------------
# Rank counts in index chunks
# ---------------------------------------------------------------------------

_KEY_SIZES = [0, 1, 2] + [size for k in range(1, 13) for size in (2**k, 2**k + 1)]
_TINY = 5e-324  # the smallest subnormal
_SPECIAL_KEYS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, _TINY, -_TINY, 2.5 * _TINY, 1e-310,
                 -1e-310, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0, 1e300, -1e300]
_SIDES = [("left",), ("right",), ("left", "right"), ("right", "left")]


@pytest.mark.parametrize("size", _KEY_SIZES)
@settings(_PROPERTY, max_examples=40)
@given(
    palette=st.lists(st.sampled_from(_SPECIAL_KEYS) | st.floats(allow_nan=False), min_size=1, max_size=6),
    integer_keys=st.booleans(),
    table_size=st.sampled_from([0, 1, 40]),
    cpus=st.sampled_from([1, 2, 3]),
    chunk_keys=st.integers(1, 300),
    block_keys=st.integers(1, 200),
    window_keys=st.integers(1, 64),
    sides=st.sampled_from(_SIDES),
    seed=st.integers(0, 2**32 - 1),
)
def test_search_in_key_order_matches_plain_search(size, palette, integer_keys, table_size, cpus, chunk_keys,
                                                  block_keys, window_keys, sides, seed):
    """``_ranks`` searches each chunk's keys in key order; each side equals a plain search in the
    keys' own order, whatever the chunks, blocks and table windows."""
    gen = np.random.default_rng(seed)
    table = np.sort(np.concatenate([gen.choice([-1.0, 0.0, _TINY, 1.0, 1e300], table_size // 2),
                                    gen.normal(size=table_size - table_size // 2)]))
    if integer_keys:  # heavy ties among small integers; their float bits are zero below the packed index
        keys = gen.integers(-3, 4, size)
    else:
        keys = gen.choice(np.array(palette), size)  # only a few distinct values: heavy ties
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scip.core, "_CHUNK_KEYS", chunk_keys)
        patch.setattr(scip.core, "_BLOCK_KEYS", max(block_keys, size // 64))  # at most about 64 blocks
        patch.setattr(scip.core, "_WINDOW_KEYS", window_keys)
        patch.setattr(scip.core, "_usable_cpus", lambda: cpus)
        ranks = _ranks(table, keys, *sides)
    assert len(ranks) == len(sides)
    for side, rank in zip(sides, ranks):
        assert rank.dtype == np.int32 and rank.shape == (size,)  # table.size + 1 fits in int32
        assert np.array_equal(rank, np.searchsorted(table, keys, side=side))


_WINDOW_TABLE = np.array([0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 5.0])
_WINDOW_BLOCKS = {  # runs of four keys, in block order
    "a block shorter than a run": [2.0, -1.0, 1.0],
    "the whole table": [-1.0, 0.5, 4.0, 9.0, 9.5],
    "a tie on a window edge": [0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 3.0],
    "an empty window": [4.0, 4.0, 4.5, 4.25, 6.0],
    "a window at table.size": [6.0, 9.0, 7.0, math.inf, 8.0],
    "NaN keys": [3.0, math.nan, 5.0, -math.nan, math.nan, math.nan, -math.nan, math.nan],
    "a run of one key": [-math.inf, -0.0, 0.0, 1.0, 3.0],
    "keys out of order": [5.0, -1.0, 1.0, 0.0, 3.0, 3.0, -0.0, 1.0],
}


@pytest.mark.parametrize("block", _WINDOW_BLOCKS.values(), ids=_WINDOW_BLOCKS.keys())
@pytest.mark.parametrize("side", ["left", "right"])
def test_windowed_search_matches_plain_search(block, side, monkeypatch):
    """A block longer than ``_WINDOW_KEYS`` is searched run by run inside each run's table window,
    a shorter one whole; every rank equals a plain search's, at each kind of window."""
    monkeypatch.setattr(scip.core, "_WINDOW_KEYS", 4)
    block = np.array(block)
    out = np.full(block.size, -1, dtype=np.int32)
    scip.core._search(_WINDOW_TABLE, block, side, out)
    assert np.array_equal(out, np.searchsorted(_WINDOW_TABLE, block, side=side))


def test_ranks_with_more_threads_than_cpus(monkeypatch):
    """Nine chunks race with a short switch interval; every slot still holds its own key's rank."""
    monkeypatch.setattr(scip.core, "_CHUNK_KEYS", 64)
    monkeypatch.setattr(scip.core, "_BLOCK_KEYS", 16)
    monkeypatch.setattr(scip.core, "_usable_cpus", lambda: 9)
    gen = np.random.default_rng(60)
    table = np.sort(gen.integers(0, 50, 200) / 7.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            keys = gen.integers(-1, 52, 2000) / 7.0
            left, right = _ranks(table, keys, "left", "right")
            assert np.array_equal(left, np.searchsorted(table, keys, side="left"))
            assert np.array_equal(right, np.searchsorted(table, keys, side="right"))
    finally:
        sys.setswitchinterval(interval)


def test_ranks_just_above_the_real_chunk_threshold():
    """Unpatched: count_geq and the generalized p-values equal their written-out plain-search forms."""
    gen = np.random.default_rng(61)
    m = 2 * scip.core._CHUNK_KEYS + 1  # one chunk per usable CPU, each run in its own thread
    cal_values = gen.integers(0, 500, 3000) / 499.0  # heavy ties, and keys that tie them
    keys = np.concatenate([gen.integers(0, 500, m // 2) / 499.0, gen.random(m - m // 2)])
    gen.shuffle(keys)
    cal = CalibrationScores(cal_values)
    table = np.sort(cal_values)
    assert np.array_equal(cal.count_geq(keys), cal.n - np.searchsorted(table, keys, side="left"))
    pool = ScoredPool(cal_values, gen.random(cal_values.size) < 0.6, keys)
    null_sorted = np.sort(pool.cal_trust[pool.cal_null])
    gt = null_sorted.size - np.searchsorted(null_sorted, keys, side="right")
    geq = null_sorted.size - np.searchsorted(null_sorted, keys, side="left")
    stream = RngStream(62)
    for tie_mode, u in ((TieMode.PER_UNIT, stream.uniform_open_closed(m)),
                        (TieMode.SHARED_U, float(stream.uniform_open_closed())),
                        (TieMode.DETERMINISTIC, 1.0)):
        p = generalized_conformal_pvalues(pool, tie_mode, stream)
        assert np.array_equal(p, (gt + (1.0 + (geq - gt)) * u) / (pool.n + 1))
