import math
import sys
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scip.core
from scip.conformal import AbsoluteResidual, OneMinusProb
from scip.core import (
    CLASSIFICATION,
    ClassBatch,
    ConfigError,
    ConstraintViolationError,
    Dataset,
    DegenerateLabelsError,
    HalfLine,
    IntervalBatch,
    LowerBoundedInterval,
    MaxSize,
    PositiveInterval,
    REGRESSION,
    RngStream,
    SingletonClass,
    TargetHalfLines,
)
from scip.metrics import replication_metrics
from scip.procedures import (
    ProcedureConfig,
    _checked_output,
    _half_line_sets,
    run_cfbh,
    run_cfbh_plus,
    run_cfbh_plus_plus,
    run_infoscop,
    run_infosp,
    run_infosp_modified,
    run_infosp_plus,
    run_infosp_plus_plus,
    run_naive,
    run_selective_classification,
)
from scip.selection import ScoredPool, TieMode, bh_select, generalized_conformal_pvalues
from scip.simgen import MuHatEta, StoredProbs, gen_regression, true_class_probs
from scip.trust import OptimizerConfig, train_trust_classifier

from conformal_reference import conformal_set


def _regression_bundle(seed, n=80, m=50, eta=0.5):
    data, mu_hat = gen_regression(2 * n + m, eta, RngStream(seed))
    cal = Dataset(data.X[:n], data.y[:n], REGRESSION)
    test = Dataset(data.X[n : n + m], data.y[n : n + m], REGRESSION)
    train = Dataset(data.X[n + m :], data.y[n + m :], REGRESSION)
    return cal, test, train, mu_hat


def _rows(sets):
    """Each batch row as plain values: a tuple of classes, or the closed ends (lower, upper)."""
    if isinstance(sets, ClassBatch):
        return [tuple((np.flatnonzero(row) + 1).tolist()) for row in sets.member]
    return list(zip(sets.lower.tolist(), sets.upper.tolist()))


def _nonempty_and_admitted(out, constraint) -> bool:
    return bool(out.sets.nonempty.all() and constraint.admits(out.sets).all())


def _classification_bundle(seed, n=80, m=50):
    gen = RngStream(seed).generator()
    X = gen.standard_normal((n + m, 2))
    probs = true_class_probs(X)
    cum = probs.cumsum(axis=1)
    y = (1 + (gen.random((n + m, 1)) > cum[:, :-1]).sum(axis=1)).astype(int)
    cal = Dataset(X[:n], y[:n], CLASSIFICATION)
    test = Dataset(X[n:], y[n:], CLASSIFICATION)
    return cal, test, true_class_probs


def test_naive_reports_only_admissible_sets():
    cal, test, _, mu_hat = _regression_bundle(1)
    cfg = ProcedureConfig(alpha=0.1, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval())
    out = run_naive(cal, test, cfg)
    assert _nonempty_and_admitted(out, PositiveInterval())


def test_naive_empty_when_nothing_admissible():
    cal, test, _, _ = _regression_bundle(2)
    low = MuHatEta(0.0)
    neg_mu = lambda X: low(X) - 50.0  # every interval dips below zero
    cfg = ProcedureConfig(alpha=0.1, score=AbsoluteResidual(neg_mu), constraint=PositiveInterval())
    assert run_naive(cal, test, cfg).n_reported == 0


def test_cfbh_equals_cfbh_plus_small():
    for seed in range(30):
        cal, test, _, mu_hat = _regression_bundle(seed, n=40, m=30)
        cfg = ProcedureConfig(alpha=0.25, score=AbsoluteResidual(mu_hat), constraint=HalfLine(0.0))
        rng = RngStream(1000 + seed)
        a = run_cfbh(cal, test, cfg, rng)
        b = run_cfbh_plus(cal, test, cfg, rng)
        assert np.array_equal(a.selected, b.selected)


def test_cfbh_single_unit():
    cal, _, _, mu_hat = _regression_bundle(3, n=60, m=1)
    test = Dataset(np.array([[2.5]]), np.array([3.0]), REGRESSION)
    cfg = ProcedureConfig(alpha=0.3, score=AbsoluteResidual(mu_hat), constraint=HalfLine(0.0))
    out = run_cfbh(cal, test, cfg, RngStream(4))
    p = out.diagnostics["result"].pvalues[0]
    assert (p <= 0.3) == (out.selected.size == 1)


def test_infinite_half_line_threshold_reports_nothing():
    """HalfLine(inf): every half line (inf, inf) is empty, so cfbh and cfbh+ report nothing and warn of nothing."""
    cal, test, _, mu_hat = _regression_bundle(3)
    cfg = ProcedureConfig(alpha=0.5, score=AbsoluteResidual(mu_hat), constraint=HalfLine(np.inf))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for out in (run_cfbh(cal, test, cfg, RngStream(2)), run_cfbh_plus(cal, test, cfg, RngStream(2))):
            assert out.n_reported == 0
            assert replication_metrics(out.selected, out.sets, test.y).rpow == 0.0


def test_two_sided_direction_and_sets():
    cal, test, train, mu_hat = _regression_bundle(5)
    constraint = TargetHalfLines(-0.5, 0.5)
    cfg = ProcedureConfig(alpha=0.2, score=AbsoluteResidual(mu_hat), constraint=constraint)
    out = run_cfbh_plus(cal, test, cfg, RngStream(6))
    mu_test = mu_hat(test.X)
    assert out.n_reported > 0 and constraint.admits(out.sets).all()
    assert np.array_equal(np.isinf(out.sets.upper), mu_test[out.selected] >= 0.0)


def test_midpoint_tie_goes_to_upper_half_line():
    """Directional constructor: mu_hat exactly at (c_l + c_u)/2 reports (c_u, inf), held as
    [next float above c_u, inf]; (-inf, c_l) is held as [-inf, next float below c_l]."""
    constraint = TargetHalfLines(0.0, 2.0)
    mu_hat = lambda X: np.asarray(X, dtype=float).reshape(-1)
    # no calibration unit is null, so every test unit gets p = 1/(n+1) and is selected
    x_cal = np.array([-5.0, 5.0] * 10)
    cal = Dataset(x_cal[:, None], 2.0 * x_cal, REGRESSION)
    x_train = np.array([-4.0, -3.0, 1.0, 1.0, 3.0, 4.0] * 4)
    y_train = np.array([-1.0, 1.0, 2.0, 0.5, 3.0, 1.0] * 4)
    train = Dataset(x_train[:, None], y_train, REGRESSION)
    test = Dataset(np.array([[1.0], [3.0], [-1.0]]), None, REGRESSION)
    cfg = ProcedureConfig(
        alpha=0.5, score=AbsoluteResidual(mu_hat), constraint=constraint, tie_mode=TieMode.DETERMINISTIC
    )
    above = (np.nextafter(2.0, np.inf), np.inf)
    expected = [above, above, (-np.inf, -5e-324)]
    for out in (
        run_cfbh_plus(cal, test, cfg, RngStream(40)),
        run_cfbh_plus_plus(train, cal, test, cfg, RngStream(40)),
    ):
        assert out.selected.tolist() == [0, 1, 2] and _rows(out.sets) == expected
        assert out.sets.covers(np.array([2.0, np.nextafter(2.0, np.inf), -5e-324])).tolist() == [False, True, True]


def test_cfbh_plus_plus_boundary_training_label_is_negative():
    """A training label exactly at c_u (up side) or c_l (down side) lies outside its open half line."""
    constraint = TargetHalfLines(0.0, 2.0)
    mu_hat = lambda X: np.asarray(X, dtype=float).reshape(-1)
    x_train = np.array([-4.0, -3.0, -1.0, 1.0, 1.5, 3.0, 4.0] * 4)
    y_train = np.array([-1.0, 0.0, 0.5, 2.0, 2.0, 3.0, 1.0] * 4)  # 0.0 = c_l below, 2.0 = c_u above
    train = Dataset(x_train[:, None], y_train, REGRESSION)
    cal = Dataset(np.array([[-5.0], [5.0]] * 10), np.array([-10.0, 10.0] * 10), REGRESSION)
    test = Dataset(np.array([[1.0], [3.0], [-1.0]]), None, REGRESSION)
    cfg = ProcedureConfig(alpha=0.5, score=AbsoluteResidual(mu_hat), constraint=constraint)
    scorer = run_cfbh_plus_plus(train, cal, test, cfg, RngStream(3)).diagnostics["scorer"]
    up = 1.0 - x_train <= 0.0
    inside = np.where(up, y_train > 2.0, y_train < 0.0)
    expected = train_trust_classifier(x_train[:, None], np.where(inside, 1, -1), lam=cfg.lam, config=cfg.optimizer)
    assert np.array_equal(scorer.weights, expected.weights) and scorer.bias == expected.bias
    closed = np.where(up, y_train >= 2.0, y_train <= 0.0)  # the closed rule counts the boundary labels in
    other = train_trust_classifier(x_train[:, None], np.where(closed, 1, -1), lam=cfg.lam, config=cfg.optimizer)
    assert not np.array_equal(scorer.weights, other.weights)


_MAX = sys.float_info.max


@pytest.mark.parametrize("constraint", [HalfLine(_MAX), TargetHalfLines(-_MAX, _MAX)])
def test_a_half_line_past_max_is_empty_and_never_reported(constraint):
    """(max, inf) and (-inf, -max) hold no finite label: every such row is empty and gets p-value 1,
    so cfbh and cfbh+ report nothing (before, they reported the open row (max, inf), which no label
    can fall in).  cfbh++ finds every training label outside its set and raises."""
    x = np.linspace(-2.0, 2.0, 24)
    cal = Dataset(x[:, None], x + 0.1, REGRESSION)
    test = Dataset(np.array([[3.0], [4.0], [-3.0]]), None, REGRESSION)  # the strongest trusts when one-sided
    identity = lambda X: np.asarray(X, dtype=float)[:, 0]
    cfg = ProcedureConfig(alpha=0.5, score=AbsoluteResidual(identity), constraint=constraint,
                          tie_mode=TieMode.DETERMINISTIC)
    sets = _half_line_sets(cfg, identity(test.X))[0]
    assert not sets.nonempty.any() and not sets.covers(np.array([3.0, 1e308, -1e308])).any()
    runs = [run_cfbh_plus] + ([run_cfbh] if isinstance(constraint, HalfLine) else [])
    for run in runs:
        out = run(cal, test, cfg, RngStream(1))
        assert out.n_reported == 0
        assert out.diagnostics["result"].pvalues.tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(DegenerateLabelsError):
        run_cfbh_plus_plus(cal, cal, test, cfg, RngStream(1))


def test_cfbh_selects_what_cfbh_plus_selects_with_a_prediction_near_max():
    """A calibration mu_hat of 1e308 made the old clip constant 2M overflow (inf * 0 is NaN) and cfbh
    raise; the clipped scores are now the float below the pooled minimum, so cfbh's p-values are
    cfbh+'s."""
    mu_cal = np.append(np.linspace(-1.0, 1.0, 19), 1e308)
    cal = Dataset(mu_cal[:, None], np.where(np.arange(20) % 2 == 0, -1.0, 1.0), REGRESSION)  # 1e308: y > c0
    test = Dataset(np.arange(2.0, 7.0)[:, None], None, REGRESSION)
    identity = lambda X: np.asarray(X, dtype=float)[:, 0]
    cfg = ProcedureConfig(alpha=0.2, score=AbsoluteResidual(identity), constraint=HalfLine(0.0),
                          tie_mode=TieMode.DETERMINISTIC)
    plus = run_cfbh_plus(cal, test, cfg, RngStream(1))
    out = run_cfbh(cal, test, cfg, RngStream(1))
    assert plus.selected.tolist() == [0, 1, 2, 3, 4]
    assert np.array_equal(out.selected, plus.selected)
    assert np.array_equal(out.diagnostics["result"].pvalues, plus.diagnostics["result"].pvalues)
    assert out.diagnostics["clip"] == np.nextafter(-1.0, -np.inf)


@pytest.mark.parametrize("method", ["cfbh++", "infosp++"])
@pytest.mark.parametrize("column", [0, 1])
def test_a_nan_test_feature_is_never_reported_by_the_trained_methods(method, column):
    """A NaN feature makes a test row's trained trust NaN.  In column 0, which mu_hat reads, the
    prediction is NaN too: the set is empty, so the trust is 0.  In column 1, which mu_hat ignores,
    the set stays nonempty and selection makes the row ineligible.  Either way the row is never
    reported; cfbh++ raised "trust scores must be finite" on column 0 before, and both methods on
    column 1.  A NaN feature on a calibration row raises, whichever column holds it."""
    gen = np.random.default_rng(0)
    x = gen.normal(size=(160, 2))
    data = Dataset(x, x[:, 0] + 0.3 * gen.normal(size=160), REGRESSION)
    cal, test, train = data.take(slice(0, 60)), data.take(slice(60, 100)), data.take(slice(100, None))
    bad_rows = np.argsort(test.X[:, 0])[-2:].tolist()  # the largest mu_hat: nonempty sets, high trust
    X_test = test.X.copy()
    X_test[bad_rows, column] = np.nan
    first = lambda X: np.asarray(X, dtype=float)[:, 0]
    out, pvalues = _run_method(method, cal, Dataset(X_test, test.y, REGRESSION), train, first)
    assert not set(bad_rows) & set(out.selected.tolist())
    assert np.all(pvalues[bad_rows] == 1.0)
    assert out.n_reported > 0
    X_cal = cal.X.copy()
    X_cal[-1, column] = np.nan  # the last calibration row selects under both methods
    with pytest.raises(ValueError, match="must be finite"):
        _run_method(method, Dataset(X_cal, cal.y, REGRESSION), test, train, first)


def test_directional_constructor_needs_a_finite_midpoint():
    """TargetHalfLines with an infinite end, or with c_l + c_u past max, has no finite midpoint to
    rank mu_hat by: cfbh+ and cfbh++ raise ConfigError; infosp takes the constraint."""
    cal, test, train, mu_hat = _regression_bundle(7, n=30, m=10)
    for constraint in (TargetHalfLines(0.0, np.inf), TargetHalfLines(-np.inf, 0.0), TargetHalfLines(_MAX, _MAX)):
        cfg = ProcedureConfig(alpha=0.3, score=AbsoluteResidual(mu_hat), constraint=constraint)
        with pytest.raises(ConfigError, match="finite midpoint"):
            run_cfbh_plus(cal, test, cfg, RngStream(1))
        with pytest.raises(ConfigError, match="finite midpoint"):
            run_cfbh_plus_plus(train, cal, test, cfg, RngStream(1))
        assert _nonempty_and_admitted(run_infosp(cal, test, cfg), constraint)


_THRESHOLD = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, _MAX, -_MAX, np.inf, -np.inf]),
    st.floats(allow_nan=False),
)


@settings(derandomize=True, database=None, deadline=None)
@given(c=_THRESHOLD, other=_THRESHOLD, mu=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6))
def test_half_line_rows_hold_exactly_the_finite_labels_past_their_constant(c, other, mu):
    """Each (c, inf) row is held as [next float above c, inf] and (-inf, c) as [-inf, next float below
    c]: a row holds a finite y exactly when y > c0, or, by its side, y < c_l or y > c_u."""
    mu = np.array(mu)
    identity = AbsoluteResidual(lambda X: X[:, 0])
    labels = {c, other, 0.0, _MAX, -_MAX, *mu.tolist()}
    labels |= {math.nextafter(v, to) for v in list(labels) for to in (-np.inf, np.inf)}
    labels = np.array(sorted(v for v in labels if math.isfinite(v)))
    c_l, c_u = sorted((c, other))
    for constraint in (HalfLine(c), TargetHalfLines(c_l, c_u)):
        if isinstance(constraint, TargetHalfLines) and not math.isfinite((c_l + c_u) / 2.0):
            continue
        sets, _ = _half_line_sets(ProcedureConfig(alpha=0.1, score=identity, constraint=constraint), mu)
        for i, centre in enumerate(mu.tolist()):
            row = sets.take(np.full(labels.size, i))
            if isinstance(constraint, HalfLine):
                expected = labels > c
            elif (c_l + c_u) / 2.0 - centre <= 0.0:  # the upper half line
                expected = labels > c_u
            else:
                expected = labels < c_l
            assert np.array_equal(row.covers(labels), expected), (constraint, centre)
            assert sets.nonempty[i] == expected.any()  # the labels hold the next float past each constant


_GRID = st.integers(-12, 12).map(lambda k: k / 4.0)  # coarse values force ties among trusts and labels


@st.composite
def _half_line_case(draw):
    c_l = draw(_GRID)
    c_u = c_l + draw(st.integers(0, 8)) / 4.0
    c0 = draw(_GRID)
    n, m = draw(st.integers(1, 25)), draw(st.integers(1, 15))
    value = st.one_of(_GRID, st.floats(-1e3, 1e3))
    mu = np.array(draw(st.lists(value, min_size=n + m, max_size=n + m)))
    boundary = st.sampled_from([c0, c_l, c_u, (c_l + c_u) / 2.0])
    y = np.array(draw(st.lists(st.one_of(boundary, value), min_size=n, max_size=n)))
    return mu, y, c0, c_l, c_u, draw(st.sampled_from([0.1, 0.3, 0.6]))


@settings(derandomize=True, database=None, deadline=None)
@given(_half_line_case())
def test_cfbh_plus_pvalues_follow_the_half_line_null_formulas(case):
    """cfbh+ equals generalized p-values on y <= c0, and on y <= c_u / y >= c_l by direction."""
    mu, y, c0, c_l, c_u, alpha = case
    n = y.size
    cal = Dataset(mu[:n, None], y, REGRESSION)
    test = Dataset(mu[n:, None], None, REGRESSION)
    mu_hat = lambda X: np.asarray(X, dtype=float)[:, 0]
    mid = (c_l + c_u) / 2.0
    up = mid - mu[:n] <= 0.0
    references = (
        (HalfLine(c0), mu, y <= c0),
        (TargetHalfLines(c_l, c_u), np.abs(mid - mu), np.where(up, y <= c_u, y >= c_l)),
    )
    for constraint, trust, null in references:
        cfg = ProcedureConfig(
            alpha=alpha, score=AbsoluteResidual(mu_hat), constraint=constraint, tie_mode=TieMode.DETERMINISTIC
        )
        result = run_cfbh_plus(cal, test, cfg, RngStream(0)).diagnostics["result"]
        ref = generalized_conformal_pvalues(ScoredPool(trust[:n], null, trust[n:]), TieMode.DETERMINISTIC)
        assert np.array_equal(result.pvalues, ref)
        assert np.array_equal(result.selected, bh_select(ref, alpha).selected)


@st.composite
def _class_case(draw):
    n, m, k = draw(st.integers(1, 25)), draw(st.integers(1, 15)), draw(st.integers(2, 4))
    raw = np.array(draw(st.lists(st.integers(1, 5), min_size=(n + m) * k, max_size=(n + m) * k)), dtype=float)
    probs = raw.reshape(n + m, k) / raw.reshape(n + m, k).sum(axis=1, keepdims=True)
    y = np.array(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    return probs, y, draw(st.integers(1, k)), draw(st.sampled_from([0.1, 0.3, 0.6]))


@settings(derandomize=True, database=None, deadline=None)
@given(_class_case())
def test_selective_classification_pvalues_follow_the_class_null_formulas(case):
    """Singletons equal generalized p-values on y != y0 (fixed class) and y != argmax (MaxSize(1))."""
    probs, y, y0, alpha = case
    n = y.size
    ids = np.arange(probs.shape[0], dtype=float)[:, None]
    cal = Dataset(ids[:n], y, CLASSIFICATION)
    test = Dataset(ids[n:], None, CLASSIFICATION)
    references = (
        (SingletonClass(y0), probs[:, y0 - 1], y != y0),
        (MaxSize(1), probs.max(axis=1), y != np.argmax(probs[:n], axis=1) + 1),
    )
    for constraint, trust, null in references:
        cfg = ProcedureConfig(alpha=alpha, score=OneMinusProb(StoredProbs(probs)), constraint=constraint)
        result = run_selective_classification(cal, test, cfg).diagnostics["result"]
        ref = generalized_conformal_pvalues(ScoredPool(trust[:n], null, trust[n:]), TieMode.DETERMINISTIC)
        assert np.array_equal(result.pvalues, ref)
        assert np.array_equal(result.selected, bh_select(ref, alpha).selected)


def test_argmax_ties_go_to_smallest_index():
    table = np.array(
        [[0.9, 0.05, 0.05], [0.5, 0.3, 0.2], [0.4, 0.4, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.2, 0.4, 0.4]]
    )
    p_hat = lambda X: table[np.asarray(X, dtype=int).reshape(-1)]
    cal = Dataset(np.zeros((20, 1)), np.ones(20, dtype=int), CLASSIFICATION)  # no null unit
    test = Dataset(np.arange(1, 5, dtype=float)[:, None], None, CLASSIFICATION)
    cfg = ProcedureConfig(alpha=0.5, score=OneMinusProb(p_hat), constraint=MaxSize(1))
    out = run_selective_classification(cal, test, cfg)
    assert out.selected.tolist() == [0, 1, 2, 3] and _rows(out.sets) == [(1,), (1,), (1,), (2,)]


def test_cfbh_plus_plus_runs_and_controls_shape():
    cal, test, train, mu_hat = _regression_bundle(7)
    cfg = ProcedureConfig(
        alpha=0.2, score=AbsoluteResidual(mu_hat), constraint=HalfLine(0.0), feature_degree=2
    )
    out = run_cfbh_plus_plus(train, cal, test, cfg, RngStream(8))
    assert out.sets.nonempty.all()
    assert out.diagnostics["scorer"].loss_trace.size >= 1


def test_infosp_hand_fixture():
    """Three test units with hand-computed adjusted levels and BH threshold."""
    mu_hat = lambda X: np.asarray(X, dtype=float).reshape(-1)  # mu(x) = x
    cal = Dataset(
        np.array([[1.0], [1.0], [1.0], [1.0]]),
        np.array([1.2, 0.7, 2.0, 0.2]),  # residuals 0.2, 0.3, 1.0, 0.8
        REGRESSION,
    )
    test = Dataset(np.array([[0.9], [0.05], [-1.0]]), np.array([0.9, 0.05, -1.0]), REGRESSION)
    cfg = ProcedureConfig(alpha=0.45, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval())
    # breakpoints: 0.9, 0.05, none -> counts #{V >= nu}: V=(0.2,0.3,1.0,0.8)
    # q(0.9) = (1+1)/5 = 0.4 ; q(0.05) = (1+4)/5 = 1.0 ; q(-1) = 1
    out = run_infosp(cal, test, cfg)
    q = out.diagnostics["q"]
    assert q == pytest.approx([0.4, 1.0, 1.0])
    # BH over (0.4, 1, 1) at 0.45: k=1 needs 0.4 <= 0.15 -> no; nothing selected
    assert out.n_reported == 0
    cfg_loose = ProcedureConfig(alpha=0.8, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval())
    out2 = run_infosp(cal, test, cfg_loose)
    # now 0.4 <= 0.8/3 is false... k=1: 0.4 <= 0.2667 no -> still empty
    assert out2.n_reported == 0


def test_infosp_all_levels_one_reports_nothing():
    cal, test, _, _ = _regression_bundle(9)
    neg = lambda X: np.full(np.atleast_2d(X).shape[0], -3.0)
    cfg = ProcedureConfig(alpha=0.1, score=AbsoluteResidual(neg), constraint=PositiveInterval())
    assert run_infosp(cal, test, cfg).n_reported == 0


def _run_infosp_variant(procedure, cal, test, cfg):
    """infosp, infosp+ or infosp++ (classification) on these halves, and the test rows' I-adjusted p-values."""
    if procedure == "infosp":
        out = run_infosp(cal, test, cfg)
        return out, out.diagnostics["q"]
    half = cal.n // 2
    cal1, cal0 = cal.take(slice(0, half)), cal.take(slice(half, None))
    run = run_infosp_plus if procedure == "infosp+" else partial(run_infosp_plus_plus, None)
    out = run(cal1, cal0, test, cfg, RngStream(5))
    return out, out.diagnostics["q0"][half:]


@pytest.mark.parametrize("procedure", ["infosp", "infosp+", "infosp++"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_infosp_never_reports_non_finite_probability_rows(value, procedure):
    """A test row holding a NaN or infinite probability gets I-adjusted p-value 1 and an empty
    set, so it is never reported; a calibration row raises, in either half."""
    cal, test, _ = _classification_bundle(20, n=100, m=60)
    table = true_class_probs(np.vstack([cal.X, test.X]))
    ids = np.arange(cal.n + test.n, dtype=float)[:, None]  # each row's features are its table index
    cal_ids = Dataset(ids[: cal.n], cal.y, CLASSIFICATION)
    test_ids = Dataset(ids[cal.n :], test.y, CLASSIFICATION)
    for constraint, alpha in ((MaxSize(2), 0.3), (SingletonClass(1), 0.6)):
        cfg = ProcedureConfig(alpha=alpha, score=OneMinusProb(StoredProbs(table)), constraint=constraint)
        bad_rows = _run_infosp_variant(procedure, cal_ids, test_ids, cfg)[0].selected[:2]  # reported while finite
        assert bad_rows.size == 2
        bad = table.copy()
        bad[cal.n + bad_rows[0]] = [value, 0.0, 0.0, 0.0]
        bad[cal.n + bad_rows[1]] = value
        cfg = replace(cfg, score=OneMinusProb(StoredProbs(bad)))
        out, q = _run_infosp_variant(procedure, cal_ids, test_ids, cfg)
        assert np.all(q[bad_rows] == 1.0)
        assert out.n_reported > 0
        assert not set(bad_rows.tolist()) & set(out.selected.tolist())
        bad[cal.n + bad_rows] = table[cal.n + bad_rows]
        bad[cal.n - 3] = value  # in the calibration half whose scores are ranked
        with pytest.raises(ValueError, match="calibration scores must be finite"):
            _run_infosp_variant(procedure, cal_ids, test_ids, cfg)
        bad[cal.n - 3] = table[cal.n - 3]
        bad[3] = value  # in infosp+'s and infosp++'s selection half
        with pytest.raises(ValueError, match="calibration scores must be finite"):
            _run_infosp_variant(procedure, cal_ids, test_ids, cfg)


@pytest.mark.parametrize("procedure", ["infosp", "infosp+", "infosp++"])
def test_infinite_mu_hat_in_a_calibration_row_raises(procedure):
    """A non-finite prediction on a calibration row raises, also in the selection half of infosp+
    and infosp++ (row 3 here), where it would otherwise count as a null unit with trust 0."""
    data, mu_hat = gen_regression(400, 0.5, RngStream(3))
    cal, test, train = data.take(slice(0, 200)), data.take(slice(200, 300)), data.take(slice(300, None))
    cal1, cal0 = cal.take(slice(0, 100)), cal.take(slice(100, None))
    wild = lambda X: np.where(X[:, 0] == cal.X[3, 0], np.inf, mu_hat(X))
    cfg = ProcedureConfig(alpha=0.3, score=AbsoluteResidual(wild), constraint=PositiveInterval())
    runs = {
        "infosp": lambda: run_infosp(cal, test, cfg),
        "infosp+": lambda: run_infosp_plus(cal1, cal0, test, cfg, RngStream(5)),
        "infosp++": lambda: run_infosp_plus_plus(train, cal1, cal0, test, cfg, RngStream(5)),
    }
    with pytest.raises(ValueError, match="calibration scores must be finite"):
        runs[procedure]()


_EIGHT_METHODS = ["naive", "cfbh", "cfbh+", "cfbh++", "infosp", "infosp+", "infosp++", "infoscop"]


def _eight_methods(train, cal, cal0, cal1, test, config, rng):
    """The eight methods by name, each a thunk: on cal, or on its halves cal0 and cal1 as the CLI
    splits it; cfbh, cfbh+ and cfbh++ under HalfLine(0)."""
    one_sided = replace(config, constraint=HalfLine(0.0))
    return {
        "naive": lambda: run_naive(cal, test, config),
        "cfbh": lambda: run_cfbh(cal, test, one_sided, rng),
        "cfbh+": lambda: run_cfbh_plus(cal, test, one_sided, rng),
        "cfbh++": lambda: run_cfbh_plus_plus(train, cal, test, one_sided, rng),
        "infosp": lambda: run_infosp(cal, test, config),
        "infosp+": lambda: run_infosp_plus(cal1, cal0, test, config, rng),
        "infosp++": lambda: run_infosp_plus_plus(train, cal1, cal0, test, config, rng),
        "infoscop": lambda: run_infoscop(cal0, cal1, test, config, rng),
    }


def _run_method(method, cal, test, train, mu_hat):
    """One method on these samples, split as the CLI splits them (cal0 first), and its test p-values."""
    base = ProcedureConfig(
        alpha=0.3, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval(), screening_alpha=0.2
    )
    cal0, cal1 = cal.take(slice(0, cal.n // 2)), cal.take(slice(cal.n // 2, None))
    out = _eight_methods(train, cal, cal0, cal1, test, base, RngStream(1))[method]()
    if "result" in out.diagnostics:
        return out, out.diagnostics["result"].pvalues
    return out, out.diagnostics.get("q")


@pytest.mark.parametrize("method", _EIGHT_METHODS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_mu_hat_is_never_reported_by_any_method(value, method):
    """A NaN or infinite mu_hat on a test row gets the empty set, and p-value 1 wherever the method
    has one, so it is never reported; on a calibration row it raises, under all eight methods."""
    gen = np.random.default_rng(0)
    x = gen.normal(size=100)
    y = x + 0.3 * gen.normal(size=100)
    x_train = gen.normal(size=60)
    cal, test = Dataset(x[:60, None], y[:60], REGRESSION), Dataset(x[60:, None], y[60:], REGRESSION)
    train = Dataset(x_train[:, None], x_train + 0.3 * gen.normal(size=60), REGRESSION)

    def wild(bad_x):
        return lambda X: np.where(np.isin(X[:, 0], bad_x), value, X[:, 0])

    bad_rows = np.array([3, 5, 7])
    out, pvalues = _run_method(method, cal, test, train, wild(test.X[bad_rows, 0]))
    assert not set(bad_rows.tolist()) & set(out.selected.tolist())
    assert out.sets.nonempty.all()
    if pvalues is not None:
        assert np.all(pvalues[bad_rows] == 1.0)
    assert out.n_reported > 0
    with pytest.raises(ValueError, match="calibration scores must be finite"):
        _run_method(method, cal, test, train, wild(cal.X[[3], 0]))


@pytest.mark.parametrize("method", ["cfbh++", "infosp++"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_mu_hat_on_a_training_row_raises(value, method):
    """Training rows lead the one predictor call and follow the calibration-row rule: a NaN or
    infinite mu_hat on one raises instead of labelling that row outside its set."""
    gen = np.random.default_rng(0)
    x = gen.normal(size=160)
    data = Dataset(x[:, None], x + 0.3 * gen.normal(size=160), REGRESSION)
    cal, test, train = data.take(slice(0, 60)), data.take(slice(60, 100)), data.take(slice(100, None))
    wild = lambda X: np.where(X[:, 0] == train.X[3, 0], value, X[:, 0])
    with pytest.raises(ValueError, match="calibration scores must be finite"):
        _run_method(method, cal, test, train, wild)


@pytest.mark.parametrize("screening_threshold", [0.0, 1e6])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_infoscop_raises_on_a_non_finite_mu_hat_in_its_stage_two_half(value, screening_threshold):
    """Stage two reads cal_b and the test rows as one pooled block, so a NaN or infinite mu_hat in
    cal_b raises, whether or not screening keeps any unit (threshold 1e6 keeps none)."""
    gen = np.random.default_rng(0)
    x = gen.normal(size=120)
    y = 0.5 + x + 0.3 * gen.normal(size=120)
    wild = lambda X: np.where(X[:, 0] == x[50], value, 0.5 + X[:, 0])
    data = Dataset(x[:, None], y, REGRESSION)
    cal_a, cal_b, test = data.take(slice(0, 40)), data.take(slice(40, 80)), data.take(slice(80, None))
    cfg = ProcedureConfig(
        alpha=0.3, score=AbsoluteResidual(wild), constraint=PositiveInterval(), screening_alpha=0.2,
        screening_threshold=screening_threshold,
    )
    with pytest.raises(ValueError, match="calibration scores must be finite"):
        run_infoscop(cal_a, cal_b, test, cfg, RngStream(1))


@pytest.mark.parametrize(
    "sign, constraint",
    [
        (1.0, HalfLine(0.43371361068219516)),
        (1.0, TargetHalfLines(-0.5, 0.43371361068219516)),
        (-1.0, TargetHalfLines(-0.43371361068219516, 0.5)),
    ],
)
def test_infosp_calibration_score_just_below_a_rounded_breakpoint(sign, constraint):
    """nu = fl(mu - c0) = 0.05061276961516348 is rounded: the calibration score just below it gives
    the closed set whose end rounds onto the constant, so nu is taken past it and nothing is reported
    (taken at the rounded nu, the set was reported and the constraint check raised)."""
    identity = lambda X: np.asarray(X, dtype=float)[:, 0]
    cal = Dataset(np.zeros((19, 1)), np.full(19, sign * 0.05061276961516347), REGRESSION)
    test = Dataset(np.array([[sign * 0.48432638029735864]]), None, REGRESSION)
    cfg = ProcedureConfig(alpha=0.3, score=AbsoluteResidual(identity), constraint=constraint)
    out = run_infosp(cal, test, cfg)
    assert out.n_reported == 0
    assert out.diagnostics["q"].tolist() == [1.0]


def test_infosp_never_reports_an_infinite_prediction():
    """A unit whose mu_hat is inf gets an empty set and I-adjusted p-value 1, as a NaN one does, so it
    neither is reported nor counts in BH's k; the metrics stay warning-free."""
    cal, test, _, mu_hat = _regression_bundle(23, n=60, m=40)
    X = test.X.copy()
    X[:3, 0] = [3.0, 3.1, -3.2]
    test = Dataset(X, test.y, REGRESSION)
    wild = lambda X: np.where(np.abs(X[:, 0]) > 2.9, np.sign(X[:, 0]) * np.inf, mu_hat(X))
    cfg = ProcedureConfig(alpha=0.3, score=AbsoluteResidual(wild), constraint=PositiveInterval())
    out = run_infosp(cal, test, cfg)
    assert out.n_reported > 0
    assert not {0, 1, 2} & set(out.selected.tolist())
    q = out.diagnostics["q"]
    infinite = ~np.isfinite(wild(test.X))  # rows 0-2 and any drawn beyond |x| = 2.9
    assert infinite[:3].all() and np.all(q[infinite] == 1.0)
    # the same run with those rows' p-values set to 1: the rest from the finite predictor
    ref_q = run_infosp(cal, test, replace(cfg, score=AbsoluteResidual(mu_hat))).diagnostics["q"]
    assert np.array_equal(q[~infinite], ref_q[~infinite])
    ref_q[infinite] = 1.0
    ref = bh_select(ref_q, cfg.alpha)
    assert out.diagnostics["tau"] == ref.threshold_alpha_hat
    assert np.count_nonzero(q <= out.diagnostics["tau"]) == ref.k_hat
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        metrics = replication_metrics(out.selected, out.sets, test.y)
    assert np.isfinite(metrics.rpow)


def test_selective_classification_never_reports_nan_probability_rows():
    """A NaN test row gets an empty singleton and p-value 1; a NaN calibration row raises as it does for infosp."""
    cal, test, _ = _classification_bundle(20, n=100, m=60)
    table = true_class_probs(np.vstack([cal.X, test.X]))
    ids = np.arange(cal.n + test.n, dtype=float)[:, None]  # each row's features are its table index
    cal_ids = Dataset(ids[: cal.n], cal.y, CLASSIFICATION)
    test_ids = Dataset(ids[cal.n :], test.y, CLASSIFICATION)
    for constraint in (SingletonClass(1), MaxSize(1)):
        cfg = ProcedureConfig(alpha=0.3, score=OneMinusProb(StoredProbs(table)), constraint=constraint)
        nan_rows = run_selective_classification(cal_ids, test_ids, cfg).selected[:4]
        assert nan_rows.size == 4
        with_nan = table.copy()
        with_nan[cal.n + nan_rows] = np.nan
        nan_cfg = replace(cfg, score=OneMinusProb(StoredProbs(with_nan)))
        out = run_selective_classification(cal_ids, test_ids, nan_cfg)
        assert np.all(out.diagnostics["result"].pvalues[nan_rows] == 1.0)
        assert out.n_reported > 0
        assert not set(nan_rows.tolist()) & set(out.selected.tolist())
        with_nan[cal.n + nan_rows] = table[cal.n + nan_rows]
        with_nan[3] = np.nan  # a calibration row
        for run in (run_selective_classification, run_infosp):
            with pytest.raises(ValueError, match="calibration scores must be finite"):
                run(cal_ids, test_ids, nan_cfg)


def test_single_test_unit_reports_one_admitted_row():
    """m = 1: naive and the infosp variants each report the one strong unit."""
    gen = RngStream(41).generator()
    x = gen.uniform(0.0, 4.0, 60)
    cal = Dataset(x[:, None], x + 0.5 * gen.standard_normal(60), REGRESSION)
    cal0 = Dataset(cal.X[:30], cal.y[:30], REGRESSION)
    cal1 = Dataset(cal.X[30:], cal.y[30:], REGRESSION)
    test = Dataset(np.array([[3.5]]), None, REGRESSION)
    mu_hat = lambda X: np.asarray(X, dtype=float)[:, 0]
    constraint = PositiveInterval()
    cfg = ProcedureConfig(alpha=0.2, score=AbsoluteResidual(mu_hat), constraint=constraint)
    for out in (
        run_naive(cal, test, cfg),
        run_infosp(cal, test, cfg),
        run_infosp_plus(cal1, cal0, test, cfg, RngStream(5)),
        run_infosp_modified(cal1, cal0, test, cfg),
    ):
        assert out.selected.tolist() == [0]
        assert out.sets.nonempty.tolist() == [True]
        assert constraint.admits(out.sets).tolist() == [True]


def test_infosp_plus_pipeline_invariants():
    cal, test, _, mu_hat = _regression_bundle(10, n=120, m=80)
    cal0 = Dataset(cal.X[:60], cal.y[:60], REGRESSION)
    cal1 = Dataset(cal.X[60:], cal.y[60:], REGRESSION)
    cfg = ProcedureConfig(alpha=0.2, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval())
    out = run_infosp_plus(cal1, cal0, test, cfg, RngStream(11))
    assert _nonempty_and_admitted(out, PositiveInterval())
    d = out.diagnostics
    assert np.all(d["q_plus"] >= d["tau0"] - 1e-15)
    assert np.all(d["q_plus"] >= d["q0"])
    trust = d["trust"]
    assert np.all(trust >= 0.0)
    # empty-set units carry zero trust
    assert np.all(trust[d["q_plus"] >= 1.0] == 0.0)


def test_infosp_plus_sets_match_per_row_sets_at_truncated_levels():
    """CP-truncated constructor: each reported set is the level-q_plus conformal set of its unit."""
    cal, test, _, mu_hat = _regression_bundle(16, n=120, m=80)
    cls_cal, cls_test, p_hat = _classification_bundle(18, n=120, m=80)
    cases = (
        (cal, test, AbsoluteResidual(mu_hat), PositiveInterval()),
        (cls_cal, cls_test, OneMinusProb(p_hat), MaxSize(2)),
    )
    for cal, test, score, constraint in cases:
        cal0 = Dataset(cal.X[:60], cal.y[:60], cal.task)
        cal1 = Dataset(cal.X[60:], cal.y[60:], cal.task)
        cfg = ProcedureConfig(alpha=0.3, score=score, constraint=constraint)
        out = run_infosp_plus(cal1, cal0, test, cfg, RngStream(18))
        assert out.n_reported > 0
        cal0_scores = score.scores(score.predict(cal0.X), cal0.y)
        q_plus = out.diagnostics["q_plus"][cal1.n :]
        for j, row in zip(out.selected, _rows(out.sets)):
            assert row == conformal_set(test.X[j], cal0_scores, score, q_plus[j])


def test_infosp_plus_zero_truncation_keeps_raw_levels():
    """When the pooled BH threshold is zero the truncation is a no-op."""
    cal, test, _, _ = _regression_bundle(12, n=40, m=30)
    neg = lambda X: np.full(np.atleast_2d(X).shape[0], -1.0)  # all levels are 1
    cfg = ProcedureConfig(alpha=0.1, score=AbsoluteResidual(neg), constraint=PositiveInterval())
    cal0 = Dataset(cal.X[:20], cal.y[:20], REGRESSION)
    cal1 = Dataset(cal.X[20:], cal.y[20:], REGRESSION)
    out = run_infosp_plus(cal1, cal0, test, cfg, RngStream(13))
    assert out.diagnostics["tau0"] == 0.0
    assert np.array_equal(out.diagnostics["q_plus"], out.diagnostics["q0"])
    assert out.n_reported == 0


def test_infosp_plus_plus_shares_constructor_sets():
    gen = RngStream(14)
    cal, test, _ = _classification_bundle(15, n=120, m=80)
    cal0 = Dataset(cal.X[:60], cal.y[:60], CLASSIFICATION)
    cal1 = Dataset(cal.X[60:], cal.y[60:], CLASSIFICATION)
    cfg = ProcedureConfig(alpha=0.3, score=OneMinusProb(true_class_probs), constraint=MaxSize(2))
    plus = run_infosp_plus(cal1, cal0, test, cfg, gen.child(0))
    plusplus = run_infosp_plus_plus(None, cal1, cal0, test, cfg, gen.child(0))
    assert np.array_equal(plus.diagnostics["q_plus"], plusplus.diagnostics["q_plus"])
    common = set(map(int, plus.selected)) & set(map(int, plusplus.selected))
    d_plus, d_pp = (dict(zip(out.selected.tolist(), _rows(out.sets))) for out in (plus, plusplus))
    for j in common:
        assert d_plus[j] == d_pp[j]


def test_infosp_plus_plus_regression_trained_trust():
    cal, test, train, mu_hat = _regression_bundle(30, n=160, m=100, eta=1.0)
    cal0 = Dataset(cal.X[:80], cal.y[:80], REGRESSION)
    cal1 = Dataset(cal.X[80:], cal.y[80:], REGRESSION)
    cfg = ProcedureConfig(
        alpha=0.2, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval(), feature_degree=2
    )
    plus = run_infosp_plus(cal1, cal0, test, cfg, RngStream(31).child(0))
    plusplus = run_infosp_plus_plus(train, cal1, cal0, test, cfg, RngStream(31).child(0))
    # shared constructor: identical truncated levels, only the trust differs; the training rows
    # share the predictor call but take no part in tau0, q0 or q_plus
    assert plusplus.diagnostics["tau0"] == plus.diagnostics["tau0"]
    for key in ("q0", "q_plus"):
        assert plusplus.diagnostics[key].shape == (cal1.n + test.n,)
        assert np.array_equal(plus.diagnostics[key], plusplus.diagnostics[key])
    trust = plusplus.diagnostics["trust"]
    nonzero = trust[trust > 0]
    assert np.all((nonzero > 0) & (nonzero < 1))  # logistic range
    # empty-set units carry zero trust whatever the trained scorer says
    assert np.all(trust[plusplus.diagnostics["q_plus"] >= 1.0] == 0.0)
    assert _nonempty_and_admitted(plusplus, PositiveInterval())


def test_infoscop_containments():
    cal, test, _, mu_hat = _regression_bundle(16, n=120, m=80)
    cal_a = Dataset(cal.X[:60], cal.y[:60], REGRESSION)
    cal_b = Dataset(cal.X[60:], cal.y[60:], REGRESSION)
    cfg = ProcedureConfig(
        alpha=0.2,
        score=AbsoluteResidual(mu_hat),
        constraint=PositiveInterval(),
        screening_alpha=0.1,
    )
    out = run_infoscop(cal_a, cal_b, test, cfg, RngStream(17))
    survivors = set(map(int, out.diagnostics["survivors"]))
    assert survivors <= set(range(test.n))
    assert set(map(int, out.selected)) <= survivors


def test_infoscop_no_survivors():
    cal, test, _, mu_hat = _regression_bundle(18, n=40, m=30)
    cfg = ProcedureConfig(
        alpha=0.2,
        score=AbsoluteResidual(mu_hat),
        constraint=PositiveInterval(),
        screening_alpha=0.2,
        screening_threshold=1e6,
    )
    cal_a = Dataset(cal.X[:20], cal.y[:20], REGRESSION)
    cal_b = Dataset(cal.X[20:], cal.y[20:], REGRESSION)
    out = run_infoscop(cal_a, cal_b, test, cfg, RngStream(19))
    assert out.n_reported == 0


def _infoscop_reference(cal_a, cal_b, test, config, rng):
    """infoscop composed from the public methods: cfbh screening on cal_a and the test rows, then
    infosp on the cal_b rows at or above the survivors' smallest mu_hat and on the survivors."""
    screen_cfg = replace(config, alpha=config.screening_alpha, constraint=HalfLine(config.screening_threshold))
    survivors = run_cfbh(cal_a, test, screen_cfg, rng).selected
    none = IntervalBatch.from_radius(np.empty(0), np.empty(0))
    if survivors.size == 0:
        return survivors, none, None
    mu_hat = config.score.mu_hat
    tau = float(mu_hat(test.X)[survivors].min())
    keep = mu_hat(cal_b.X) >= tau
    if not keep.any():
        return survivors[:0], none, None
    stage2 = run_infosp(cal_b.take(keep), test.take(survivors), config)
    return survivors[stage2.selected], stage2.sets, tau


@st.composite
def _infoscop_case(draw):
    sizes = [draw(st.integers(1, 20)) for _ in range(3)]  # cal_a, cal_b, test
    blocks = []
    # a shift of -7 puts every cal_b prediction below every test one: stage two keeps no cal_b row
    for size, shift in zip(sizes, (0.0, draw(st.sampled_from([0.0, 0.0, -7.0])), 0.0)):
        mu = np.array(draw(st.lists(_GRID, min_size=size, max_size=size))) + shift  # heavy ties
        noise = np.array(draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))) / 8.0
        blocks.append(Dataset(mu[:, None], mu + noise, REGRESSION))
    threshold = draw(_GRID) + draw(st.sampled_from([0.0, 0.125]))  # on or between mu and label values
    cfg = ProcedureConfig(
        alpha=draw(st.sampled_from([0.1, 0.3, 0.6])),
        score=AbsoluteResidual(lambda X: np.asarray(X, dtype=float)[:, 0]),
        constraint=draw(st.sampled_from([PositiveInterval(), HalfLine(0.0)])),
        tie_mode=draw(st.sampled_from([TieMode.PER_UNIT, TieMode.DETERMINISTIC])),
        screening_alpha=draw(st.sampled_from([0.2, 0.5, 0.9])),
        screening_threshold=threshold,
    )
    return (*blocks, cfg, draw(st.integers(0, 3)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_infoscop_case())
def test_infoscop_equals_cfbh_then_infosp_on_the_kept_rows(case):
    """One pooled prediction gives what screening with run_cfbh and then run_infosp on the
    re-sliced kept rows give: the same units, sets and trust threshold, at every exit."""
    cal_a, cal_b, test, cfg, seed = case
    out = run_infoscop(cal_a, cal_b, test, cfg, RngStream(seed))
    selected, sets, tau = _infoscop_reference(cal_a, cal_b, test, cfg, RngStream(seed))
    assert np.array_equal(out.selected, selected)
    for column in ("lower", "upper"):
        assert np.array_equal(getattr(out.sets, column), getattr(sets, column))
    assert out.diagnostics.get("trust_threshold") == tau


# constants at the edges of the floats: signed zeros, the least subnormal, +-max and +-inf
_EDGE_CONSTANTS = [0.0, -0.0, 5e-324, -5e-324, _MAX, -_MAX, np.inf, -np.inf, -0.5, 0.25]
_PREDICTION = st.one_of(_GRID, st.sampled_from([5e-324, -5e-324, -0.0, 0.5, 0.25 + 2**-50]))


def _interval_methods(constraint, train, cal, cal0, test, config, rng):
    """Every method that takes ``constraint``, on the CLI's split of the calibration rows, by name;
    cfbh+ and cfbh++ take a HalfLine, or a TargetHalfLines with a finite midpoint."""
    runs = {
        "naive": lambda: run_naive(cal0, test, config),
        "infosp": lambda: run_infosp(cal0, test, config),
        "infosp+": lambda: run_infosp_plus(cal, cal0, test, config, rng),
        "infosp++": lambda: run_infosp_plus_plus(train, cal, cal0, test, config, rng),
        "infosp-modified": lambda: run_infosp_modified(cal, cal0, test, config),
        "infoscop": lambda: run_infoscop(cal0, cal, test, config, rng),
    }
    if isinstance(constraint, HalfLine) or (isinstance(constraint, TargetHalfLines)
                                            and np.isfinite((constraint.c_l + constraint.c_u) / 2.0)):
        runs["cfbh+"] = lambda: run_cfbh_plus(cal, test, config, rng)
        runs["cfbh++"] = lambda: run_cfbh_plus_plus(train, cal, test, config, rng)
    if isinstance(constraint, HalfLine):
        runs["cfbh"] = lambda: run_cfbh(cal, test, config, rng)
    return runs


@st.composite
def _edge_pipeline_case(draw, c):
    """Blocks (train, cal, cal0, test) whose feature is the row's index into a table of predictions,
    with heavy ties among them; test predictions may be NaN or infinite; an interval constraint at
    edge constant c."""
    sizes = [draw(st.integers(2, 12)) for _ in range(4)]
    finite = st.lists(_PREDICTION, min_size=sum(sizes[:3]), max_size=sum(sizes[:3]))
    wild = st.one_of(_PREDICTION, st.sampled_from([np.nan, np.inf, -np.inf]))
    table = np.array(draw(finite) + draw(st.lists(wild, min_size=sizes[3], max_size=sizes[3])))
    noise = draw(st.lists(st.sampled_from([0.0, 0.125, -0.25, 1.0]), min_size=table.size, max_size=table.size))
    data = Dataset(np.arange(table.size, dtype=float)[:, None], np.nan_to_num(table, posinf=0.0, neginf=0.0) + noise,
                   REGRESSION)
    ends = np.cumsum([0] + sizes)
    blocks = [data.take(slice(lo, hi)) for lo, hi in zip(ends, ends[1:])]
    c_other = draw(st.sampled_from(_EDGE_CONSTANTS + [None]))
    constraint = draw(st.sampled_from([
        HalfLine(c), TargetHalfLines(*sorted((c, c if c_other is None else c_other))),  # None: c_l == c_u
        LowerBoundedInterval(c), PositiveInterval(),
    ]))
    config = ProcedureConfig(
        alpha=draw(st.sampled_from([0.2, 0.5, 0.9])),
        score=AbsoluteResidual(lambda X: table[np.asarray(X, dtype=float)[:, 0].astype(int)]),
        constraint=constraint,
        tie_mode=draw(st.sampled_from(list(TieMode))),
        screening_alpha=draw(st.sampled_from([0.5, 0.9])),
        screening_threshold=draw(st.sampled_from(_EDGE_CONSTANTS)),
        optimizer=OptimizerConfig(max_iter=20),  # the trainers' fit is not under test
    )
    return (*blocks, config)


def _row_holds_an_admitted_finite_float(constraint, lo: float, up: float) -> bool:
    """A row [lo, up] holds a finite float, and every float in it meets the constraint."""
    if not max(lo, -_MAX) <= min(up, _MAX):
        return False
    if isinstance(constraint, PositiveInterval):
        return lo > 0.0
    if isinstance(constraint, LowerBoundedInterval):
        return lo >= constraint.c
    if isinstance(constraint, HalfLine):
        return lo > constraint.c0
    return up < constraint.c_l or lo > constraint.c_u


@pytest.mark.parametrize("c", _EDGE_CONSTANTS)
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(data=st.data())
def test_every_method_reports_only_nonempty_admitted_sets_at_edge_constants(c, data):
    """No method raises from its reported-set check for any interval constraint it takes: at
    constants 0.0, -0.0, 5e-324, +-max and +-inf, with c_l == c_u and infinite target ends, NaN and
    infinite test predictions and tied scores; each reported row holds a finite float and meets the
    constraint, and a test row with a non-finite prediction is never reported.  A trainer may find
    all its labels on one side (a half line past every label): that raises DegenerateLabelsError."""
    train, cal, cal0, test, config = data.draw(_edge_pipeline_case(c))
    constraint = config.constraint
    for method, run in _interval_methods(constraint, train, cal, cal0, test, config, RngStream(3)).items():
        try:
            out = run()
        except DegenerateLabelsError:
            assert method in ("cfbh++", "infosp++")
            continue
        assert out.sets.nonempty.all() and constraint.admits(out.sets).all()
        rows = zip(out.sets.lower.tolist(), out.sets.upper.tolist())
        assert all(_row_holds_an_admitted_finite_float(constraint, lo, up) for lo, up in rows), method
        assert np.isfinite(config.score.predict(test.X)[out.selected]).all(), method


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_every_class_method_reports_only_nonempty_admitted_sets(data):
    """The class counterpart: no method raises from its reported-set check under MaxSize(k0) or
    SingletonClass(y0), k0 and y0 up to K + 1, with K = 1 to 4, tied probabilities and NaN or
    infinite test probabilities; each reported row has a member and meets the constraint, and a
    test row with a non-finite probability is never reported."""
    k = data.draw(st.integers(1, 4), "K")
    sizes = [data.draw(st.integers(2, 10)) for _ in range(3)]  # cal, cal0, test
    weights = st.lists(st.integers(0, 2), min_size=k, max_size=k).filter(any)  # few values: heavy ties
    rows = data.draw(st.lists(weights, min_size=sum(sizes), max_size=sum(sizes)), "weights")
    table = np.array(rows, dtype=float) / np.sum(rows, axis=1, keepdims=True)
    wild = data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, None]), min_size=sizes[2],
                              max_size=sizes[2]), "wild")
    for row, value in zip(table[sum(sizes[:2]):], wild):
        if value is not None:
            row[data.draw(st.integers(0, k - 1))] = value
    y = np.array(data.draw(st.lists(st.integers(1, k), min_size=table.shape[0], max_size=table.shape[0])))
    full = Dataset(np.arange(table.shape[0], dtype=float)[:, None], y, CLASSIFICATION)
    cal, cal0, test = full.take(slice(0, sizes[0])), full.take(slice(sizes[0], sum(sizes[:2]))), \
        full.take(slice(sum(sizes[:2]), None))
    constraint = data.draw(st.sampled_from([MaxSize(j) for j in range(1, k + 2)] +
                                           [SingletonClass(j) for j in range(1, k + 2)]))
    config = ProcedureConfig(alpha=data.draw(st.sampled_from([0.2, 0.5, 0.9])), score=OneMinusProb(StoredProbs(table)),
                             constraint=constraint, tie_mode=data.draw(st.sampled_from(list(TieMode))))
    rng = RngStream(3)
    runs = {
        "naive": lambda: run_naive(cal0, test, config),
        "infosp": lambda: run_infosp(cal0, test, config),
        "infosp+": lambda: run_infosp_plus(cal, cal0, test, config, rng),
        "infosp++": lambda: run_infosp_plus_plus(None, cal, cal0, test, config, rng),
        "infosp-modified": lambda: run_infosp_modified(cal, cal0, test, config),
    }
    if isinstance(constraint, SingletonClass) or constraint.k0 == 1:
        runs["selective classification"] = lambda: run_selective_classification(cal, test, config)
    for method, run in runs.items():
        out = run()
        assert out.sets.nonempty.all() and constraint.admits(out.sets).all()
        for row in _rows(out.sets):
            if isinstance(constraint, MaxSize):
                assert 1 <= len(row) <= constraint.k0, method
            else:
                assert row == (constraint.y0,), method
        assert np.isfinite(table[sum(sizes[:2]) + out.selected]).all(), method


@pytest.mark.parametrize("block", ["cal0", "cal"])
@pytest.mark.parametrize("procedure", ["naive", "infosp", "infosp+", "infosp++", "infosp-modified"])
def test_a_non_finite_probability_off_the_label_raises_in_every_calibration_block(procedure, block):
    """A calibration row whose one NaN probability sits at a class other than its label has a
    finite label score, but no finite set; it raises in every calibration block, as one at the
    label does.  naive and infosp calibrate on cal0 and cal together."""
    gen = np.random.default_rng(4)
    table = gen.dirichlet(np.ones(4), size=110)
    y = gen.integers(1, 5, size=110)
    data = Dataset(np.arange(110, dtype=float)[:, None], y, CLASSIFICATION)
    cal0, cal, test = data.take(slice(0, 40)), data.take(slice(40, 80)), data.take(slice(80, None))
    row = 3 if block == "cal0" else 43
    table[row, y[row] % 4] = np.nan  # class y % 4 + 1, never the label
    cfg = ProcedureConfig(alpha=0.3, score=OneMinusProb(StoredProbs(table)), constraint=MaxSize(2))
    runs = {
        "naive": lambda: run_naive(data.take(slice(0, 80)), test, cfg),
        "infosp": lambda: run_infosp(data.take(slice(0, 80)), test, cfg),
        "infosp+": lambda: run_infosp_plus(cal, cal0, test, cfg, RngStream(5)),
        "infosp++": lambda: run_infosp_plus_plus(None, cal, cal0, test, cfg, RngStream(5)),
        "infosp-modified": lambda: run_infosp_modified(cal, cal0, test, cfg),
    }
    with pytest.raises(ValueError, match="calibration scores must be finite"):
        runs[procedure]()


def test_infosp_modified_sets_nested_in_plus_on_shared_u():
    hits = 0
    for seed in range(25):
        cal, test, _, mu_hat = _regression_bundle(400 + seed, n=200, m=120, eta=1.0)
        cal0 = Dataset(cal.X[:100], cal.y[:100], REGRESSION)
        cal1 = Dataset(cal.X[100:], cal.y[100:], REGRESSION)
        cfg = ProcedureConfig(
            alpha=0.1,
            score=AbsoluteResidual(mu_hat),
            constraint=PositiveInterval(),
            tie_mode=TieMode.SHARED_U,
        )
        plain = run_infosp_modified(cal1, cal0, test, cfg)
        trunc = run_infosp_plus(cal1, cal0, test, cfg, RngStream(500 + seed))
        trunc_sets = dict(zip(trunc.selected.tolist(), _rows(trunc.sets)))
        ok = all(trunc_sets.get(j) == row for j, row in zip(plain.selected.tolist(), _rows(plain.sets)))
        hits += ok
    assert hits >= 20  # asymptotic containment; small-sample slack


def test_selective_classification_modes():
    cal, test, _ = _classification_bundle(20, n=100, m=60)
    cfg_t = ProcedureConfig(alpha=0.2, score=OneMinusProb(true_class_probs), constraint=SingletonClass(2))
    out_t = run_selective_classification(cal, test, cfg_t)
    assert _rows(out_t.sets) == [(2,)] * out_t.n_reported
    outside = replace(cfg_t, constraint=SingletonClass(5), alpha=0.9)  # no class 5 among K = 4: every set is empty
    assert run_selective_classification(cal, test, outside).n_reported == 0
    cfg_a = ProcedureConfig(alpha=0.2, score=OneMinusProb(true_class_probs), constraint=MaxSize(1))
    out_a = run_selective_classification(cal, test, cfg_a)
    top = np.argmax(true_class_probs(test.X), axis=1) + 1
    assert _rows(out_a.sets) == [(int(top[j]),) for j in out_a.selected]
    with pytest.raises(ConfigError):
        run_selective_classification(
            cal, test, ProcedureConfig(alpha=0.2, score=OneMinusProb(true_class_probs), constraint=MaxSize(2))
        )


def test_config_needs_a_score_and_a_constraint():
    with pytest.raises(ConfigError, match="score and a constraint"):
        ProcedureConfig(alpha=0.1, score=None, constraint=PositiveInterval())
    with pytest.raises(ConfigError, match="score and a constraint"):
        ProcedureConfig(alpha=0.1, score=AbsoluteResidual(lambda X: X[:, 0]), constraint=None)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_lam_must_be_finite_and_positive_in_the_config_and_the_trainer(lam):
    """The CLI's rule holds in the library too: before, NaN and inf gave back an unfit scorer."""
    with pytest.raises(ConfigError, match="lam must be finite and > 0"):
        ProcedureConfig(alpha=0.1, score=AbsoluteResidual(lambda X: X[:, 0]), constraint=PositiveInterval(), lam=lam)
    X = np.linspace(-1.0, 1.0, 8)[:, None]
    with pytest.raises(ValueError, match="lam must be finite and > 0"):
        train_trust_classifier(X, np.where(X[:, 0] > 0.3, 1, -1), lam=lam)


@pytest.mark.parametrize("degree", [0, -1, 1.5])
def test_feature_degree_must_be_a_positive_integer_in_the_config_and_the_trainer(degree):
    """Before, 0 and -1 failed inside np.hstack ("need at least one array") and 1.5 with a TypeError."""
    score, X = AbsoluteResidual(lambda X: X[:, 0]), np.linspace(-1.0, 1.0, 8)[:, None]
    labels = np.where(X[:, 0] > 0.3, 1, -1)
    with pytest.raises(ConfigError, match="feature_degree must be an integer >= 1"):
        ProcedureConfig(alpha=0.1, score=score, constraint=PositiveInterval(), feature_degree=degree)
    with pytest.raises(ValueError, match="feature_degree must be an integer >= 1"):
        train_trust_classifier(X, labels, feature_degree=degree)
    assert ProcedureConfig(alpha=0.1, score=score, constraint=PositiveInterval(), feature_degree=1).feature_degree == 1
    assert train_trust_classifier(X, labels, feature_degree=1).weights.shape == (1,)


def test_infosp_plus_keeps_its_bits_on_the_threaded_paths(monkeypatch):
    """At n = m just above two chunks of keys, the rank searches and the score radii run as one chunk with
    one usable CPU and in threads with 2 and 9; the selection, the reported sets and the p-values are the
    same arrays each time."""
    size = 140_000
    assert size > 2 * scip.core._CHUNK_KEYS
    data, mu_hat = gen_regression(3 * size, 0.5, RngStream(63))
    cal, cal0, test = (Dataset(data.X[i::3], data.y[i::3], REGRESSION) for i in range(3))
    cfg = ProcedureConfig(alpha=0.2, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval())
    runs = []
    for cpus in (1, 2, 9):
        monkeypatch.setattr(scip.core, "_usable_cpus", lambda: cpus)
        out = run_infosp_plus(cal, cal0, test, cfg, RngStream(64))
        runs.append((out.selected, out.sets.lower, out.sets.upper, out.diagnostics["result"].pvalues))
    assert runs[0][0].size > 0 and cal.n == test.n == size
    for run in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(run, runs[0]))


def _every_method(train, cal, cal0, cal1, test, cls_cal, cls_test, config):
    """The eight methods, and selective classification on (cls_cal, cls_test) under SingletonClass(2)
    and MaxSize(1), by name, each a thunk."""
    fixed = replace(config, score=OneMinusProb(true_class_probs), constraint=SingletonClass(2))
    return {
        **_eight_methods(train, cal, cal0, cal1, test, config, RngStream(5)),
        "fixed class": lambda: run_selective_classification(cls_cal, cls_test, fixed),
        "argmax class": lambda: run_selective_classification(cls_cal, cls_test, replace(fixed, constraint=MaxSize(1))),
    }


def _reported(run, order=None):
    """Each reported set by its test row (``order`` maps the rows of a permuted run back), or the
    trainer's refusal of labels all on one side, which depends on the fixed training rows only."""
    try:
        out = run()
    except DegenerateLabelsError:
        return "degenerate"
    rows = out.selected if order is None else order[out.selected]
    return dict(zip(rows.tolist(), _rows(out.sets)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_every_method_follows_its_test_rows_and_ignores_the_calibration_order(data):
    """Permuting the test rows permutes each method's selection and reported sets, and permuting the
    rows within cal, cal0 and cal1 changes neither, for the eight methods and selective
    classification under DETERMINISTIC and SHARED_U ties.  PER_UNIT is left out: its tie draws
    follow the test rows' order.  The training rows stay fixed, since their order moves the trained
    trust's bits through the pairwise sums.  infosp's p-values do not depend on alpha, so its
    selections are nested as alpha grows."""
    n, m = data.draw(st.integers(8, 80), "n"), data.draw(st.integers(4, 60), "m")
    seed = data.draw(st.integers(0, 999), "seed")
    reg, mu_hat = gen_regression(2 * n + m, data.draw(st.sampled_from([0.2, 0.5, 1.0]), "eta"), RngStream(seed))
    cal, test, train = reg.take(slice(0, n)), reg.take(slice(n, n + m)), reg.take(slice(n + m, None))
    cls_cal, cls_test, _ = _classification_bundle(seed, n, m)
    config = ProcedureConfig(
        alpha=data.draw(st.sampled_from([0.1, 0.2, 0.4]), "alpha"), score=AbsoluteResidual(mu_hat),
        constraint=PositiveInterval(), screening_alpha=0.2,
        tie_mode=data.draw(st.sampled_from([TieMode.DETERMINISTIC, TieMode.SHARED_U]), "ties"),
    )
    halves = (slice(0, n // 2), slice(n // 2, None))
    gen = np.random.default_rng(data.draw(st.integers(0, 999), "permutation seed"))
    p_test, p_cal, p0, p1 = (gen.permutation(k) for k in (m, n, n // 2, n - n // 2))
    original = _every_method(train, cal, *(cal.take(h) for h in halves), test, cls_cal, cls_test, config)
    permuted = _every_method(
        train, cal.take(p_cal), cal.take(halves[0]).take(p0), cal.take(halves[1]).take(p1), test.take(p_test),
        cls_cal.take(p_cal), cls_test.take(p_test), config,
    )
    for method, run in original.items():
        assert _reported(permuted[method], p_test) == _reported(run), method
    selections = [set(run_infosp(cal, test, replace(config, alpha=a)).selected.tolist()) for a in (0.05, 0.1, 0.3)]
    assert all(small <= large for small, large in zip(selections, selections[1:]))


def test_same_seed_same_output():
    cal, test, train, mu_hat = _regression_bundle(21)
    cfg = ProcedureConfig(alpha=0.15, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval())
    cal0 = Dataset(cal.X[:40], cal.y[:40], REGRESSION)
    cal1 = Dataset(cal.X[40:], cal.y[40:], REGRESSION)
    a = run_infosp_plus(cal1, cal0, test, cfg, RngStream(22).child(3))
    b = run_infosp_plus(cal1, cal0, test, cfg, RngStream(22).child(3))
    assert np.array_equal(a.selected, b.selected)
    assert _rows(a.sets) == _rows(b.sets)
    assert np.array_equal(a.diagnostics["result"].pvalues, b.diagnostics["result"].pvalues)


def test_reported_set_check_rejects_empty_rows():
    sets = IntervalBatch(np.array([1.0, 2.0]), np.array([2.0, 1.0]))  # row 1 is empty
    with pytest.raises(ConstraintViolationError, match="unit 7: empty set"):
        _checked_output(np.array([3, 7]), sets, PositiveInterval(), {})
    member = np.array([[True, False, False], [False, False, False]])
    with pytest.raises(ConstraintViolationError, match="unit 7: empty set"):
        _checked_output(np.array([3, 7]), ClassBatch(member), MaxSize(2), {})


def test_reported_set_check_rejects_inadmissible_rows():
    sets = IntervalBatch(np.array([1.0, -0.5]), np.array([2.0, 1.0]))
    with pytest.raises(ConstraintViolationError, match="unit 7: reported set violates"):
        _checked_output(np.array([3, 7]), sets, PositiveInterval(), {})
    member = np.array([[True, False, False], [True, True, True]])
    with pytest.raises(ConstraintViolationError, match="unit 7: reported set violates"):
        _checked_output(np.array([3, 7]), ClassBatch(member), MaxSize(2), {})
    out = _checked_output(np.array([3]), ClassBatch(member[:1]), MaxSize(2), {})
    assert out.selected.tolist() == [3] and _rows(out.sets) == [(1,)]
