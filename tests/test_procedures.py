import numpy as np
import pytest

from scip.conformal import AbsoluteResidual, OneMinusProb
from scip.core import (
    CLASSIFICATION,
    ClassBatch,
    ClassSet,
    ConfigError,
    ConstraintViolationError,
    Dataset,
    HalfLine,
    IntervalBatch,
    MaxSize,
    PositiveInterval,
    REGRESSION,
    RngStream,
    SingletonClass,
    TargetHalfLines,
    interval,
)
from scip.procedures import (
    ProcedureConfig,
    _checked_output,
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
from scip.selection import TieMode
from scip.simgen import MuHatEta, gen_regression, true_class_probs

from conformal_reference import conformal_set


def _regression_bundle(seed, n=80, m=50, eta=0.5):
    data, mu_hat = gen_regression(2 * n + m, eta, RngStream(seed))
    cal = Dataset(data.X[:n], data.y[:n], REGRESSION)
    test = Dataset(data.X[n : n + m], data.y[n : n + m], REGRESSION)
    train = Dataset(data.X[n + m :], data.y[n + m :], REGRESSION)
    return cal, test, train, mu_hat


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
    assert all(PositiveInterval().contains(pset) and not pset.is_empty for _, pset in out.reported)


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
    p = out.diagnostics["pvalues"][0]
    assert (p <= 0.3) == (out.selected.size == 1)


def test_two_sided_direction_and_sets():
    cal, test, train, mu_hat = _regression_bundle(5)
    constraint = TargetHalfLines(-0.5, 0.5)
    cfg = ProcedureConfig(alpha=0.2, score=AbsoluteResidual(mu_hat), constraint=constraint)
    out = run_cfbh_plus(cal, test, cfg, RngStream(6))
    mu_test = mu_hat(test.X)
    for j, pset in out.reported:
        assert constraint.contains(pset)
        iv = pset.intervals[0]
        if np.isinf(iv.upper):
            assert mu_test[j] >= 0.0
        else:
            assert mu_test[j] < 0.0


def test_midpoint_tie_goes_to_upper_half_line():
    """Directional constructor: mu_hat exactly at (c_l + c_u)/2 reports (c_u, inf)."""
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
    above = interval(2.0, np.inf, lower_open=True, upper_open=True)
    expected = {0: above, 1: above, 2: interval(-np.inf, 0.0, lower_open=True, upper_open=True)}
    for out in (
        run_cfbh_plus(cal, test, cfg, RngStream(40)),
        run_cfbh_plus_plus(train, cal, test, cfg, RngStream(40)),
    ):
        assert dict(out.reported) == expected


def test_argmax_ties_go_to_smallest_index():
    table = np.array(
        [[0.9, 0.05, 0.05], [0.5, 0.3, 0.2], [0.4, 0.4, 0.2], [1 / 3, 1 / 3, 1 / 3], [0.2, 0.4, 0.4]]
    )
    p_hat = lambda X: table[np.asarray(X, dtype=int).reshape(-1)]
    cal = Dataset(np.zeros((20, 1)), np.ones(20, dtype=int), CLASSIFICATION)  # no null unit
    test = Dataset(np.arange(1, 5, dtype=float)[:, None], None, CLASSIFICATION)
    cfg = ProcedureConfig(alpha=0.5, score=OneMinusProb(p_hat), constraint=MaxSize(1))
    out = run_selective_classification(cal, test, cfg)
    assert [(j, pset.members) for j, pset in out.reported] == [(0, (1,)), (1, (1,)), (2, (1,)), (3, (2,))]


def test_cfbh_plus_plus_runs_and_controls_shape():
    cal, test, train, mu_hat = _regression_bundle(7)
    cfg = ProcedureConfig(
        alpha=0.2, score=AbsoluteResidual(mu_hat), constraint=HalfLine(0.0), feature_degree=2
    )
    out = run_cfbh_plus_plus(train, cal, test, cfg, RngStream(8))
    assert all(not pset.is_empty for _, pset in out.reported)
    assert out.diagnostics["scorer"].loss_trace.size >= 1


def test_infosp_hand_fixture():
    """Three test units with hand-computed adjusted levels and BH threshold."""
    mu_vals = {0.0: 1.0}
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


def test_infosp_never_reports_nan_probability_rows():
    cal, test, _ = _classification_bundle(20, n=100, m=60)
    table = true_class_probs(np.vstack([cal.X, test.X]))
    p_hat = lambda X: table[np.asarray(X, dtype=int)[:, 0]]
    ids = np.arange(cal.n + test.n, dtype=float)[:, None]  # each row's features are its table index
    cal_ids = Dataset(ids[: cal.n], cal.y, CLASSIFICATION)
    test_ids = Dataset(ids[cal.n :], test.y, CLASSIFICATION)
    cfg = ProcedureConfig(alpha=0.3, score=OneMinusProb(p_hat), constraint=MaxSize(2))
    nan_rows = [0, 10, 20, 30]
    assert set(nan_rows) <= set(run_infosp(cal_ids, test_ids, cfg).selected.tolist())
    table[cal.n + np.array(nan_rows)] = np.nan
    out = run_infosp(cal_ids, test_ids, cfg)
    assert np.all(out.diagnostics["q"][nan_rows] == 1.0)
    assert out.n_reported > 0
    assert not set(nan_rows) & set(out.selected.tolist())


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
    assert all(PositiveInterval().contains(pset) and not pset.is_empty for _, pset in out.reported)
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
        cal0_scores = score.eval(cal0.X, cal0.y)
        q_plus = out.diagnostics["q_plus"][cal1.n :]
        for j, pset in out.reported:
            assert pset == conformal_set(test.X[j], cal0_scores, score, q_plus[j])


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
    d_plus, d_pp = dict(plus.reported), dict(plusplus.reported)
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
    # shared constructor: identical truncated levels, only the trust differs
    assert np.array_equal(plus.diagnostics["q_plus"], plusplus.diagnostics["q_plus"])
    trust = plusplus.diagnostics["trust"]
    nonzero = trust[trust > 0]
    assert np.all((nonzero > 0) & (nonzero < 1))  # logistic range
    # empty-set units carry zero trust whatever the trained scorer says
    assert np.all(trust[plusplus.diagnostics["q_plus"] >= 1.0] == 0.0)
    assert all(
        PositiveInterval().contains(pset) and not pset.is_empty for _, pset in plusplus.reported
    )


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
        trunc_sets = dict(trunc.reported)
        ok = all(j in trunc_sets and trunc_sets[j] == pset for j, pset in plain.reported)
        hits += ok
    assert hits >= 20  # asymptotic containment; small-sample slack


def test_selective_classification_modes():
    cal, test, _ = _classification_bundle(20, n=100, m=60)
    cfg_t = ProcedureConfig(alpha=0.2, score=OneMinusProb(true_class_probs), constraint=SingletonClass(2))
    out_t = run_selective_classification(cal, test, cfg_t)
    assert all(pset.members == (2,) for _, pset in out_t.reported)
    cfg_a = ProcedureConfig(alpha=0.2, score=OneMinusProb(true_class_probs), constraint=MaxSize(1))
    out_a = run_selective_classification(cal, test, cfg_a)
    top = np.argmax(true_class_probs(test.X), axis=1) + 1
    assert all(pset.members == (int(top[j]),) for j, pset in out_a.reported)
    with pytest.raises(ConfigError):
        run_selective_classification(
            cal, test, ProcedureConfig(alpha=0.2, score=OneMinusProb(true_class_probs), constraint=MaxSize(2))
        )


def test_same_seed_same_output():
    cal, test, train, mu_hat = _regression_bundle(21)
    cfg = ProcedureConfig(alpha=0.15, score=AbsoluteResidual(mu_hat), constraint=PositiveInterval())
    cal0 = Dataset(cal.X[:40], cal.y[:40], REGRESSION)
    cal1 = Dataset(cal.X[40:], cal.y[40:], REGRESSION)
    a = run_infosp_plus(cal1, cal0, test, cfg, RngStream(22).child(3))
    b = run_infosp_plus(cal1, cal0, test, cfg, RngStream(22).child(3))
    assert np.array_equal(a.selected, b.selected)
    assert a.reported == b.reported
    assert np.array_equal(a.diagnostics["pvalues"], b.diagnostics["pvalues"])


def test_reported_set_check_rejects_empty_rows():
    closed = np.zeros(2, dtype=bool)
    sets = IntervalBatch(np.array([1.0, 2.0]), np.array([2.0, 1.0]), closed, closed)  # row 1 is empty
    with pytest.raises(ConstraintViolationError, match="unit 7: empty set"):
        _checked_output(np.array([3, 7]), sets, PositiveInterval(), {})
    member = np.array([[True, False, False], [False, False, False]])
    with pytest.raises(ConstraintViolationError, match="unit 7: empty set"):
        _checked_output(np.array([3, 7]), ClassBatch(member), MaxSize(2), {})


def test_reported_set_check_rejects_inadmissible_rows():
    closed = np.zeros(2, dtype=bool)
    sets = IntervalBatch(np.array([1.0, -0.5]), np.array([2.0, 1.0]), closed, closed)
    with pytest.raises(ConstraintViolationError, match="unit 7: reported set violates"):
        _checked_output(np.array([3, 7]), sets, PositiveInterval(), {})
    member = np.array([[True, False, False], [True, True, True]])
    with pytest.raises(ConstraintViolationError, match="unit 7: reported set violates"):
        _checked_output(np.array([3, 7]), ClassBatch(member), MaxSize(2), {})
    out = _checked_output(np.array([3]), ClassBatch(member[:1]), MaxSize(2), {})
    assert out.reported == ((3, ClassSet((1,))),)
