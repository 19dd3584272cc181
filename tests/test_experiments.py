import math
from dataclasses import replace

import numpy as np
import pytest

import scip.experiments
import scip.procedures
from scip.conformal import AbsoluteResidual
from scip.core import ConfigError, Dataset, REGRESSION, RngStream, TargetHalfLines
from scip.experiments import (
    METHODS,
    check_selective_classification,
    classification_replication,
    regression_replication,
    run_equivalence_checks,
    synthetic_replication,
)
from scip.procedures import ProcedureConfig, run_cfbh_plus, run_cfbh_plus_plus
from scip.selection import ScoredPool, TieMode, bh_select, counting_knockoff_select, generalized_conformal_pvalues
from scip.trust import OptimizerConfig


def test_method_registry_is_stable():
    # child-stream keys are part of the reproducibility contract
    assert {name: method.stream for name, method in METHODS.items()} == {
        "naive": 0, "cfbh": 1, "cfbh+": 2, "cfbh++": 3,
        "infosp": 4, "infosp+": 5, "infosp++": 6, "infoscop": 7,
    }


# feature rows each method's predictor reads in one replication at n = m = 200 (halves of 100),
# seed 3, all in one predictor call: the training rows (cfbh++, regression infosp++), the
# calibration rows and the test rows
_PREDICTED_ROWS = {
    "regression": {
        "naive": 400, "cfbh": 400, "cfbh+": 400, "cfbh++": 600,
        "infosp": 400, "infosp+": 400, "infosp++": 600, "infoscop": 400,
    },
    "classification": {"naive": 400, "infosp": 400, "infosp+": 400, "infosp++": 400},
}


@pytest.mark.parametrize("study", sorted(_PREDICTED_ROWS))
def test_each_method_predicts_each_row_once(study, monkeypatch):
    """Scores, constraints and set constructors read one prediction per row, from one predictor
    call per method: no second predictor pass."""
    name = "gen_regression" if study == "regression" else "gen_classification"
    generate, rows, calls = getattr(scip.experiments, name), [], []

    def counted(*args, **kwargs):
        data, predict = generate(*args, **kwargs)

        def counting(X):
            rows[-1] += np.shape(X)[0]
            calls[-1] += 1
            return predict(X)

        return data, counting

    monkeypatch.setattr(scip.experiments, name, counted)
    for method, expected in _PREDICTED_ROWS[study].items():
        rows.append(0)
        calls.append(0)
        if study == "regression":
            regression_replication([method], 200, 200, 0.5, 0.2, RngStream(3))
        else:
            classification_replication([method], 200, 200, 0.2, RngStream(3))
        assert rows[-1] == expected, method
        assert calls[-1] == 1, method


def _no_method_may_run(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a method ran before the method names were checked")

    monkeypatch.setattr(scip.procedures, "run_naive", fail)


def test_regression_unknown_method_is_a_config_error(monkeypatch):
    _no_method_may_run(monkeypatch)
    for methods in (["foo"], ["naive", "foo"]):
        with pytest.raises(ConfigError, match="'foo'"):
            regression_replication(methods, 20, 20, 0.0, 0.1, RngStream(1))


def test_classification_unknown_method_is_a_config_error(monkeypatch):
    _no_method_may_run(monkeypatch)
    for methods in (["foo"], ["naive", "cfbh"]):
        with pytest.raises(ConfigError, match="classification study"):
            classification_replication(methods, 20, 20, 0.1, RngStream(1))


def test_synthetic_unknown_method_is_a_config_error(monkeypatch):
    _no_method_may_run(monkeypatch)
    with pytest.raises(ConfigError, match="dti-like study"):
        synthetic_replication(["naive", "foo"], "dti-like", 20, 20, 0.1, RngStream(1))
    # infoscop screens on a real-valued prediction: dti-like only
    with pytest.raises(ConfigError, match="cifar-like study"):
        synthetic_replication(["naive", "infoscop"], "cifar-like", 20, 20, 0.1, RngStream(1))


def test_nan_split_ratio_is_a_config_error():
    for ratio in (float("nan"), 0.0, 1.0):
        with pytest.raises(ConfigError, match="split ratio"):
            classification_replication(["naive"], 20, 20, 0.1, RngStream(1), split_ratio=ratio)


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    return arr.mean(), arr.std(ddof=1) / math.sqrt(arr.size)


def test_two_sided_cfbh_plus_fcr_and_directions():
    """Directional reporting keeps both the miss rate and wrong-direction rate in check."""
    alpha, reps = 0.1, 150
    constraint = TargetHalfLines(-0.7, 0.7)
    fcps, wrong_dir, n_sel = [], 0, 0
    for rep in range(reps):
        gen = RngStream(2211).child(rep, 0).generator()
        n, m = 400, 400
        x = gen.standard_normal(n + m)
        mu = 1.6 * x  # strong signal either side of the indifference band
        y = mu + 0.5 * gen.standard_normal(n + m)
        mu_hat = lambda X: 1.6 * (np.asarray(X, dtype=float).reshape(-1))
        cal = Dataset(x[:n, None], y[:n], REGRESSION)
        test = Dataset(x[n:, None], y[n:], REGRESSION)
        cfg = ProcedureConfig(alpha=alpha, score=AbsoluteResidual(mu_hat), constraint=constraint)
        out = run_cfbh_plus(cal, test, cfg, RngStream(2211).child(rep, 1))
        y_sel = test.y[out.selected]
        n_sel += out.n_reported
        miss = out.n_reported - int(np.count_nonzero(out.sets.covers(y_sel)))
        went_up = np.isinf(out.sets.upper)
        truly_up = y_sel > 0.0  # sign of Y relative to the band midpoint
        wrong_dir += int(np.count_nonzero(went_up != truly_up))
        fcps.append(miss / max(1, out.n_reported))
    fcr, se = _mean_se(fcps)
    assert fcr <= alpha + 3 * se
    # reported directions match the label's side of the midpoint almost always
    assert n_sel > 0
    dir_rate = 1.0 - wrong_dir / n_sel
    assert dir_rate >= 1 - alpha - 3 * math.sqrt(alpha * (1 - alpha) / n_sel)


def test_cfbh_plus_plus_reduces_to_cfbh_plus_when_monotone():
    """With a 1-d monotone model the trained trust is an increasing remap of mu_hat."""
    agree = 0
    reps = 30
    for rep in range(reps):
        gen = RngStream(3311).child(rep, 0).generator()
        n, m = 300, 200
        x = gen.standard_normal(2 * n + m)
        y = x + 0.4 * gen.standard_normal(2 * n + m)
        mu_hat = lambda X: np.asarray(X, dtype=float).reshape(-1)
        train = Dataset(x[:n, None], y[:n], REGRESSION)
        cal = Dataset(x[n : 2 * n, None], y[n : 2 * n], REGRESSION)
        test = Dataset(x[2 * n :, None], y[2 * n :], REGRESSION)
        from scip.core import HalfLine

        cfg = ProcedureConfig(
            alpha=0.1,
            score=AbsoluteResidual(mu_hat),
            constraint=HalfLine(0.0),
            feature_degree=1,
            optimizer=OptimizerConfig(max_iter=300, grad_tol=1e-6),
        )
        u_rng = RngStream(3311).child(rep, 1)
        base = run_cfbh_plus(cal, test, cfg, u_rng)
        plus = run_cfbh_plus_plus(train, cal, test, cfg, u_rng)
        agree += np.array_equal(base.selected, plus.selected)
    assert agree >= int(0.9 * reps)


def test_tie_heavy_instance_paths_agree():
    """All trust scores equal: deterministic BH and the knockoff scan still coincide."""
    pool = ScoredPool(np.full(12, 0.5), np.array([True] * 7 + [False] * 5), np.full(9, 0.5))
    for alpha in (0.05, 0.3, 0.6):
        det = bh_select(generalized_conformal_pvalues(pool, TieMode.DETERMINISTIC), alpha)
        ck = counting_knockoff_select(pool, alpha, TieMode.DETERMINISTIC)
        assert np.array_equal(det.selected, ck.selected)


def test_equivalence_checks_report_counterexamples():
    reports = run_equivalence_checks(seed=5150, instances=40)
    assert all(r.passed for r in reports)
    assert all(r.instances == 40 for r in reports)


def test_selective_classification_check_reports_counterexamples(monkeypatch):
    """A selective classification that drops its first selected unit fails the check against the
    FASI and Zhao-Su scans; each failure names its instance and variant."""
    run = scip.experiments.run_selective_classification

    def drop_first(cal, test, config):
        out = run(cal, test, config)
        return replace(out, selected=out.selected[1:], sets=out.sets.take(slice(1, None)))

    monkeypatch.setattr(scip.experiments, "run_selective_classification", drop_first)
    report = check_selective_classification(RngStream(5150), 40)
    assert not report.passed
    assert all(f["instance"] in range(40) for f in report.failures)
    assert {f["variant"] for f in report.failures} == {"target", "argmax"}


def test_synthetic_zero_feasible_fraction_reports_nothing():
    for profile in ("dti-like", "cifar-like"):
        methods = ("naive", "infosp", "infosp+") + (("infoscop",) if profile == "dti-like" else ())
        rows = synthetic_replication(
            methods, profile, 200, 150, 0.2, RngStream(4411).child(hash(profile) % 97),
            feasible_frac=0.0,
        )
        assert all(rows[k].n_selected == 0 for k in methods)


def test_synthetic_cifar_like_power_ordering():
    reps = 100
    diffs, infosp_fcp = [], []
    for rep in range(reps):
        rows = synthetic_replication(
            ("infosp", "infosp+"), "cifar-like", 1000, 200, 0.1, RngStream(5511).child(rep)
        )
        diffs.append(rows["infosp+"].cpow - rows["infosp"].cpow)
        infosp_fcp.append(rows["infosp"].fcp)
    mean, se = _mean_se(diffs)
    assert mean >= -se
    assert np.mean(infosp_fcp) <= 0.1  # the slack infosp+ converts into reports


def test_synthetic_dti_like_fcr_pattern():
    """Median-threshold screening study: naive inflates, the adjusted method holds."""
    reps = 120
    naive_fcp, plus_fcp = [], []
    for rep in range(reps):
        rows = synthetic_replication(
            ("naive", "infosp+"), "dti-like", 400, 300, 0.2,
            RngStream(6611).child(rep), feasible_frac=0.5,
        )
        naive_fcp.append(rows["naive"].fcp)
        plus_fcp.append(rows["infosp+"].fcp)
    naive_fcr, naive_se = _mean_se(naive_fcp)
    plus_fcr, plus_se = _mean_se(plus_fcp)
    assert naive_fcr > 0.2 + 3 * naive_se
    assert plus_fcr <= 0.2 + 3 * plus_se


def test_infoscop_screening_level_sweep_controls_fcr():
    reps, alpha = 80, 0.1
    for level in (0.05, 0.1, 0.2):
        fcps = []
        for rep in range(reps):
            rows = regression_replication(
                ("infoscop",), 500, 500, 1.0, alpha,
                RngStream(8811).child(int(level * 100), rep), screening_alpha=level,
            )
            fcps.append(rows["infoscop"].fcp)
        mean, se = _mean_se(fcps)
        assert mean <= alpha + 3 * se


def test_selective_classification_hopeless_scores_select_nothing():
    from scip.core import CLASSIFICATION, SingletonClass
    from scip.procedures import run_selective_classification
    from scip.conformal import OneMinusProb

    # the target-class probability of every test unit sits below every
    # wrong-class calibration probability, so no quotient ever clears alpha
    n, m = 40, 10
    cal_p = np.column_stack([np.full(n, 0.8), np.full(n, 0.2)])
    test_p = np.column_stack([np.full(m, 0.1), np.full(m, 0.9)])
    table = np.vstack([cal_p, test_p])
    p_hat = lambda X: table[np.asarray(X, dtype=float)[:, 0].astype(int)]
    idx = np.arange(n + m, dtype=float)[:, None]
    cal = Dataset(idx[:n], np.full(n, 2, dtype=int), CLASSIFICATION)  # class 1 always wrong
    test = Dataset(idx[n:], None, CLASSIFICATION)
    out = run_selective_classification(
        cal, test, ProcedureConfig(alpha=0.2, score=OneMinusProb(p_hat), constraint=SingletonClass(1))
    )
    assert out.n_reported == 0


def test_regression_replication_deterministic():
    a = regression_replication(("infosp+", "cfbh+"), 200, 150, 1.0, 0.1, RngStream(7711).child(0))
    b = regression_replication(("infosp+", "cfbh+"), 200, 150, 1.0, 0.1, RngStream(7711).child(0))
    assert a == b
    # a method's result does not depend on which other methods run
    c = regression_replication(("cfbh+",), 200, 150, 1.0, 0.1, RngStream(7711).child(0))
    assert c["cfbh+"] == a["cfbh+"]
