"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The Monte-Carlo fixtures
are shared across criteria; the whole file targets a desk-scale budget.
"""

import math
import multiprocessing
import os
import time
from functools import partial

import numpy as np
import pytest
from scipy.stats import norm

from scip.cli import ExperimentConfig, run_experiment
from scip.core import RngStream
from scip.experiments import (
    classification_replication,
    containment_replication,
    regression_replication,
    run_equivalence_checks,
)
from scip.simgen import mu_star
from scip.trust import diversity_scores, polynomial_features, _weighted_logistic_objective

from mp_reference import diversity_instance, diversity_reference

ALPHA = 0.1
REPS = 500
N = M = 1000

_REG_METHODS = ("naive", "infosp", "infoscop", "infosp+", "cfbh+", "cfbh++")
_CLS_METHODS = ("infosp", "infosp+", "infosp++")


def _verdict(criterion: int, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    return arr.mean(), arr.std(ddof=1) / math.sqrt(arr.size)


ETA_GRID = (0.0, 0.5, 1.0, 1.5)


def _cells(replication, seed, grid):
    """``{args[0]: rows}``: ``replication(*args, rng)`` for REPS streams per grid cell, mapped in
    task order over one process pool of at most 4 workers.  Each rep reads only its own
    stream, so the rows do not depend on the pool."""
    tasks = [(*args, RngStream(seed).child(cell, rep)) for cell, args in enumerate(grid) for rep in range(REPS)]
    with multiprocessing.Pool(min(4, len(os.sched_getaffinity(0)))) as pool:
        rows = pool.starmap(replication, tasks)
    return {args[0]: rows[cell * REPS : (cell + 1) * REPS] for cell, args in enumerate(grid)}


@pytest.fixture(scope="module")
def regression_cells():
    """500-replication regression cells over the bias grid; timed for criterion 1."""
    start = time.time()
    replication = partial(regression_replication, _REG_METHODS, N, M, screening_alpha=0.05)
    cells = _cells(replication, 20260808, [(eta, ALPHA) for eta in ETA_GRID])
    cells["elapsed"] = time.time() - start
    return cells


@pytest.fixture(scope="module")
def classification_cells():
    return _cells(partial(classification_replication, _CLS_METHODS, N, M), 912, [(0.1,), (0.2,)])


def test_c01_fcr_validity(regression_cells):
    details = []
    ok = True
    for eta in (0.0, 1.0):
        rows = regression_cells[eta]
        for method in ("infosp", "infoscop", "infosp+", "cfbh+", "cfbh++"):
            fcr, se = _mean_se([r[method].fcp for r in rows])
            good = fcr <= ALPHA + 3 * se
            ok = ok and good
            details.append(f"{method}@eta={eta:g}: {fcr:.4f} (se {se:.4f})")
    elapsed = regression_cells["elapsed"]
    ok = ok and elapsed < 300.0
    _verdict(1, ok, f"FCR <= 0.1 + 3se for all methods [{'; '.join(details)}] in {elapsed:.0f}s")


def test_c02_anti_conservativeness(regression_cells):
    details = []
    ok = True
    for eta in (0.0, 1.0):
        for method in ("infosp+", "cfbh+"):
            fcr, _ = _mean_se([r[method].fcp for r in regression_cells[eta]])
            ok = ok and fcr >= 0.08
            details.append(f"{method}@eta={eta:g}: {fcr:.4f}")
    _verdict(2, ok, f"FCR >= 0.08 for infosp+ and cfbh+ [{'; '.join(details)}]")


def test_c03_naive_inflation(regression_cells):
    fcr, se = _mean_se([r["naive"].fcp for r in regression_cells[1.0]])
    ok = fcr > ALPHA + 3 * se
    _verdict(3, ok, f"naive FCR at eta=1 is {fcr:.4f} (se {se:.4f}) > 0.1 + 3se")


def test_c04_power_ordering(regression_cells, classification_cells):
    details = []
    ok = True
    for eta in ETA_GRID:
        rows = regression_cells[eta]
        diff = np.array([r["infosp+"].cpow - r["infosp"].cpow for r in rows])
        mean, se = _mean_se(diff)
        ok = ok and mean >= -se
        details.append(f"reg eta={eta:g}: infosp+ - infosp = {mean:.1f} (se {se:.1f})")
    for alpha in (0.1, 0.2):
        rows = classification_cells[alpha]
        for hi, lo in (("infosp++", "infosp+"), ("infosp+", "infosp")):
            diff = np.array([r[hi].cpow - r[lo].cpow for r in rows])
            mean, se = _mean_se(diff)
            ok = ok and mean >= -se
            details.append(f"cls a={alpha}: {hi} - {lo} = {mean:.1f} (se {se:.1f})")
    _verdict(4, ok, "; ".join(details))


def test_c05_generalized_superuniformity():
    """Exchangeable pools: the joint rate pr(null and p <= a) stays below a."""
    draws_total = 100_000
    block = 20_000
    n = 24
    gen = RngStream(515).generator()
    hits = {a: 0 for a in (0.05, 0.1, 0.2)}
    for _ in range(draws_total // block):
        x = gen.standard_normal((block, n + 1))
        y = mu_star(x) + 0.5 * gen.standard_normal((block, n + 1))
        trust = mu_star(x)  # frozen permutation-invariant score for the fixed set (0, inf)
        null = y <= 0.0
        t_test = trust[:, -1]
        gt = ((trust[:, :-1] > t_test[:, None]) & null[:, :-1]).sum(axis=1)
        eq = ((trust[:, :-1] == t_test[:, None]) & null[:, :-1]).sum(axis=1)
        u = 1.0 - gen.random(block)
        p = (gt + (1.0 + eq) * u) / (n + 1)
        for a in hits:
            hits[a] += int(((p <= a) & null[:, -1]).sum())
    details = []
    ok = True
    for a, count in hits.items():
        rate = count / draws_total
        se = math.sqrt(max(rate * (1 - rate), 1e-12) / draws_total)
        ok = ok and rate <= a + 3 * se
        details.append(f"a={a}: {rate:.4f} (se {se:.4f})")
    _verdict(5, ok, f"pr(null, p <= a) <= a + 3se [{'; '.join(details)}]")


def test_c06_equivalence_suite():
    reports = run_equivalence_checks(seed=606, instances=1000)
    ok = all(r.passed for r in reports)
    detail = "; ".join(f"{r.name}: {len(r.failures)} failures / {r.instances}" for r in reports)
    _verdict(6, ok, detail)


def test_c07_containment():
    reps = 200
    hits = sum(
        containment_replication(2000, 2000, 2000, eta=1.0, alpha=ALPHA, rng=RngStream(707).child(rep))
        for rep in range(reps)
    )
    freq = hits / reps
    _verdict(7, freq >= 0.95, f"plain-route report nested in truncated-route report in {freq:.3f} of runs")


def test_c08_numerical_checks():
    # risk gradient against central differences
    gen = np.random.default_rng(808)
    X = gen.normal(size=(60, 2))
    labels = np.where(gen.random(60) < 0.5, 1, -1)
    phi = polynomial_features(X, 2)
    fn = _weighted_logistic_objective(phi, labels, lam=1.4)
    worst_grad = 0.0
    for _ in range(20):
        theta = gen.normal(size=phi.shape[1] + 1)
        _, analytic = fn(theta)
        numeric = np.zeros_like(theta)
        h = 1e-6
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            numeric[i] = (fn(up)[0] - fn(down)[0]) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst_grad = max(worst_grad, rel)
    grad_ok = worst_grad <= 1e-5

    # diversity scores against a 60-digit solve of the same float64 system;
    # a float64 reference would carry an error as large as the code it judges
    pytest.importorskip("mpmath")
    worst_div, worst_seed, worst_cond = 0.0, None, float("nan")
    for seed in range(900, 950):
        X, psi, alpha, kernel, A = diversity_instance(seed)
        got = diversity_scores(X, psi, kernel, alpha)
        expected = diversity_reference(A, psi, alpha)
        rel = np.linalg.norm(got - expected) / max(np.linalg.norm(expected), 1e-12)
        if rel >= worst_div:
            worst_div, worst_seed, worst_cond = rel, seed, np.linalg.cond(A)
    div_ok = worst_div <= 1e-8
    _verdict(
        8,
        grad_ok and div_ok,
        f"gradient rel err {worst_grad:.2e} <= 1e-5; diversity rel err vs 60-digit solve "
        f"{worst_div:.2e} <= 1e-8 (worst: seed {worst_seed}, cond(A) {worst_cond:.1e})",
    )


def _mfcr_threshold(score_grid, null_grid, weights, alpha):
    """Largest selection of the thresholded rule keeping the marginal rate <= alpha."""
    order = np.argsort(-score_grid)
    cum_null = np.cumsum((weights * null_grid)[order])
    cum_all = np.cumsum(weights[order])
    rate = cum_null / cum_all
    feasible = np.flatnonzero(rate <= alpha)
    k = feasible[-1]
    return score_grid[order][k]


def test_c09_oracle_score_optimality():
    sd = 0.5
    xs = np.linspace(-8.0, 8.0, 200_001)
    weights = norm.pdf(xs)
    weights /= weights.sum()
    oracle = norm.cdf(mu_star(xs) / sd)  # pr{Y > 0 | x}
    null_prob = 1.0 - oracle
    perturbed = norm.cdf((mu_star(xs) + 0.8 * np.sin(4.0 * xs)) / sd)  # order-breaking wobble
    t_ora = _mfcr_threshold(oracle, null_prob, weights, ALPHA)
    t_pert = _mfcr_threshold(perturbed, null_prob, weights, ALPHA)

    reps, m = 500, 2000
    gen = RngStream(909).generator()
    diffs, ora_false, ora_sel = [], 0, 0
    for _ in range(reps):
        x = gen.standard_normal(m)
        y = mu_star(x) + sd * gen.standard_normal(m)
        s_ora = norm.cdf(mu_star(x) / sd)
        s_pert = norm.cdf((mu_star(x) + 0.8 * np.sin(4.0 * x)) / sd)
        sel_o = s_ora >= t_ora
        sel_p = s_pert >= t_pert
        diffs.append(sel_o.sum() - sel_p.sum())
        ora_sel += int(sel_o.sum())
        ora_false += int((y[sel_o] <= 0).sum())
    mean, se = _mean_se(diffs)
    mfcr_emp = ora_false / ora_sel
    ok = mean >= -se and abs(mfcr_emp - ALPHA) < 0.02
    _verdict(
        9,
        ok,
        f"oracle cPOW - perturbed cPOW = {mean:.1f} (se {se:.1f}); oracle mFCR {mfcr_emp:.4f}",
    )


def test_c10_determinism(tmp_path):
    def config(out, jobs):
        return ExperimentConfig(
            experiment="regression-sweep",
            methods=("naive", "infosp", "infosp+", "cfbh+"),
            n=80,
            m=60,
            reps=6,
            alphas=(0.1,),
            etas=(0.0, 1.0),
            seed=42,
            jobs=jobs,
            out=str(out),
        )

    p1, a1 = run_experiment(config(tmp_path / "one", 1))
    p2, a2 = run_experiment(config(tmp_path / "two", 1))
    p3, a3 = run_experiment(config(tmp_path / "par", 2))
    ok = (
        p1.read_bytes() == p2.read_bytes() == p3.read_bytes()
        and a1.read_bytes() == a2.read_bytes() == a3.read_bytes()
    )
    _verdict(10, ok, "serial rerun and 2-worker run produce byte-identical CSV output")
