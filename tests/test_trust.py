import math

import numpy as np
import pytest

from scip.core import DegenerateLabelsError, NotPositiveDefiniteError, RngStream
from scip.trust import (
    GaussianKernel,
    IdentityKernel,
    OptimizerConfig,
    TrainedScorer,
    diversity_scores,
    train_pu_classifier,
    train_softmax_classifier,
    train_trust_classifier,
)

from mp_reference import diversity_instance, diversity_reference


# ---------------------------------------------------------------------------
# Diversity scores
# ---------------------------------------------------------------------------


def test_diversity_identity_kernel_hand_formula():
    n, c, alpha = 5, 0.3, 0.1
    psi = np.full(n, c)
    t = diversity_scores(np.zeros((n, 1)), psi, IdentityKernel(), alpha)
    u1 = n * c**2 / (1 - c) ** 2
    u2 = n * c / (1 - c) ** 2
    u3 = n / (1 - c) ** 2
    expected = ((alpha * u2 - u1) * c + (u2 - alpha * u3)) / (1 - c) ** 2
    assert np.allclose(t, expected)


def test_diversity_matches_dense_solve():
    X = np.array([[0.0], [1.0]])
    psi = np.array([0.2, 0.4])
    kernel = GaussianKernel(scale=1.0 / math.sqrt(2 * math.log(2)))  # s(0,1) = 0.5
    alpha = 0.15
    got = diversity_scores(X, psi, kernel, alpha)
    w = 1 - psi
    A = np.outer(w, w) * np.array([[1.0, 0.5], [0.5, 1.0]])
    Ainv = np.linalg.inv(A)
    ones = np.ones(2)
    u1, u2, u3 = psi @ Ainv @ psi, psi @ Ainv @ ones, ones @ Ainv @ ones
    expected = Ainv @ ((alpha * u2 - u1) * psi + (u2 - alpha * u3) * ones)
    assert np.allclose(got, expected, rtol=1e-12)


def test_diversity_degenerate_psi_raises():
    psi = np.array([0.2, 1.0, 0.4])
    with pytest.raises(NotPositiveDefiniteError):
        diversity_scores(np.zeros((3, 1)), psi, IdentityKernel(), 0.1)


def test_diversity_permutation_equivariance():
    gen = np.random.default_rng(99)
    X = gen.normal(size=(12, 2))
    psi = gen.uniform(0.05, 0.6, 12)
    kernel = GaussianKernel(1.3)
    base = diversity_scores(X, psi, kernel, 0.1)
    perm = gen.permutation(12)
    permuted = diversity_scores(X[perm], psi[perm], kernel, 0.1)
    back = np.empty_like(permuted)
    back[perm] = permuted
    assert np.allclose(base, back, rtol=1e-10)


@pytest.mark.parametrize("seed", [945, 921, 932, 947])  # n = 32, 12, 10, 3
def test_diversity_forward_error_within_condition_bound(seed):
    # A backward-stable solve is accurate to O(cond(A) eps) on every BLAS;
    # seed 945 has cond(A) ~ 3e9, where a float64 reference is not good enough
    pytest.importorskip("mpmath")
    X, psi, alpha, kernel, A = diversity_instance(seed)
    got = diversity_scores(X, psi, kernel, alpha)
    expected = diversity_reference(A, psi, alpha)
    rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
    assert rel <= 4.0 * np.linalg.cond(A) * np.finfo(float).eps


# ---------------------------------------------------------------------------
# Trained trust scores
# ---------------------------------------------------------------------------


def _finite_difference_grad(value_and_grad, theta, h=1e-6):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (value_and_grad(up)[0] - value_and_grad(down)[0]) / (2 * h)
    return grad


def test_risk_gradient_matches_central_differences():
    from scip.trust import _weighted_logistic_objective, polynomial_features

    gen = np.random.default_rng(17)
    X = gen.normal(size=(40, 2))
    labels = np.where(gen.random(40) < 0.5, 1, -1)
    phi = polynomial_features(X, 2)
    fn = _weighted_logistic_objective(phi, labels, lam=1.7)
    for _ in range(20):
        theta = gen.normal(size=phi.shape[1] + 1)
        _, analytic = fn(theta)
        numeric = _finite_difference_grad(fn, theta)
        denom = max(np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom <= 1e-5


def test_training_on_separable_data():
    gen = np.random.default_rng(18)
    x = np.concatenate([gen.normal(-2, 0.3, 120), gen.normal(2, 0.3, 120)])
    labels = np.concatenate([-np.ones(120, dtype=int), np.ones(120, dtype=int)])
    scorer = train_trust_classifier(x[:, None], labels, config=OptimizerConfig(max_iter=800))
    x_hold = np.concatenate([gen.normal(-2, 0.3, 200), gen.normal(2, 0.3, 200)])
    y_hold = np.concatenate([-np.ones(200), np.ones(200)])
    pred = np.where(scorer.predict(x_hold[:, None]) > 0.5, 1, -1)
    assert (pred == y_hold).mean() >= 0.95
    assert np.all(np.diff(scorer.loss_trace) <= 0)
    assert scorer.loss_trace[1] < scorer.loss_trace[0]


def test_training_recovers_mixture_rate():
    gen = np.random.default_rng(19)
    x = gen.normal(size=4000)
    labels = np.where(gen.random(4000) < 0.5, 1, -1)  # features carry no signal
    scorer = train_trust_classifier(x[:, None], labels, lam=1.0, config=OptimizerConfig(max_iter=500))
    assert abs(float(scorer.predict(np.array([[0.0]]))[0]) - 0.5) < 0.1


def test_degenerate_labels_error():
    with pytest.raises(DegenerateLabelsError):
        train_trust_classifier(np.zeros((5, 1)), np.ones(5, dtype=int))


def test_trained_scorer_range():
    gen = np.random.default_rng(20)
    x = gen.normal(size=60)
    labels = np.where(x > 0, 1, -1)
    scorer = train_trust_classifier(x[:, None], labels, config=OptimizerConfig(max_iter=200))
    vals = scorer.predict(gen.normal(size=(30, 1)))
    assert np.all((vals > 0) & (vals < 1))


def test_serialization_roundtrip():
    gen = np.random.default_rng(21)
    x = gen.normal(size=50)
    labels = np.where(x + 0.2 * gen.normal(size=50) > 0, 1, -1)
    scorer = train_trust_classifier(x[:, None], labels, lam=2.5, feature_degree=2,
                                    config=OptimizerConfig(max_iter=150))
    text = scorer.to_text()
    back = TrainedScorer.from_text(text)
    pts = gen.normal(size=(20, 1))
    assert np.array_equal(back.predict(pts), scorer.predict(pts))
    assert back.lam == scorer.lam and back.feature_degree == scorer.feature_degree


def test_pu_training():
    gen = np.random.default_rng(22)
    cal_x = gen.normal(size=200)
    positives = cal_x > 0
    test_x = gen.normal(size=150)
    scorer = train_pu_classifier(cal_x[:, None], positives, test_x[:, None],
                                 config=OptimizerConfig(max_iter=300))
    assert scorer.pu_learned
    vals = scorer.predict(test_x[:, None])
    assert np.all((vals > 0) & (vals < 1))
    with pytest.raises(DegenerateLabelsError):
        train_pu_classifier(cal_x[:, None], np.zeros(200, dtype=bool), test_x[:, None])
    # all-covered calibration still trains: positives against unlabeled negatives
    full = train_pu_classifier(cal_x[:, None], np.ones(200, dtype=bool), test_x[:, None],
                               config=OptimizerConfig(max_iter=100))
    v = full.predict(test_x[:, None])
    assert np.all((v > 0) & (v < 1))


def test_pu_scored_selection_controls_fcr():
    """PU-learned trust on the quadratic regression model keeps FCR at the target."""
    from scip.selection import TieMode, scip_select_arrays
    from scip.simgen import gen_regression

    gen_root = RngStream(404)
    alpha, reps = 0.1, 500
    n = m = 300
    fcps = []
    for r in range(reps):
        data, _ = gen_regression(n + m, eta=1.0, rng=gen_root.child(r, 0))
        cal_x, cal_y = data.X[:n], data.y[:n]
        test_x, test_y = data.X[n:], data.y[n:]
        # fixed half-line sets (0, inf): positives are the covered calibration units
        scorer = train_pu_classifier(
            cal_x, cal_y > 0, test_x, feature_degree=2,
            config=OptimizerConfig(max_iter=120, grad_tol=1e-5),
        )
        res = scip_select_arrays(
            scorer.predict(cal_x),
            cal_y <= 0,
            scorer.predict(test_x),
            alpha,
            TieMode.PER_UNIT,
            gen_root.child(r, 1),
        )
        miss = (test_y[res.selected] <= 0).sum()
        fcps.append(miss / max(1, res.selected.size))
    fcps = np.asarray(fcps)
    stderr = fcps.std(ddof=1) / math.sqrt(reps)
    assert fcps.mean() <= alpha + 3 * stderr


def test_softmax_classifier_learns_probabilities():
    gen = np.random.default_rng(23)
    from scip.simgen import true_class_probs

    X = gen.normal(size=(1500, 2))
    probs = true_class_probs(X)
    cum = probs.cumsum(axis=1)
    y = 1 + (gen.random((1500, 1)) > cum[:, :-1]).sum(axis=1)
    scorer = train_softmax_classifier(X, y.astype(int), 4, config=OptimizerConfig(max_iter=400, grad_tol=1e-6))
    est = scorer.predict_proba(np.array([[0.0, 0.0]]))[0]
    assert np.allclose(est, 0.25, atol=0.08)
    assert np.allclose(scorer.predict_proba(X).sum(axis=1), 1.0)
