import math

import numpy as np
import pytest

from scip.core import RngStream
from scip.simgen import (
    MuHatEta,
    gen_classification,
    gen_regression,
    gen_synthetic_scores,
    mu_star,
    true_class_probs,
)
from scip.trust import OptimizerConfig


def test_true_function_values():
    assert mu_star(0.0) == pytest.approx(1 / 6)
    assert MuHatEta(0.0)(np.array([[2.0]]))[0] == pytest.approx(mu_star(2.0))
    assert MuHatEta(1.0)(np.array([[2.0]]))[0] == pytest.approx(2.0)  # x^2 / 2


def test_eta_zero_matches_truth_everywhere():
    x = np.linspace(-4, 4, 101)[:, None]
    assert np.allclose(MuHatEta(0.0)(x), mu_star(x[:, 0]))


def test_regression_determinism_and_moments():
    d1, _ = gen_regression(5000, 0.5, RngStream(31))
    d2, _ = gen_regression(5000, 0.5, RngStream(31))
    assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.y, d2.y)
    # conditional mean at fixed x via fresh noise draws
    gen = RngStream(32).generator()
    x0 = 1.3
    ys = mu_star(x0) + 0.5 * gen.standard_normal(100_000)
    stderr = ys.std(ddof=1) / math.sqrt(ys.size)
    assert abs(ys.mean() - mu_star(x0)) <= 3 * stderr


def test_class_probability_fixtures():
    probs0 = true_class_probs(np.array([[0.0, 0.0]]))[0]
    assert np.allclose(probs0, 0.25)
    # logits at (1, 0) tie classes 1 and 3 at the top
    logits_top = true_class_probs(np.array([[1.0, 0.0]]))[0]
    assert logits_top[0] == pytest.approx(logits_top[2])
    assert logits_top[0] > logits_top[1] and logits_top[0] > logits_top[3]


def test_label_frequencies_match_analytic_marginals():
    gen = RngStream(33).generator()
    X = gen.standard_normal((100_000, 2))
    probs = true_class_probs(X)
    marginal = probs.mean(axis=0)  # MC integral of the softmax over the feature law
    cum = probs.cumsum(axis=1)
    y = 1 + (gen.random((X.shape[0], 1)) > cum[:, :-1]).sum(axis=1)
    for k in range(4):
        freq = (y == k + 1).mean()
        stderr = math.sqrt(freq * (1 - freq) / y.size)
        assert abs(freq - marginal[k]) <= 3 * stderr + 3 * probs[:, k].std() / math.sqrt(y.size)


def test_gen_classification_returns_frozen_estimator():
    data, p_hat = gen_classification(600, RngStream(34), train_size=400,
                                     optimizer=OptimizerConfig(max_iter=200, grad_tol=1e-5))
    assert data.n == 600 and data.task == "classification"
    probs = p_hat(data.X)
    assert probs.shape == (600, 4)
    assert np.allclose(probs.sum(axis=1), 1.0)
    again, _ = gen_classification(600, RngStream(34), train_size=400,
                                  optimizer=OptimizerConfig(max_iter=200, grad_tol=1e-5))
    assert np.array_equal(data.X, again.X)


def test_synthetic_profiles():
    dti = gen_synthetic_scores("dti-like", 400, RngStream(35), feasible_frac=0.4)
    assert dti.data.task == "regression"
    assert math.isfinite(dti.threshold)
    none = gen_synthetic_scores("dti-like", 100, RngStream(36), feasible_frac=0.0)
    assert math.isinf(none.threshold)
    cifar = gen_synthetic_scores("cifar-like", 300, RngStream(37))
    probs = cifar.predictor(cifar.data.X)
    assert probs.shape == (300, 3) and np.allclose(probs.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        gen_synthetic_scores("unknown", 10, RngStream(38))
