import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from scip.core import RngStream
from scip.simgen import (
    MuHatEta,
    draw_labels,
    first_feature,
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
    y = draw_labels(probs, gen)
    for k in range(4):
        freq = (y == k + 1).mean()
        stderr = math.sqrt(freq * (1 - freq) / y.size)
        assert abs(freq - marginal[k]) <= 3 * stderr + 3 * probs[:, k].std() / math.sqrt(y.size)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 3000), k=st.integers(2, 6), coarse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_draw_labels_equals_the_inline_draw(n, k, coarse, seed):
    gen = np.random.default_rng(seed)
    raw = gen.integers(0, 3, (n, k)).astype(float) if coarse else gen.gamma(1.0, 1.0, (n, k))
    raw[:, 0] += 1.0  # no all-zero row
    probs = raw / raw.sum(axis=1, keepdims=True)
    ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = draw_labels(probs, ours)
    # the draw as the classification design, the cifar-like profile and the
    # selective-classification check each wrote it
    cum = probs.cumsum(axis=1)
    want = 1 + (theirs.random((n, 1)) > cum[:, :-1]).sum(axis=1)
    assert np.array_equal(got, want)
    assert got.min() >= 1 and got.max() <= k
    assert ours.random() == theirs.random()  # both consumed the same draws


def test_draw_labels_gives_a_uniform_on_a_boundary_the_lower_class():
    u = np.random.default_rng(5).random((6, 1))
    probs = np.hstack([u, 1.0 - u])  # each row's first cumulative sum is its own uniform
    assert draw_labels(probs, np.random.default_rng(5)).tolist() == [1] * 6


def test_first_feature_reads_column_zero_or_a_vector():
    X = np.arange(6).reshape(3, 2)
    got = first_feature(X)
    assert got.dtype == float and got.tolist() == [0.0, 2.0, 4.0]
    vec = first_feature([1, 2, 3])
    assert vec.dtype == float and vec.tolist() == [1.0, 2.0, 3.0]


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


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
def test_ndtri_is_norm_ppf_bit_for_bit(qs):
    """The dti-like threshold's ``ndtri`` is what ``norm.ppf`` evaluates at loc 0, scale 1."""
    q = np.array(qs)
    assert np.array_equal(_bits(ndtri(q)), _bits(norm.ppf(q)))


def test_ndtri_is_norm_ppf_bit_for_bit_at_the_edges_and_outside():
    edges = np.array([0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0])
    outside = np.array([-5e-324, -0.5, 1.0 + 2.0**-52, 1.5, -math.inf, math.inf])
    for q in (edges, outside):
        assert np.array_equal(_bits(ndtri(q)), _bits(norm.ppf(q)))
    assert ndtri(edges).tolist()[::6] == [-math.inf, math.inf]
    assert np.isnan(ndtri(outside)).all()
    assert math.isnan(ndtri(math.nan)) and math.isnan(norm.ppf(math.nan))  # NaN in, NaN out (payloads differ)


def test_dti_like_threshold_is_the_old_normal_quantile():
    """feasible_frac f > 0 gives norm.ppf(1 - f) to the bit; f <= 0 keeps the inf threshold."""
    for frac in (0.5, 1.0, 0.4, 0.25, 1e-300, 0.999):
        threshold = gen_synthetic_scores("dti-like", 20, RngStream(39), feasible_frac=frac).threshold
        assert type(threshold) is float
        assert _bits(threshold) == _bits(norm.ppf(1.0 - frac))
    assert gen_synthetic_scores("dti-like", 20, RngStream(39), feasible_frac=0.5).threshold == 0.0
    assert gen_synthetic_scores("dti-like", 20, RngStream(39), feasible_frac=1.0).threshold == -math.inf
    for frac in (0.0, -0.0, -0.1):
        assert gen_synthetic_scores("dti-like", 20, RngStream(39), feasible_frac=frac).threshold == math.inf


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
