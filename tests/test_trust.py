import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scip.core import DegenerateLabelsError, NotPositiveDefiniteError
from scip.trust import (
    GaussianKernel,
    class_membership_trust,
    OptimizerConfig,
    diversity_scores,
    polynomial_features,
    softmax,
    train_softmax_classifier,
    train_trust_classifier,
)

from mp_reference import diversity_instance, diversity_reference


class _IdentityKernel:
    """s(x, x') = 1{x is the same unit}."""

    def matrix(self, X):
        return np.eye(np.asarray(X).shape[0])


# ---------------------------------------------------------------------------
# Diversity scores
# ---------------------------------------------------------------------------


def test_diversity_identity_kernel_hand_formula():
    n, c, alpha = 5, 0.3, 0.1
    psi = np.full(n, c)
    t = diversity_scores(np.zeros((n, 1)), psi, _IdentityKernel(), alpha)
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
        diversity_scores(np.zeros((3, 1)), psi, _IdentityKernel(), 0.1)


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


def test_softmax_classifier_learns_probabilities():
    gen = np.random.default_rng(23)
    from scip.simgen import true_class_probs

    X = gen.normal(size=(1500, 2))
    probs = true_class_probs(X)
    cum = probs.cumsum(axis=1)
    y = 1 + (gen.random((1500, 1)) > cum[:, :-1]).sum(axis=1)
    scorer = train_softmax_classifier(X, y.astype(int), 4, config=OptimizerConfig(max_iter=400, grad_tol=1e-6))
    est = scorer(np.array([[0.0, 0.0]]))[0]
    assert np.allclose(est, 0.25, atol=0.08)
    assert np.allclose(scorer(X).sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# The trainers against the descent they replaced, bit for bit: a two-logaddexp
# loss, a masked two-exp sigmoid and a gradient at every candidate step.  Both
# sides make the same BLAS calls, so equality holds on any BLAS.
# ---------------------------------------------------------------------------


def _masked_sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_logistic(phi, labels, lam):
    n = phi.shape[0]
    a = (labels > 0).astype(float)
    w = np.where(labels > 0, lam, 1.0)

    def value_and_grad(theta):
        z = phi @ theta[:-1] + theta[-1]
        losses = np.where(labels > 0, np.logaddexp(0.0, -z), np.logaddexp(0.0, z))
        val = float((w * losses).sum() / n)
        resid = w * (_masked_sigmoid(z) - a) / n
        return val, np.concatenate([phi.T @ resid, [resid.sum()]])

    return value_and_grad


def _reference_softmax(phi, y, n_classes):
    n, p = phi.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y - 1] = 1.0

    def value_and_grad(theta):
        W = theta.reshape(p + 1, n_classes)
        z = phi @ W[:-1] + W[-1]
        zmax = z.max(axis=1, keepdims=True)
        log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        val = float((log_norm - z[np.arange(n), y - 1]).sum() / n)
        resid = (np.exp(z - log_norm[:, None]) - onehot) / n
        return val, np.vstack([phi.T @ resid, resid.sum(axis=0)]).ravel()

    return value_and_grad


def _reference_descent(value_and_grad, w0, config, path=None):
    """The plain descent: (last point, loss trace, converged); each accepted point goes into ``path``, if given."""
    w = w0.astype(float).copy()
    loss, grad = value_and_grad(w)
    trace = [float(loss)]
    path = [] if path is None else path
    path.append(w)
    step = 1.0
    converged = False
    for _ in range(config.max_iter):
        if np.max(np.abs(grad)) < config.grad_tol:
            converged = True
            break
        step = min(step * 2.0, 1e3)
        while step > 1e-18:
            cand = w - step * grad
            cand_loss, cand_grad = value_and_grad(cand)
            if cand_loss < loss:
                break
            step *= 0.5
        else:
            break
        w, loss, grad = cand, cand_loss, cand_grad
        trace.append(float(loss))
        path.append(w)
    return w, np.asarray(trace), converged


def _trust_sample(seed, n=400, d=1):
    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    signal = 1.5 * X[:, 0] - 0.7 * X[:, -1] ** 2 + 0.5
    labels = np.where(gen.random(n) < 1.0 / (1.0 + np.exp(-signal)), 1, -1)
    return X, labels


def _reference_trust_fit(X, labels, lam, degree, config):
    phi = polynomial_features(X, degree)
    return _reference_descent(_reference_logistic(phi, labels, lam), np.zeros(phi.shape[1] + 1), config)


def _reference_softmax_fit(X, y, n_classes, config):
    phi = polynomial_features(X, 1)
    shape = (phi.shape[1] + 1, n_classes)
    theta, trace, converged = _reference_descent(_reference_softmax(phi, y, n_classes), np.zeros(shape).ravel(), config)
    return theta.reshape(shape), trace, converged


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("d", [1, 2])
def test_trust_classifier_bit_equal_to_reference_descent(degree, lam, d):
    X, labels = _trust_sample(1000 * degree + 10 * d + int(10 * lam), d=d)
    config = OptimizerConfig()
    got = train_trust_classifier(X, labels, lam=lam, config=config, feature_degree=degree)
    theta, trace, converged = _reference_trust_fit(X, labels, lam, degree, config)
    assert np.array_equal(got.weights, theta[:-1])
    assert got.bias == float(theta[-1])
    assert np.array_equal(got.loss_trace, trace)
    assert got.converged == converged


@pytest.mark.parametrize("n_classes", [3, 4])
def test_softmax_classifier_bit_equal_to_reference_descent(n_classes):
    from scip.simgen import true_class_probs

    gen = np.random.default_rng(510 + n_classes)
    X = gen.normal(size=(300, 2))
    cum = true_class_probs(X)[:, :n_classes].cumsum(axis=1)
    y = (1 + (gen.random((300, 1)) * cum[:, -1:] > cum[:, :-1]).sum(axis=1)).astype(int)
    config = OptimizerConfig(max_iter=3000)
    got = train_softmax_classifier(X, y, n_classes, config=config)
    weights, trace, converged = _reference_softmax_fit(X, y, n_classes, config)
    assert np.array_equal(got.weights, weights)
    assert np.array_equal(got.loss_trace, trace)
    assert got.converged == converged


def test_trainers_bit_equal_when_the_budget_runs_out():
    X, labels = _trust_sample(71, d=2)
    config = OptimizerConfig(max_iter=9)
    got = train_trust_classifier(X, labels, lam=1.7, config=config, feature_degree=2)
    theta, trace, converged = _reference_trust_fit(X, labels, 1.7, 2, config)
    assert not got.converged and not converged
    assert got.loss_trace.size == trace.size == config.max_iter + 1
    assert np.array_equal(got.weights, theta[:-1]) and got.bias == float(theta[-1])
    assert np.array_equal(got.loss_trace, trace)

    y = np.where(labels > 0, 1, 2) + (X[:, 1] > 0.8).astype(int)
    soft = train_softmax_classifier(X, y, 3, config=config)
    weights, trace, converged = _reference_softmax_fit(X, y, 3, config)
    assert not soft.converged and not converged
    assert soft.loss_trace.size == config.max_iter + 1
    assert np.array_equal(soft.weights, weights)
    assert np.array_equal(soft.loss_trace, trace)


def _shifted_softmax(z):
    # simgen.true_class_probs and simgen._softmax wrote this same text
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def _in_place_softmax(z):
    # SoftmaxScorer.predict_proba shifted its fresh logits in place
    z = z.copy()
    z -= z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    n=st.integers(1, 3000),
    k=st.integers(2, 6),
    scale=st.floats(1.0, 300.0),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_softmax_bit_equal_to_the_forms_it_replaced(n, k, scale, ties, seed):
    from scip.trust import _exp_shifted

    z = scale * np.random.default_rng(seed).normal(size=(n, k))
    if ties:  # a coarse grid ties row maxima and whole rows
        z = np.round(z / scale) * scale
    got = softmax(z)
    assert np.array_equal(got, _shifted_softmax(z))
    assert np.array_equal(got, _in_place_softmax(z))
    # the softmax trainer's log-normalizer before it read the shared helper
    zmax = z.max(axis=1, keepdims=True)
    old_log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    _, total, row_max = _exp_shifted(z)
    assert np.array_equal(row_max[:, 0] + np.log(total[:, 0]), old_log_norm)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(0, 500), k=st.integers(1, 6), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_class_membership_trust_bit_equal_to_the_product_form(n, k, density, seed):
    """The masked sum equals the old product form on probabilities; an empty row gets 0."""
    gen = np.random.default_rng(seed)
    probs = gen.dirichlet(np.ones(k), n) if n else np.empty((0, k))
    member = gen.random((n, k)) < density
    old = np.where(member.any(axis=1), (probs * member).sum(axis=1), 0.0)
    assert np.array_equal(class_membership_trust(probs, member).view(np.int64), old.view(np.int64))


def test_class_membership_trust_reads_only_members():
    """A NaN or infinite probability outside the set reaches no sum and raises no warning."""
    probs = np.array([[math.inf, 0.0, 0.0], [math.nan, 0.3, 0.7], [-math.inf, 0.5, 0.5]])
    member = np.array([[False, False, False], [False, True, True], [False, True, False]])
    assert class_membership_trust(probs, member).tolist() == [0.0, 1.0, 0.5]


def test_objective_call_bit_equal_to_reference():
    from scip.trust import _weighted_logistic_objective

    X, labels = _trust_sample(72, n=257, d=2)
    phi = polynomial_features(X, 3)
    fn = _weighted_logistic_objective(phi, labels, lam=2.5)
    ref = _reference_logistic(phi, labels, 2.5)
    gen = np.random.default_rng(73)
    for scale in (0.1, 1.0, 30.0, 400.0):
        theta = scale * gen.normal(size=phi.shape[1] + 1)
        val, grad = fn(theta)
        ref_val, ref_grad = ref(theta)
        assert val == ref_val
        assert np.array_equal(grad, ref_grad)


@pytest.mark.parametrize("lam", [1.0, 2.5])  # 1.0 skips the weight multiply
@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 7, 257])
def test_objective_bit_equal_and_its_state_unchanged_by_later_calls(lam, degree, n):
    """The loss terms' reused buffers never alias a returned state, which ``exact`` and ``grad`` read later."""
    from scip.trust import _weighted_logistic_objective

    X, labels = _trust_sample(75 + n, n=n, d=1)
    labels[:2] = [1, -1]
    phi = polynomial_features(X, degree)
    fn = _weighted_logistic_objective(phi, labels, lam=lam)
    ref = _reference_logistic(phi, labels, lam)
    gen = np.random.default_rng(76)
    thetas = [scale * gen.normal(size=phi.shape[1] + 1) for scale in (0.1, 1.0, 30.0, 400.0)]
    states = []
    for theta in thetas:
        val, state = fn.value(theta)
        states.append((state, [part.copy() for part in state]))
        ref_val, ref_grad = ref(theta)
        assert val == ref_val
        assert np.array_equal(fn.grad(state), ref_grad)
    for (state, kept), theta in zip(states, thetas):
        assert all(np.array_equal(part, copy) for part, copy in zip(state, kept))
        ref_val, ref_grad = ref(theta)
        assert fn.exact(state) == ref_val
        assert np.array_equal(fn.grad(state), ref_grad)


def _counted(inner):
    """``inner`` with each of its three steps counted in the returned dict."""
    from scip.trust import _Objective

    calls = {"bracket": 0, "exact": 0, "grad": 0}

    def counting(name):
        def step(arg):
            calls[name] += 1
            return getattr(inner, name)(arg)

        return step

    return calls, _Objective(counting("bracket"), counting("exact"), counting("grad"), inner.rounding)


def test_descent_evaluates_the_gradient_once_per_accepted_step():
    from scip.trust import _gd_minimize, _weighted_logistic_objective

    X, labels = _trust_sample(74, d=1)
    calls, objective = _counted(_weighted_logistic_objective(polynomial_features(X, 2), labels, lam=2.5))
    path, converged = _gd_minimize(objective, np.zeros(3), OptimizerConfig())
    assert converged
    assert calls["grad"] == len(path)
    assert calls["bracket"] > calls["grad"]  # some candidates were rejected, and got no gradient


_SIGMOID_EDGES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 700.0, -700.0, 745.0, -745.0, 800.0, -800.0, math.inf, -math.inf, math.nan]
)


@pytest.mark.parametrize("size", [1, 7, 33, 1000])  # short arrays run only the SIMD tail loops
def test_sigmoid_bit_equal_to_masked_two_exp_form(size):
    from scip.trust import _sigmoid

    gen = np.random.default_rng(size)
    # every edge value at every position, then random draws across the whole range
    arrays = [np.resize(np.roll(_SIGMOID_EDGES, shift), size) for shift in range(_SIGMOID_EDGES.size)]
    arrays += [gen.normal(scale=scale, size=size) for scale in (1.0, 30.0, 800.0)]
    arrays.append(gen.uniform(-750.0, 750.0, size))
    for z in arrays:
        got, ref = _sigmoid(z), _masked_sigmoid(z)
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)  # a NaN stays NaN; its sign bit carries nothing
        assert np.array_equal(got[~nan].view(np.int64), ref[~nan].view(np.int64))


def test_sigmoid_saturates_without_overflow():
    from scip.trust import _sigmoid

    z = np.array([math.inf, -math.inf, 800.0, -800.0, 0.0, -0.0])
    assert _sigmoid(z).tolist() == [1.0, 0.0, 1.0, 0.0, 0.5, 0.5]


@pytest.mark.parametrize("bad", [0, 2, math.nan])
def test_trainer_rejects_a_label_other_than_plus_or_minus_one(bad):
    X, labels = _trust_sample(77, n=40)
    labels = labels.astype(float)
    labels[0] = bad
    with pytest.raises(ValueError, match="labels must each be -1 or \\+1"):
        train_trust_classifier(X, labels)
    with pytest.raises(ValueError, match="labels must each be -1 or \\+1"):
        train_trust_classifier(X, np.full(40, bad))  # checked before the one-class rule




def _logistic_problem(seed, n, d, degree, lam, separable):
    from scip.trust import _weighted_logistic_objective

    X, labels = _trust_sample(seed, n=n, d=d)
    if separable:
        labels = np.where(X[:, 0] > 0, 1, -1)
    phi = polynomial_features(X, degree)
    return phi, _weighted_logistic_objective(phi, labels, lam), _reference_logistic(phi, labels, lam)


def _assert_bracket_holds(lo, hi, loss):
    if math.isinf(lo) or math.isinf(hi):
        assert (lo, hi) == (-math.inf, math.inf)
    else:
        assert 0.0 < lo <= loss <= hi


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    n=st.integers(1, 2000),
    log_lam=st.floats(-3.0, 3.0),
    degree=st.integers(1, 3),
    log_z=st.floats(-3.0, 4.0),
    separable=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_bracket_holds_the_exact_loss_of_a_fit(n, log_lam, degree, log_z, separable, seed):
    """lo <= loss <= hi at thetas of real fits, or the bracket is (-inf, inf).

    max |z| is 10**log_z; separable labels with z = +-scale * x put every unit on its right side
    (terms underflow) or every one on its wrong side (terms past exp's overflow for e^t).
    """
    phi, fn, ref = _logistic_problem(seed, n, 1, degree, 10.0**log_lam, separable)
    gen = np.random.default_rng(seed)
    theta = np.zeros(phi.shape[1] + 1)
    if separable:
        theta[0] = gen.choice([-1.0, 1.0])
    else:
        theta = gen.normal(size=theta.size)
    theta *= 10.0**log_z / max(1e-300, float(np.abs(phi @ theta[:-1] + theta[-1]).max()))
    lo, hi, state = fn.bracket(theta)
    loss = fn.exact(state)
    assert loss == ref(theta)[0]
    _assert_bracket_holds(lo, hi, loss)


_BRACKET_CENTERS = [0.0, 37.0, -37.0, 700.0, -700.0, 745.0, -745.0, 800.0, -800.0]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    n=st.integers(1, 10_000),
    centers=st.lists(st.sampled_from(_BRACKET_CENTERS), min_size=1, max_size=4),
    log_spread=st.floats(-16.0, 1.0),
    lam=st.sampled_from([0.3, 1.0, 2.5]),
    sides=st.sampled_from(["random", "right", "wrong"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bracket_holds_the_exact_loss_at_the_edges_of_exp(n, centers, log_spread, lam, sides, seed):
    """Whenever the bracket is finite, lo <= exact loss <= hi.

    The feature is z itself (theta = (1, 0)), drawn around the edges of the exp and log1p loops: 0,
    where logaddexp's two branches meet; +-37, where log1p(exp(-|z|)) falls under an ulp of |z|;
    +-700 and +-745, where exp(-|z|) goes subnormal and then to 0; and +-800.  Labels on the right
    side of every z make every term that tail; on the wrong side, every term is about |z|.
    """
    from scip.trust import _weighted_logistic_objective

    gen = np.random.default_rng(seed)
    z = gen.choice(centers, n) + 10.0**log_spread * gen.standard_normal(n)
    labels = {
        "random": np.where(gen.random(n) < 0.5, 1, -1),
        "right": np.where(z >= 0, 1, -1),
        "wrong": np.where(z >= 0, -1, 1),
    }[sides]
    fn = _weighted_logistic_objective(z[:, None], labels, lam)
    lo, hi, state = fn.bracket(np.array([1.0, 0.0]))
    assert np.array_equal(state[0], z)
    _assert_bracket_holds(lo, hi, fn.exact(state))


# the objective docstring's safety factor: _BRACKET_SLACK is at least this many times the gap it derives
# between the bracket's mean and the exact loss, at any n up to 1e6
_SLACK_SAFETY = 10.0


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    log_n=st.floats(0.0, 5.0),
    centers=st.lists(st.sampled_from(_BRACKET_CENTERS), min_size=1, max_size=4),
    log_spread=st.floats(-16.0, 1.0),
    log_lam=st.floats(-3.0, 3.0).filter(lambda v: v != 0.0),
    degree=st.integers(1, 3),
    sides=st.sampled_from(["random", "right", "wrong"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bracket_midpoint_within_the_derived_gap_of_the_exact_loss(log_n, centers, log_spread, log_lam, degree,
                                                                    sides, seed):
    """Where the bracket is finite, its midpoint is within _BRACKET_SLACK / _SLACK_SAFETY of the exact loss, relative.

    That is the gap the objective's docstring derives, which the slack covers 10 times over.  n runs
    from 1 to 1e5, lam is not 1 (so both sums take the weight multiply), and the feature's first power
    is z itself, around the edges of exp as in the property above (the higher powers get weight 0).
    The largest gap seen was a few ulps of the loss, under 1e-15 relative.
    """
    from scip.trust import _BRACKET_SLACK, _weighted_logistic_objective

    n = int(10.0**log_n)
    gen = np.random.default_rng(seed)
    z = gen.choice(centers, n) + 10.0**log_spread * gen.standard_normal(n)
    labels = {
        "random": np.where(gen.random(n) < 0.5, 1, -1),
        "right": np.where(z >= 0, 1, -1),
        "wrong": np.where(z >= 0, -1, 1),
    }[sides]
    theta = np.zeros(degree + 1)
    theta[0] = 1.0
    fn = _weighted_logistic_objective(polynomial_features(z[:, None], degree), labels, 10.0**log_lam)
    lo, hi, state = fn.bracket(theta)
    assert np.array_equal(state[0], z)
    if math.isfinite(hi):
        loss = fn.exact(state)
        assert abs(0.5 * (lo + hi) - loss) <= _BRACKET_SLACK / _SLACK_SAFETY * loss


def test_bracket_is_infinite_for_tiny_and_nan_means():
    from scip.trust import _BRACKET_MIN_BOUND, _weighted_logistic_objective

    X, labels = _trust_sample(78, n=50)
    fn = _weighted_logistic_objective(polynomial_features(X, 1), labels, 1.0)
    lo, hi, state = fn.bracket(np.array([0.3, -0.2]))
    _assert_bracket_holds(lo, hi, fn.exact(state))
    assert math.isfinite(lo)
    assert fn.bracket(np.array([math.nan, 0.0]))[:2] == (-math.inf, math.inf)
    # both units on their right side, exp(-720) and exp(-730) subnormal: a mean under the least one
    right = np.array([[-720.0], [730.0]])
    for lam in (1.0, 1e280):  # under lam * _BRACKET_MIN_BOUND, though 1e280 e^-730 passes the bound
        fn = _weighted_logistic_objective(right, np.array([-1, 1]), lam)
        lo, hi, state = fn.bracket(np.array([1.0, 0.0]))
        assert (lo, hi) == (-math.inf, math.inf)
        assert 0.0 < fn.exact(state) < lam * _BRACKET_MIN_BOUND


def _assert_descent_is_the_reference(phi, fn, ref, config):
    from scip.trust import _gd_minimize, _loss_trace

    path, converged = _gd_minimize(fn, np.zeros(phi.shape[1] + 1), config)
    ref_w, ref_trace, ref_converged = _reference_descent(ref, np.zeros(phi.shape[1] + 1), config)
    trace = _loss_trace(fn, path)
    assert np.array_equal(path[-1], ref_w)
    assert np.array_equal(trace, ref_trace)
    assert converged == ref_converged
    return trace, converged


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 400),
    d=st.integers(1, 2),
    degree=st.integers(1, 3),
    log_lam=st.floats(-3.0, 3.0),
    max_iter=st.integers(1, 300),
    grad_tol=st.sampled_from([1e-8, 0.0]),
    separable=st.booleans(),
)
def test_bracketed_descent_bit_equal_to_reference(seed, n, d, degree, log_lam, max_iter, grad_tol, separable):
    phi, fn, ref = _logistic_problem(seed, n, d, degree, 10.0**log_lam, separable)
    _assert_descent_is_the_reference(phi, fn, ref, OptimizerConfig(max_iter, grad_tol))


@pytest.mark.parametrize(
    "exit_kind, separable, config",
    [
        ("converged", False, OptimizerConfig()),
        ("budget", True, OptimizerConfig(max_iter=400)),  # separable: the loss falls without end
        ("step", False, OptimizerConfig(grad_tol=0.0)),  # no decrease at float resolution
    ],
)
def test_bracketed_descent_bit_equal_to_reference_at_each_exit(exit_kind, separable, config):
    phi, fn, ref = _logistic_problem(79, 300, 1, 2, 2.5, separable)
    trace, converged = _assert_descent_is_the_reference(phi, fn, ref, config)
    budget = trace.size == config.max_iter + 1
    assert (converged, budget) == {"converged": (True, False), "budget": (False, True), "step": (False, False)}[exit_kind]


def test_descent_with_every_decision_exact_is_the_reference(monkeypatch):
    """With an infinite slack every bracket is (-inf, inf), so every decision reads the exact losses."""
    import scip.trust

    monkeypatch.setattr(scip.trust, "_BRACKET_SLACK", math.inf)
    phi, fn, ref = _logistic_problem(80, 300, 2, 2, 2.5, False)
    calls, counted = _counted(fn)
    assert fn.bracket(np.zeros(phi.shape[1] + 1))[:2] == (-math.inf, math.inf)
    _assert_descent_is_the_reference(phi, counted, ref, OptimizerConfig())
    assert calls["exact"] == calls["bracket"]  # each point's exact loss, once


def _linear_objective(slope):
    """The loss slope . theta over the finite entries of ``slope``, as an objective and as ``(loss, grad)``.

    Its gradient is ``slope`` itself, a NaN entry included; the bracket is the loss at both ends, and the
    rounding scale is 0, so the tangent plane may test each doubled step.
    """
    from scip.trust import _Objective

    slope = np.array(slope)
    finite = np.isfinite(slope)

    def value_and_grad(theta):
        return float(slope[finite] @ theta[finite]), slope.copy()

    def bracket(theta):
        loss = value_and_grad(theta)[0]
        return loss, loss, theta

    return _Objective(bracket, lambda theta: value_and_grad(theta)[0], lambda theta: slope.copy(), 0.0), value_and_grad


@pytest.mark.parametrize("slope", [[0.125, math.nan], [0.25, -0.125]], ids=["nan-entry", "sup-norm-at-tol"])
def test_float_bookkeeping_descent_is_the_reference_at_a_nan_gradient_and_at_tol(slope):
    """The convergence test on the gradient's Python floats and the tangent test's float candidate make the
    plain descent's decisions.

    At grad_tol 0.25, a gradient with a NaN entry (the other under tol), or with sup-norm exactly tol, has
    not converged, so the unbounded loss descends until the budget runs out.  The tangent plane of the
    sup-norm case would reject every doubled step of a candidate formed on the wrong side of w.
    """
    from scip.trust import _gd_minimize

    fn, ref = _linear_objective(slope)
    config = OptimizerConfig(max_iter=12, grad_tol=0.25)
    path, converged = _gd_minimize(fn, np.ones(2), config)
    ref_path = []
    _, _, ref_converged = _reference_descent(ref, np.ones(2), config, ref_path)
    assert np.array_equal(path, np.array(ref_path), equal_nan=True)
    assert path.shape[0] == config.max_iter + 1
    assert not converged and not ref_converged


@pytest.mark.parametrize("d, degree", [(2, 3), (1, 2)])
def test_bracket_settles_most_decisions_of_a_descent(d, degree):
    """The exact loss runs only where two brackets overlap.

    Every point is bracketed at most once, where the plain descent computed its exact loss; the
    tangent plane rejects some doubled steps with no bracket.  The (2, 3) fit takes 2,023 steps and
    computes 563 exact losses over 2,641 brackets (21%) of the plain descent's 4,048 points; the
    39-step (1, 2) fit, 17 over 70 (24%) of 78.  Near-ties gather where the fit converges, at steps
    that change the loss by less than the bracket's relative slack.
    """
    from scip.trust import _gd_minimize, _weighted_logistic_objective

    X, labels = _trust_sample(74, d=d)
    phi = polynomial_features(X, degree)
    calls, objective = _counted(_weighted_logistic_objective(phi, labels, lam=2.5))
    path, converged = _gd_minimize(objective, np.zeros(d * degree + 1), OptimizerConfig())
    points = []
    ref = _reference_logistic(phi, labels, 2.5)
    _reference_descent(lambda theta: points.append(theta) or ref(theta), np.zeros(d * degree + 1), OptimizerConfig())
    assert converged and calls["grad"] == len(path)
    assert calls["bracket"] <= len(points)
    assert 0 < calls["exact"] < 0.4 * calls["bracket"]


def _assert_same_path(fn, ref, w0, config):
    from scip.trust import _gd_minimize

    path, converged = _gd_minimize(fn, w0, config)
    ref_path = []
    _, _, ref_converged = _reference_descent(ref, w0, config, ref_path)
    assert np.array_equal(path, np.array(ref_path))
    assert converged == ref_converged


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 1000),
    d=st.integers(1, 2),
    degree=st.integers(1, 3),
    log_lam=st.floats(-2.0, 2.0),
    log_scale=st.floats(-2.0, 2.0),
    log_sharpness=st.floats(0.0, 2.0),
    max_iter=st.integers(1, 1000),
)
def test_tangent_certified_descent_same_path_as_reference(seed, n, d, degree, log_lam, log_scale, log_sharpness,
                                                           max_iter):
    """The logistic descent, whose doubled steps the tangent plane may reject, takes the plain descent's path.

    Labels follow a logistic signal 1 to 100 times as steep as ``_trust_sample``'s, so they are near
    separable; the features are scaled by 1e-2 to 1e2 before their powers are taken.
    """
    from scip.trust import _weighted_logistic_objective

    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    signal = 10.0**log_sharpness * (1.5 * X[:, 0] - 0.7 * X[:, -1] ** 2 + 0.5)
    labels = np.where(2.0 * gen.random(n) < 1.0 + np.tanh(signal / 2.0), 1, -1)  # sigmoid(signal), no overflow
    labels[:2] = [1, -1]
    phi = polynomial_features(10.0**log_scale * X, degree)
    lam = 10.0**log_lam
    w0 = np.zeros(phi.shape[1] + 1)
    _assert_same_path(_weighted_logistic_objective(phi, labels, lam), _reference_logistic(phi, labels, lam), w0,
                      OptimizerConfig(max_iter=max_iter))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 500),
    d=st.integers(1, 3),
    n_classes=st.integers(2, 5),
    log_scale=st.floats(-2.0, 2.0),
    log_sharpness=st.floats(0.0, 2.0),
    max_iter=st.integers(1, 500),
)
def test_softmax_descent_same_path_as_reference(seed, n, d, n_classes, log_scale, log_sharpness, max_iter):
    """The softmax descent, which sets no rounding scale and so is never certified, takes the plain
    descent's path; the labels are near-separable argmax classes."""
    from scip.trust import _softmax_objective

    gen = np.random.default_rng(seed)
    X = gen.normal(size=(n, d))
    logits = 10.0**log_sharpness * X @ gen.normal(size=(d, n_classes)) + gen.gumbel(size=(n, n_classes))
    y = 1 + logits.argmax(axis=1)
    y[:n_classes] = np.arange(1, n_classes + 1)
    phi = polynomial_features(10.0**log_scale * X, 1)
    w0 = np.zeros((d + 1) * n_classes)
    _assert_same_path(_softmax_objective(phi, y, n_classes), _reference_softmax(phi, y, n_classes), w0,
                      OptimizerConfig(max_iter=max_iter))


def test_tangent_margin_covers_the_rounding_of_z():
    """Where z = phi theta + b cancels large terms, the plane less only the slack passes the exact loss.

    With phi near 100, theta near 1e6 and b near -1e8, z is O(1) but carries the rounding of
    1e8 (about 1e-8), so the exact loss at a candidate near p is off from the true one by far more
    than the bracket's 1e-13 relative slack.  At such candidates the tangent plane less only the
    slack term reaches the candidate's own exact loss (rounded up), which a certificate would wrongly
    call a lower bound; the rounding term (about 2e-4 here) withholds it.  A candidate far uphill is
    still certified.
    """
    from scip.trust import _BRACKET_SLACK, _tangent_rejects, _weighted_logistic_objective

    gen = np.random.default_rng(0)
    phi = (100.0 + 1e-6 * gen.normal(size=20))[:, None]
    labels = np.where(gen.random(20) < 0.5, 1, -1)
    fn = _weighted_logistic_objective(phi, labels, 1.0)
    p = np.array([1e6, -1e8])
    lo_p, _, state = fn.bracket(p)
    g_p = fn.grad(state)
    tangent = (p.tolist(), lo_p, g_p.tolist())
    wrong = 0
    for _ in range(200):
        cand = p + gen.normal(size=2) * 10.0 ** gen.uniform(-10.0, -6.0)
        hi = math.nextafter(fn.value(cand)[0], math.inf)  # the exact loss at cand lies below hi
        dot = float(g_p @ (cand - p))
        if lo_p + dot - _BRACKET_SLACK * (hi + abs(lo_p) + abs(dot)) >= hi:
            wrong += 1
            assert not _tangent_rejects(fn.rounding, tangent, cand.tolist(), hi)
    assert wrong >= 100
    uphill = p + 1e-2 * g_p
    assert _tangent_rejects(fn.rounding, tangent, uphill.tolist(), fn.value(p)[0])


def test_rounding_scale_of_intercept_only_and_nan_features():
    """A fit with no feature column has a finite scale and descends as the plain descent does; a NaN
    feature makes the scale NaN, which certifies nothing."""
    from scip.trust import _weighted_logistic_objective

    _, labels = _trust_sample(79, n=60)
    phi = np.empty((60, 0))
    fn = _weighted_logistic_objective(phi, labels, 2.0)
    assert 0.0 < fn.rounding < 1e-12
    _assert_same_path(fn, _reference_logistic(phi, labels, 2.0), np.zeros(1), OptimizerConfig())
    assert math.isnan(_weighted_logistic_objective(np.array([[1.0], [math.nan]]), np.array([1, -1]), 1.0).rounding)


def test_tangent_plane_rejects_most_doubled_steps_of_regression_fits(monkeypatch):
    """On the trust fits of seeded regression replications, the tangent plane at the previous point
    rejects most doubled steps with no bracket, and never the first iteration's, which has no
    previous point.

    The fits are cfbh++'s and infosp++'s at n = m = 1000 and four eta.  A step the plane rejects is a
    candidate the plain descent evaluates and this one does not bracket; every iteration opens with a
    doubled step, and the plane can act from the second on.  It settled 690 of 815 such steps
    (85%; one of the eight fits runs out its 400-step budget); with no certificate, or a margin
    grown until it never holds, none.
    """
    import scip.procedures
    from scip.core import RngStream
    from scip.experiments import regression_replication
    from scip.trust import _gd_minimize, _weighted_logistic_objective

    fits = []

    def capture(X, labels, lam, config, feature_degree):
        fits.append((polynomial_features(X, feature_degree), labels, lam, config))
        return train_trust_classifier(X, labels, lam=lam, config=config, feature_degree=feature_degree)

    monkeypatch.setattr(scip.procedures, "train_trust_classifier", capture)
    for eta in (0.0, 0.5, 1.0, 1.5):
        regression_replication(["cfbh++", "infosp++"], 1000, 1000, eta, 0.1, RngStream(27).child(int(10 * eta)))
    assert len(fits) == 8
    doubled = settled = 0
    for phi, labels, lam, config in fits:
        fn = _weighted_logistic_objective(phi, labels, lam)
        ref = _reference_logistic(phi, labels, lam)
        bracketed, evaluated = [], []
        bracket = lambda theta: bracketed.append(theta) or fn.bracket(theta)  # noqa: E731
        path, _ = _gd_minimize(fn._replace(bracket=bracket), np.zeros(phi.shape[1] + 1), config)
        ref_path = []
        _reference_descent(lambda theta: evaluated.append(theta) or ref(theta), path[0], config, ref_path)
        assert np.array_equal(path, np.array(ref_path))
        assert np.array_equal(bracketed[1], path[0] - 2.0 * fn(path[0])[1])  # the first doubled step, bracketed
        settled += len(evaluated) - len(bracketed)
        doubled += len(path) - 2  # every iteration but the first accepts a step
    assert settled >= 0.5 * doubled


def test_scorers_pickle_and_compute_their_loss_trace_on_first_read():
    import pickle

    X, labels = _trust_sample(81, d=2)
    config = OptimizerConfig(max_iter=50)
    scorer = pickle.loads(pickle.dumps(train_trust_classifier(X, labels, lam=2.5, config=config, feature_degree=2)))
    assert "loss_trace" not in vars(scorer)
    assert np.array_equal(scorer.loss_trace, _reference_trust_fit(X, labels, 2.5, 2, config)[1])
    assert scorer.loss_trace is scorer.loss_trace  # computed once
    y = np.where(labels > 0, 1, 2) + (X[:, 1] > 0.8).astype(int)
    soft = pickle.loads(pickle.dumps(train_softmax_classifier(X, y, 3, config=config)))
    assert np.array_equal(soft.loss_trace, _reference_softmax_fit(X, y, 3, config)[1])
