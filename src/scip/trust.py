"""Trust scores: reliability scores for (feature, informative set) pairs.

The class-sum trust scores a class set by its estimated probability mass and
sends the empty set to 0.  The trained variants approximate the oracle score
pr{Y in C(X) | X = x} by a linear-logistic classifier fit with a
class-weighted cross-entropy risk (weight lambda on the positive class)
on a disjoint labeled training sample; their descent steps cost little more than
the loss's and the sigmoid's transcendental passes, and a doubled step that a cheap
vectorized bound proves is rejected skips the exact loss.  ``softmax`` is the one
row softmax: the simulation designs and the softmax classifier call it, and the
classifier's loss takes its log-normalizer from the same shifted exponentials.
``diversity_scores`` is the one scipy call here (``scipy.linalg``'s Cholesky
solves), and it imports scipy only when it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .core import DegenerateLabelsError, NotPositiveDefiniteError


def class_membership_trust(probs: np.ndarray, member_mask: np.ndarray) -> np.ndarray:
    """Vectorized class-sum trust: probs (n, K) against a boolean member mask; 0 for an empty set.

    Only member entries are read, so a non-finite probability outside the set
    (an empty row's, say) does not reach the sum.
    """
    return np.where(member_mask, probs, 0.0).sum(axis=1)


# ---------------------------------------------------------------------------
# Diversity-aware scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianKernel:
    """s(x, x') = exp(-||x - x'||^2 / (2 scale^2))."""

    scale: float = 1.0

    def matrix(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-sq / (2.0 * self.scale**2))


def diversity_scores(pool_features, psi, kernel, alpha: float) -> np.ndarray:
    """Similarity-aware trust scores for the pooled units.

    Solves A T = (alpha u2 - u1) Psi + (u2 - alpha u3) 1 with
    A_ij = (1 - psi_i)(1 - psi_j) s(x_i, x_j) via one Cholesky factorization
    and two triangular solves; A is never inverted explicitly.
    """
    from scipy.linalg import cho_factor, cho_solve

    X = np.asarray(pool_features, dtype=float)
    psi = np.asarray(psi, dtype=float).ravel()
    if psi.shape[0] != X.shape[0]:
        raise ValueError("psi must align with the pooled features")
    if np.any((psi < 0.0) | (psi > 1.0)):
        raise ValueError("psi entries must lie in [0, 1]")
    w = 1.0 - psi
    A = np.outer(w, w) * np.asarray(kernel.matrix(X), dtype=float)
    try:
        factor = cho_factor(A, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("similarity matrix is not positive definite") from exc
    ones = np.ones(psi.shape[0])
    a_psi = cho_solve(factor, psi, check_finite=False)
    a_one = cho_solve(factor, ones, check_finite=False)
    u1 = float(psi @ a_psi)
    u2 = float(psi @ a_one)
    u3 = float(ones @ a_one)
    return (alpha * u2 - u1) * a_psi + (u2 - alpha * u3) * a_one


# ---------------------------------------------------------------------------
# Trained trust scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """Full-batch gradient descent with backtracking step halving."""

    max_iter: int = 5000
    grad_tol: float = 1e-8


class _Objective(NamedTuple):
    """A smooth loss in two steps: ``value(theta) -> (loss, state)`` and ``grad(state)``.

    Calling it returns ``(loss, grad)`` at ``theta``.  The optional screen ``exceeds(theta, bound)``
    is True only when ``value(theta)[0] >= bound`` is certain, and False when it cannot tell.
    """

    value: Callable[[np.ndarray], tuple[float, Any]]
    grad: Callable[[Any], np.ndarray]
    exceeds: Callable[[np.ndarray, float], bool] | None = None

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, state = self.value(theta)
        return loss, self.grad(state)


def _gd_minimize(objective: _Objective, w0: np.ndarray, config: OptimizerConfig):
    """Descend until the gradient sup-norm passes tol or the budget runs out.

    Step sizes warm-start from the previously accepted step (doubled; from 1
    before the first), then halve until the loss decreases; the loss trace is
    non-increasing by construction.  Candidate steps are judged by their loss
    alone: the gradient is evaluated only at the start and at each accepted
    step, once per entry of the loss trace.

    The doubled step, each iteration's first and most often rejected candidate, alone goes first
    through ``objective.exceeds`` if set; a certain rejection halves the step as a failed
    ``cand_loss < loss`` does, so the path is the plain descent's.  Later candidates are mostly
    accepted, so screening them would only add the screen's cost.
    """
    w = w0.astype(float).copy()
    loss, state = objective.value(w)
    grad = objective.grad(state)
    trace = [float(loss)]
    step = 1.0
    converged = False
    for _ in range(config.max_iter):
        if np.maximum.reduce(np.abs(grad)) < config.grad_tol:  # np.max: the same reduce, more dispatch
            converged = True
            break
        step = min(step * 2.0, 1e3)
        if objective.exceeds is not None and objective.exceeds(w - step * grad, loss):
            step *= 0.5  # the doubled step certainly fails cand_loss < loss
        while step > 1e-18:
            cand = w - step * grad
            cand_loss, cand_state = objective.value(cand)
            if cand_loss < loss:
                break
            step *= 0.5
        else:
            break  # no descent direction at float resolution
        w, loss, grad = cand, cand_loss, objective.grad(cand_state)
        trace.append(float(loss))
    return w, np.asarray(trace), converged


def polynomial_features(X: np.ndarray, degree: int) -> np.ndarray:
    """Coordinatewise powers 1..degree of the raw features (no intercept column)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.hstack([X**p for p in range(1, degree + 1)])


@dataclass(frozen=True)
class TrainedScorer:
    """Linear-logistic trust score g(x) = sigmoid(w . phi(x) + b) in (0, 1)."""

    weights: np.ndarray
    bias: float
    feature_degree: int
    loss_trace: np.ndarray
    converged: bool

    def predict(self, X: np.ndarray) -> np.ndarray:
        phi = polynomial_features(X, self.feature_degree)
        z = phi @ self.weights + self.bias
        # keep the output inside the open interval even when the link saturates
        return np.clip(_sigmoid(z), 1e-300, np.nextafter(1.0, 0.0))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # one exp of -|z| serves both branches, and neither can overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


_SCREEN_SLACK, _SCREEN_MIN_BOUND = 1e-12, 1e-290  # the logistic ``exceeds``: margin, least bound


def _weighted_logistic_objective(phi: np.ndarray, labels: np.ndarray, lam: float) -> _Objective:
    """Mean of lambda-weighted cross-entropy terms; labels are +-1.  The state is z.

    A step's cost is the loss's ``np.logaddexp`` and the sigmoid's ``np.exp``, so the rest is kept
    to few in-place calls with the operations of the plain form in its order: the loss terms go
    into one buffer reused by every ``value`` and ``exceeds`` call (each call returns a new z), and
    at lam == 1 no weight multiply runs, since every weight is 1.0 and x * 1.0 == x.

    ``exceeds(theta, bound)`` takes the mean of w * log1p(exp(min(sgn * z, 700))) on the same z,
    with numpy's vectorized ``np.exp`` and ``np.log1p`` for the scalar ``np.logaddexp`` loop, and is
    True only past bound * (1 + _SCREEN_SLACK).  That proves the loss >= bound: every term of either
    sum is nonnegative and within a few ulps of w * log(1 + e^u) (past the clip a screen term only
    falls, and ``np.exp`` cannot overflow); pairwise sums of nonnegative terms agree to about
    log2(n) * eps relative; the slack covers both by two orders of magnitude at n = 1e6, and the gap
    seen on real candidates (under 5e-16) by more than three.  A NaN or non-finite sum, or a bound
    under _SCREEN_MIN_BOUND (where underflowed terms' absolute error could matter), is False.
    """
    n = phi.shape[0]
    a = (labels > 0).astype(float)
    w = np.where(labels > 0, lam, 1.0)
    # log(1 + exp(-z)) for positives, log(1 + exp(z)) for negatives; the sign flip is exact
    sgn = np.where(labels > 0, -1.0, 1.0)

    terms = np.empty(n)

    def value(theta):
        z = np.dot(phi, theta[:-1])
        z += theta[-1]
        np.multiply(sgn, z, out=terms)
        np.logaddexp(0.0, terms, out=terms)
        if lam != 1.0:
            np.multiply(w, terms, out=terms)
        return float(np.add.reduce(terms) / n), z

    def exceeds(theta, bound):
        z = np.dot(phi, theta[:-1])
        z += theta[-1]
        np.multiply(sgn, z, out=terms)
        np.minimum(terms, 700.0, out=terms)
        np.exp(terms, out=terms)
        np.log1p(terms, out=terms)
        if lam != 1.0:
            np.multiply(w, terms, out=terms)
        return bound >= _SCREEN_MIN_BOUND and bound * (1.0 + _SCREEN_SLACK) < np.add.reduce(terms) / n < np.inf

    def grad(z):
        resid = _sigmoid(z)
        resid -= a
        if lam != 1.0:
            resid *= w
        resid /= n
        g = np.empty(phi.shape[1] + 1)
        np.dot(phi.T, resid, out=g[:-1])
        g[-1] = np.add.reduce(resid)
        return g

    return _Objective(value, grad, exceeds)


def train_trust_classifier(
    X: np.ndarray,
    labels: np.ndarray,
    lam: float = 1.0,
    config: OptimizerConfig = OptimizerConfig(),
    feature_degree: int = 1,
) -> TrainedScorer:
    """Fit the lambda-weighted cross-entropy risk over the linear-logistic class.

    ``labels`` are +-1 (+1 marks units whose label lies in their informative
    set, or the one-/two-sided relabelings used by the enhanced procedures).
    """
    labels = np.asarray(labels)
    if not 0.0 < lam < np.inf:  # NaN fails both comparisons
        raise ValueError("lam must be finite and > 0")
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError("labels must each be -1 or +1")
    if np.all(labels > 0) or np.all(labels < 0):
        raise DegenerateLabelsError("training labels are all one class")
    phi = polynomial_features(X, feature_degree)
    objective = _weighted_logistic_objective(phi, labels, lam)
    theta0 = np.zeros(phi.shape[1] + 1)
    theta, trace, converged = _gd_minimize(objective, theta0, config)
    return TrainedScorer(
        weights=theta[:-1],
        bias=float(theta[-1]),
        feature_degree=feature_degree,
        loss_trace=trace,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Row softmax and the softmax classifier (class probabilities for the simulations)
# ---------------------------------------------------------------------------


def _exp_shifted(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(z - rowmax), its row sums and the row max of an (n, K) logit matrix (both (n, 1))."""
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    return ez, ez.sum(axis=1, keepdims=True), zmax


def softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax of an (n, K) logit matrix, shifted by the row max so no exp overflows."""
    ez, total, _ = _exp_shifted(z)
    return ez / total


@dataclass(frozen=True)
class SoftmaxScorer:
    """Multinomial-logistic class probabilities over the raw features."""

    weights: np.ndarray  # (n_features + 1, K), last row is the intercept
    loss_trace: np.ndarray
    converged: bool

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return softmax(polynomial_features(X, 1) @ self.weights[:-1] + self.weights[-1])


def train_softmax_classifier(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    config: OptimizerConfig = OptimizerConfig(),
) -> SoftmaxScorer:
    """Fit softmax cross-entropy by the same descent scheme; labels are 1..K."""
    y = np.asarray(y)
    if np.unique(y).size < 2:
        raise DegenerateLabelsError("softmax training needs at least two classes present")
    phi = polynomial_features(X, 1)
    n, p = phi.shape
    labelled = (np.arange(n), y - 1)
    onehot = np.zeros((n, n_classes))
    onehot[labelled] = 1.0

    def value(theta):
        W = theta.reshape(p + 1, n_classes)
        z = phi @ W[:-1] + W[-1]
        _, total, zmax = _exp_shifted(z)
        log_norm = zmax[:, 0] + np.log(total[:, 0])
        return float((log_norm - z[labelled]).sum() / n), (z, log_norm)

    def grad(state):
        z, log_norm = state
        resid = (np.exp(z - log_norm[:, None]) - onehot) / n
        return np.vstack([phi.T @ resid, resid.sum(axis=0)]).ravel()

    theta, trace, converged = _gd_minimize(_Objective(value, grad), np.zeros((p + 1) * n_classes), config)
    return SoftmaxScorer(theta.reshape(p + 1, n_classes), trace, converged)
