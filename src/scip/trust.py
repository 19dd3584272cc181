"""Trust scores: reliability scores for (feature, informative set) pairs.

The class-sum trust scores a class set by its estimated probability mass and
sends the empty set to 0.  The trained variants approximate the oracle score
pr{Y in C(X) | X = x} by a linear-logistic classifier fit with a
class-weighted cross-entropy risk (weight lambda on the positive class)
on a disjoint labeled training sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .core import DegenerateLabelsError, NotPositiveDefiniteError


def class_membership_trust(probs: np.ndarray, member_mask: np.ndarray) -> np.ndarray:
    """Vectorized class-sum trust: probs (n, K) against a boolean member mask."""
    return np.where(member_mask.any(axis=1), (probs * member_mask).sum(axis=1), 0.0)


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


@dataclass(frozen=True)
class IdentityKernel:
    """s(x, x') = 1{x is the same unit}; useful as a no-similarity baseline."""

    def matrix(self, X: np.ndarray) -> np.ndarray:
        return np.eye(np.asarray(X).shape[0])


def diversity_scores(pool_features, psi, kernel, alpha: float) -> np.ndarray:
    """Similarity-aware trust scores for the pooled units.

    Solves A T = (alpha u2 - u1) Psi + (u2 - alpha u3) 1 with
    A_ij = (1 - psi_i)(1 - psi_j) s(x_i, x_j) via one Cholesky factorization
    and two triangular solves; A is never inverted explicitly.
    """
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
    init_step: float = 1.0
    shrink: float = 0.5


def _gd_minimize(value_and_grad, w0: np.ndarray, config: OptimizerConfig):
    """Descend until the gradient sup-norm passes tol or the budget runs out.

    Step sizes warm-start from the previously accepted step (doubled), then
    halve until the loss decreases; the loss trace is non-increasing by
    construction.
    """
    w = w0.astype(float).copy()
    loss, grad = value_and_grad(w)
    trace = [float(loss)]
    step = config.init_step
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
            step *= config.shrink
        else:
            break  # no descent direction at float resolution
        w, loss, grad = cand, cand_loss, cand_grad
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
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _weighted_logistic_objective(phi: np.ndarray, labels: np.ndarray, lam: float):
    """Mean of lambda-weighted cross-entropy terms; labels are +-1."""
    n = phi.shape[0]
    a = (labels > 0).astype(float)
    w = np.where(labels > 0, lam, 1.0)

    def value_and_grad(theta):
        z = phi @ theta[:-1] + theta[-1]
        # log(1 + exp(-z)) for positives, log(1 + exp(z)) for negatives
        losses = np.where(labels > 0, np.logaddexp(0.0, -z), np.logaddexp(0.0, z))
        val = float((w * losses).sum() / n)
        resid = w * (_sigmoid(z) - a) / n
        grad = np.concatenate([phi.T @ resid, [resid.sum()]])
        return val, grad

    return value_and_grad


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
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    if np.all(labels > 0) or np.all(labels < 0):
        raise DegenerateLabelsError("training labels are all one class")
    phi = polynomial_features(X, feature_degree)
    value_and_grad = _weighted_logistic_objective(phi, labels, lam)
    theta0 = np.zeros(phi.shape[1] + 1)
    theta, trace, converged = _gd_minimize(value_and_grad, theta0, config)
    return TrainedScorer(
        weights=theta[:-1],
        bias=float(theta[-1]),
        feature_degree=feature_degree,
        loss_trace=trace,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# Softmax classifier (class-probability estimation for the simulations)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SoftmaxScorer:
    """Multinomial-logistic class probabilities over polynomial features."""

    weights: np.ndarray  # (n_features + 1, K), last row is the intercept
    feature_degree: int
    loss_trace: np.ndarray
    converged: bool

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        phi = polynomial_features(X, self.feature_degree)
        z = phi @ self.weights[:-1] + self.weights[-1]
        z -= z.max(axis=1, keepdims=True)
        ez = np.exp(z)
        return ez / ez.sum(axis=1, keepdims=True)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X)


def train_softmax_classifier(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    config: OptimizerConfig = OptimizerConfig(),
    feature_degree: int = 1,
) -> SoftmaxScorer:
    """Fit softmax cross-entropy by the same descent scheme; labels are 1..K."""
    y = np.asarray(y)
    if np.unique(y).size < 2:
        raise DegenerateLabelsError("softmax training needs at least two classes present")
    phi = polynomial_features(X, feature_degree)
    n, p = phi.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y - 1] = 1.0

    def value_and_grad(theta):
        W = theta.reshape(p + 1, n_classes)
        z = phi @ W[:-1] + W[-1]
        zmax = z.max(axis=1, keepdims=True)
        log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
        val = float((log_norm - z[np.arange(n), y - 1]).sum() / n)
        probs = np.exp(z - log_norm[:, None])
        resid = (probs - onehot) / n
        grad = np.vstack([phi.T @ resid, resid.sum(axis=0)])
        return val, grad.ravel()

    theta, trace, converged = _gd_minimize(value_and_grad, np.zeros((p + 1) * n_classes), config)
    return SoftmaxScorer(theta.reshape(p + 1, n_classes), feature_degree, trace, converged)
