"""Trust scores: reliability scores for (feature, informative set) pairs.

The class-sum trust scores a class set by its estimated probability mass and
sends the empty set to 0.  The trained variants approximate the oracle score
pr{Y in C(X) | X = x} by a linear-logistic classifier fit with a
class-weighted cross-entropy risk (weight lambda on the positive class)
on a disjoint labeled training sample.  Their descent decides each step from
a certified bracket on the loss, built with numpy's vectorized ``np.exp`` and
``np.log1p``, and computes the exact loss (libm's, inside ``np.logaddexp``)
only where two brackets overlap; the loss trace is computed on first read.
That loss is convex, so the tangent plane at the previous accepted point bounds
it from below: an iteration's first candidate (the doubled step) that this
plane, less a margin that covers its rounding, puts at or above the current
point's bracket is rejected without a bracket of its own.  So most steps cost
one bracket and one gradient, and the descent's bookkeeping around them runs on
Python floats.
``softmax`` is the one row softmax: the simulation designs and the softmax
classifier call it, and the classifier's loss takes its log-normalizer from
the same shifted exponentials.
``diversity_scores`` is the one scipy call here (``scipy.linalg``'s Cholesky
solves), and it imports scipy only when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter
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
    """A smooth convex loss in three steps, ``bracket``, ``exact`` and ``grad``, and a rounding scale.

    ``bracket(theta) -> (lo, hi, state)`` holds the loss, lo <= loss <= hi, or is (-inf, inf);
    ``exact(state)`` is the loss itself and ``grad(state)`` its gradient, both at the bracketed theta.
    ``rounding`` is the per-fit kappa of the tangent certificate's margin (see ``_gd_minimize``),
    fixed when the objective is built; the default, inf, never certifies.
    ``value(theta)`` returns ``(loss, state)``, and calling it returns ``(loss, grad)``.
    """

    bracket: Callable[[np.ndarray], tuple[float, float, Any]]
    exact: Callable[[Any], float]
    grad: Callable[[Any], np.ndarray]
    rounding: float = math.inf

    def value(self, theta: np.ndarray) -> tuple[float, Any]:
        state = self.bracket(theta)[2]
        return self.exact(state), state

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        loss, state = self.value(theta)
        return loss, self.grad(state)


def _gd_minimize(objective: _Objective, w0: np.ndarray, config: OptimizerConfig):
    """Descend until the gradient sup-norm passes tol or the budget runs out.

    Step sizes warm-start from the previously accepted step (doubled; from 1
    before the first), then halve until the loss decreases; the losses of the
    accepted points are non-increasing by construction.  Returns the accepted
    points, the start first, one per row, and whether the descent converged.

    A candidate is accepted when its bracket lies below the current point's
    (``c_hi < lo``) and rejected when above it (``c_lo >= hi``); only when the
    brackets overlap are the exact losses compared, each point's computed once
    from its bracket's state.  Each decision is the one ``cand_loss < loss``
    would make, so the path is the plain descent's.  The gradient is taken at
    the start and at each accepted point.

    Each accepted point and its gradient are turned into Python floats once.
    The convergence test is ``all(abs(g) < tol)`` over them, which a NaN entry
    fails as it fails max |grad| < tol.  The tangent test below forms its
    candidate as w_i - step * g_i in floats, the bits of ``w - step * grad``;
    the candidate is built as an array only when it is bracketed.

    An iteration's first candidate c is rejected with no bracket when the
    tangent plane at the previous accepted point p certifies it: with p's lo_p
    and gradient g_p, D = g_p . (c - p) and N = |c|_1 + |p|_1, summed in Python
    floats, when

        lo_p + D - _BRACKET_SLACK (hi + |lo_p| + |D|) - rounding (1 + N) >= hi.

    The argument: let delta be the rounding of the computed z = phi theta + b
    at p.  The loss with z shifted by delta is convex in theta, equals at p the
    loss of p's computed z, and has there the gradient that ``grad`` computes,
    up to the rounding of its residuals and of their sums.  So at c its value
    is at least lo_p + D less four gaps: (i) from lo_p to the loss of p's
    computed z, and from that of c's to the exact loss at c; (ii) the rounding
    of z at c and at p; (iii) the gradient's rounding, times |c - p|_1 <= N;
    (iv) the rounding of D's few terms.  ``rounding (1 + N)``, from the
    objective's per-fit scale, holds (ii) to (iv) twice over, so the margin's
    own few roundings are covered too; the slack term holds (i), which is the
    bracket's relative gap (lo_p lies under the loss of p's computed z), and
    the sum lo_p + D.
    So the exact loss at c is at least hi, which is at least the exact loss at
    the current point, and the plain descent rejects c too.  A lo_p or hi that
    is not finite gives no certificate, nor does a rounding bound of 1 or more
    (below it, phi and N are small enough that no sum in z can overflow), so
    an objective without a finite scale is never certified; the first
    iteration has no previous point.
    """
    w = w0.astype(float).copy()
    lo, hi, state = objective.bracket(w)
    loss = None  # the exact loss at w, once a near-tie has needed it
    grad = objective.grad(state)
    w_f, g_f = w.tolist(), grad.tolist()
    path = [w]
    step = 1.0
    converged = False
    tol, rounding = config.grad_tol, objective.rounding
    tangent = None  # the previous accepted point, its lo and its gradient, as lists, while they can certify
    for _ in range(config.max_iter):
        if all(abs(g) < tol for g in g_f):  # a NaN entry fails it, as it fails max |grad| < tol
            converged = True
            break
        step = min(step * 2.0, 1e3)
        certify = tangent is not None and hi < math.inf  # the first candidate, if a tangent can reject it
        while step > 1e-18:
            if certify:
                certify = False
                if _tangent_rejects(rounding, tangent, [p - step * g for p, g in zip(w_f, g_f)], hi):
                    step *= 0.5
                    continue
            cand = w - step * grad
            c_lo, c_hi, c_state = objective.bracket(cand)
            c_loss = None
            if c_hi < lo:
                break
            if c_lo < hi:  # the brackets overlap: the exact losses decide
                if loss is None:
                    loss = objective.exact(state)
                c_loss = objective.exact(c_state)
                if c_loss < loss:
                    break
            step *= 0.5
        else:
            break  # no descent direction at float resolution
        tangent = (w_f, lo, g_f) if math.isfinite(lo) and rounding < 1.0 else None
        w, lo, hi, state, loss = cand, c_lo, c_hi, c_state, c_loss
        grad = objective.grad(state)
        w_f, g_f = w.tolist(), grad.tolist()
        path.append(w)
    return np.array(path), converged


def _tangent_rejects(rounding: float, tangent: tuple, cand: list, hi: float) -> bool:
    """Whether the tangent plane (point, lo, gradient) certifies the loss at ``cand`` >= ``hi``; points are lists."""
    point, lo_p, g_p = tangent
    dot = norm = 0.0
    for g, p, c in zip(g_p, point, cand):
        dot += g * (c - p)
        norm += abs(c) + abs(p)
    bound = rounding * (1.0 + norm)
    return bound < 1.0 and lo_p + dot - _BRACKET_SLACK * (hi + abs(lo_p) + abs(dot)) - bound >= hi


def _loss_trace(objective: _Objective, path: np.ndarray) -> np.ndarray:
    """The exact loss at each accepted point of a descent, in order."""
    return np.array([objective.value(theta.copy())[0] for theta in path])


def polynomial_features(X: np.ndarray, degree: int) -> np.ndarray:
    """Coordinatewise powers 1..degree of the raw features (no intercept column)."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.hstack([X**p for p in range(1, degree + 1)])


@dataclass(frozen=True)
class TrainedScorer:
    """Linear-logistic trust score g(x) = sigmoid(w . phi(x) + b) in (0, 1).

    ``path`` holds the descent's accepted points, one per row, and ``fit_inputs`` its objective's
    inputs (features, labels, lam); ``loss_trace``, the loss at each point, is computed on first read.
    """

    weights: np.ndarray
    bias: float
    feature_degree: int
    converged: bool
    path: np.ndarray = field(repr=False)
    fit_inputs: tuple = field(repr=False)

    @cached_property
    def loss_trace(self) -> np.ndarray:
        return _loss_trace(_weighted_logistic_objective(*self.fit_inputs), self.path)

    def predict(self, X: np.ndarray) -> np.ndarray:
        phi = polynomial_features(X, self.feature_degree)
        z = phi @ self.weights + self.bias
        # keep the output inside the open interval even when the link saturates
        return np.clip(_sigmoid(z), 1e-300, np.nextafter(1.0, 0.0))


# 0 and 1 as read-only 0-d arrays: a ufunc takes one of these faster than a Python float, which it
# converts on every call
_ZERO, _ONE = np.zeros(()), np.ones(())
_ZERO.flags.writeable = False
_ONE.flags.writeable = False


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # one exp of -|z| (``e``, if given) serves both branches, and neither can overflow
    if e is None:
        e = np.exp(-np.abs(z))
    s = np.where(np.greater_equal(z, _ZERO), _ONE, e)
    s /= np.add(_ONE, e)
    return s


# the logistic bracket's relative margin, which the tangent certificate's margin shares, and its least mean
_BRACKET_SLACK, _BRACKET_MIN_BOUND = 1e-13, 1e-290


def _weighted_logistic_objective(phi: np.ndarray, labels: np.ndarray, lam: float) -> _Objective:
    """Mean of lambda-weighted cross-entropy terms; labels are +-1.  The state is (z, exp(-|z|)).

    ``exact`` is the plain form, the mean of w * np.logaddexp(0, t) with t = sgn * z (libm's scalar
    exp and log1p in numpy's loop).  ``bracket`` takes the same terms as w * (max(t, 0) + log1p(e)),
    e = exp(-|z|), with numpy's vectorized ``np.exp`` and ``np.log1p``, and widens their mean s to
    [s (1 - _BRACKET_SLACK), s (1 + _BRACKET_SLACK)].  That holds the exact loss.  With u = 2**-53
    (one ulp is at most 2u relative), both means are within a small multiple of u of the mean of the
    true terms w * log(1 + e^t), since logaddexp(0, t) is max(t, 0) + log1p(exp(-|t|)) and |t| = |z|,
    so both sides take the same steps:

    - Each term is within 6u of its true value on either side: exp within 1 ulp (2u), which log1p
      passes on, since its relative condition number is at most 1 on [0, 1]; log1p's own ulp (2u);
      the add of two nonnegative parts (u); the weight multiply (u).  No exp can overflow.  The
      1 ulp for float64 exp and log1p is what numpy's accuracy tables hold
      (``numpy/_core/tests/data/umath-validation-set-{exp,log1p}.csv``).  Against mpmath, over 2e5
      inputs on each of numpy 2.4's AVX-512, AVX2 and baseline loops, the largest errors seen were
      0.73 ulp for each function and 1.4 ulp for a whole term, either side's.
    - Each sum is within gamma_d of the sum of its terms, all nonnegative, where d is the most adds
      a term passes through.  ``np.add.reduce`` of a contiguous array is numpy's pairwise sum: eight
      running sums over a block of at most 128 terms, then 3 adds to combine them and up to 7 for
      the rest (24 adds at most in a block), and one add per halving above that.  So d <= 24 + ceil(log2(n / 128)),
      which is 27 for n <= 1e3 and 37 for n <= 1e6.
    - Each division by n adds u.

    So the gap between s and the exact loss is at most (14 + 2d) u relative, to first order (the rest
    is under 1e-28): 68u = 7.6e-15 for n <= 1e3 and 88u = 9.8e-15 for n <= 1e6.  _BRACKET_SLACK,
    1e-13, is the smallest power of ten at least 10 times the gap at n = 1e6, so its safety factor
    is 10 there and 13 at n = 1e3.  The largest gap seen, over 3,000 objectives on each of those
    loops, was 2 ulps of the loss.  A mean that is NaN, infinite or under _BRACKET_MIN_BOUND *
    max(lam, 1) (where the absolute error of underflowed terms, a few subnormal ulps each, could pass
    the slack) gives (-inf, inf), and the exact loss decides.  The sigmoid in ``grad`` reads the
    bracket's e, which is the bits of ``np.exp(-np.abs(z))``.

    ``rounding`` is kappa = 2 max(lam, 1) Phi (n + 2k + 20) u, with Phi =
    max(1, max |phi|), k = p + 1 parameters and u = 2**-53 (gamma_m = m u / (1 - m u) below).  The
    computed z at theta is within gamma_k Phi |theta|_1 of phi theta + b, and the mean loss is
    max(lam, 1)-Lipschitz in z, so (ii) is at most max(lam, 1) Phi gamma_k N.  A residual's sigmoid
    (a few ulps of exp, then an add and a divide) and its three operations put 14u of w / n >= its
    size into it, and BLAS's n-term sums add gamma_n, so each gradient entry is within
    max(lam, 1) Phi (gamma_n + 14u) of the shifted loss's, which is (iii) per unit of N.  D's
    k terms add gamma_(k+1) |g_p|_inf <= gamma_(k+1) max(lam, 1) Phi per unit of N, which is (iv).
    The three sum to under max(lam, 1) Phi (n + 2k + 17) u N, half of kappa N at most.

    A step costs its transcendental passes and few in-place calls: both sums' terms go into
    buffers reused by every call (each ``bracket`` returns a new z and e), a scalar operand is a
    0-d array (``_ZERO``, ``_ONE``, n), and at lam == 1 no weight multiply runs, since every weight
    is 1.0 and x * 1.0 == x.
    """
    n = phi.shape[0]
    a = (labels > 0).astype(float)
    w = np.where(labels > 0, lam, 1.0)
    # log(1 + exp(-z)) for positives, log(1 + exp(z)) for negatives; the sign flip is exact
    sgn = np.where(labels > 0, -1.0, 1.0)
    least = _BRACKET_MIN_BOUND * max(lam, 1.0)
    terms, log1p_e = np.empty(n), np.empty(n)
    n_0d = np.array(float(n))  # the divisor as a 0-d array, as _ZERO is
    rounding = 2.0 * max(lam, 1.0) * float(np.abs(phi).max(initial=1.0)) * (n + 2 * phi.shape[1] + 22) * 2.0**-53

    def bracket(theta):
        z = np.dot(phi, theta[:-1])
        z += theta[-1]
        e = np.abs(z)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.multiply(sgn, z, out=terms)
        np.maximum(terms, _ZERO, out=terms)
        np.log1p(e, out=log1p_e)
        np.add(terms, log1p_e, out=terms)
        if lam != 1.0:
            np.multiply(w, terms, out=terms)
        s = float(np.add.reduce(terms)) / n
        if least <= s < np.inf:
            return s * (1.0 - _BRACKET_SLACK), s * (1.0 + _BRACKET_SLACK), (z, e)
        return -np.inf, np.inf, (z, e)

    def exact(state):
        np.multiply(sgn, state[0], out=terms)
        np.logaddexp(0.0, terms, out=terms)
        if lam != 1.0:
            np.multiply(w, terms, out=terms)
        return float(np.add.reduce(terms) / n)

    def grad(state):
        resid = _sigmoid(*state)
        resid -= a
        if lam != 1.0:
            resid *= w
        resid /= n_0d
        g = np.empty(phi.shape[1] + 1)
        np.dot(phi.T, resid, out=g[:-1])
        g[-1] = np.add.reduce(resid)
        return g

    return _Objective(bracket, exact, grad, rounding)


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
    labels = np.array(labels)  # a copy: the scorer keeps it for its loss trace
    if not 0.0 < lam < np.inf:  # NaN fails both comparisons
        raise ValueError("lam must be finite and > 0")
    if not np.all((labels == 1) | (labels == -1)):
        raise ValueError("labels must each be -1 or +1")
    if np.all(labels > 0) or np.all(labels < 0):
        raise DegenerateLabelsError("training labels are all one class")
    phi = polynomial_features(X, feature_degree)
    path, converged = _gd_minimize(_weighted_logistic_objective(phi, labels, lam), np.zeros(phi.shape[1] + 1), config)
    return TrainedScorer(
        weights=path[-1, :-1].copy(),
        bias=float(path[-1, -1]),
        feature_degree=feature_degree,
        converged=converged,
        path=path,
        fit_inputs=(phi, labels, lam),
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


def _softmax_objective(phi: np.ndarray, y: np.ndarray, n_classes: int) -> _Objective:
    """Softmax cross-entropy over flattened (p + 1, K) weights; labels are 1..K.

    Its bracket is the exact loss at both ends, so the descent compares exact losses; the state is
    (z, log_norm, loss).  It sets no rounding scale, so no tangent plane rejects its doubled steps.
    """
    n, p = phi.shape
    labelled = (np.arange(n), y - 1)
    onehot = np.zeros((n, n_classes))
    onehot[labelled] = 1.0

    def bracket(theta):
        W = theta.reshape(p + 1, n_classes)
        z = phi @ W[:-1] + W[-1]
        _, total, zmax = _exp_shifted(z)
        log_norm = zmax[:, 0] + np.log(total[:, 0])
        loss = float((log_norm - z[labelled]).sum() / n)
        return loss, loss, (z, log_norm, loss)

    def grad(state):
        z, log_norm, _ = state
        resid = (np.exp(z - log_norm[:, None]) - onehot) / n
        return np.vstack([phi.T @ resid, resid.sum(axis=0)]).ravel()

    return _Objective(bracket, itemgetter(2), grad)


@dataclass(frozen=True)
class SoftmaxScorer:
    """Multinomial-logistic class probabilities over the raw features.

    ``path`` and ``fit_inputs`` (features, labels, K) give ``loss_trace`` on first read, as for
    ``TrainedScorer``.
    """

    weights: np.ndarray  # (n_features + 1, K), last row is the intercept
    converged: bool
    path: np.ndarray = field(repr=False)
    fit_inputs: tuple = field(repr=False)

    @cached_property
    def loss_trace(self) -> np.ndarray:
        return _loss_trace(_softmax_objective(*self.fit_inputs), self.path)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return softmax(polynomial_features(X, 1) @ self.weights[:-1] + self.weights[-1])


def train_softmax_classifier(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    config: OptimizerConfig = OptimizerConfig(),
) -> SoftmaxScorer:
    """Fit softmax cross-entropy by the same descent scheme; labels are 1..K."""
    y = np.array(y)  # a copy: the scorer keeps it for its loss trace
    if np.unique(y).size < 2:
        raise DegenerateLabelsError("softmax training needs at least two classes present")
    phi = polynomial_features(X, 1)
    theta0 = np.zeros((phi.shape[1] + 1) * n_classes)
    path, converged = _gd_minimize(_softmax_objective(phi, y, n_classes), theta0, config)
    return SoftmaxScorer(path[-1].reshape(phi.shape[1] + 1, n_classes).copy(), converged, path, (phi, y, n_classes))
