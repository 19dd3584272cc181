"""Synthetic data-generating processes for the simulation studies.

Regression: Y = (2X^2 + 1)/6 + eps with X ~ N(0, 1) and eps ~ N(0, sd^2),
sd = 1/2 by default (the noise variance 1/4 is read as a variance; the sd is
exposed to remove any ambiguity).  The predictive family
mu_hat(x; eta) = {(eta + 2) x^2 + (1 - eta^3)}/6 recovers the truth at eta = 0
and degrades as eta grows.

Classification: four classes on two independent standard normal features with
softmax class probabilities (``trust.softmax``); the probability estimator is a
multinomial logistic fit on an independent training block.  Every class label
is drawn by ``draw_labels``, and every frozen predictor reads its input
through ``first_feature``.

Score-only profiles stand in for the real-data studies: they emit frozen
predictions and labels whose constraint-feasible fraction is configurable.
The dti-like threshold is the one scipy call here (``scipy.special.ndtri``),
and it imports scipy only when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CLASSIFICATION, REGRESSION, Dataset, RngStream
from .trust import OptimizerConfig, SoftmaxScorer, softmax, train_softmax_classifier

NOISE_SD = 0.5

CLASS_BETA = np.array(
    [
        [1.0, -1.0],
        [-1.0, 1.0],
        [1.0, 0.5],
        [0.5, 1.0],
    ]
)


def mu_star(x):
    """True regression function (2x^2 + 1)/6."""
    x = np.asarray(x, dtype=float)
    return (2.0 * x**2 + 1.0) / 6.0


def first_feature(X) -> np.ndarray:
    """The first column of an (n, d) feature matrix; a 1-d input is returned as floats."""
    X = np.asarray(X, dtype=float)
    return X[:, 0] if X.ndim == 2 else X


def draw_labels(probs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One label in 1..K per row of an (n, K) probability matrix, from one uniform per row."""
    cum = probs.cumsum(axis=1)
    return 1 + (gen.random((probs.shape[0], 1)) > cum[:, :-1]).sum(axis=1)


@dataclass(frozen=True)
class MuHatEta:
    """Frozen predictive function {(eta + 2) x^2 + (1 - eta^3)}/6 on the first feature."""

    eta: float

    def __call__(self, X) -> np.ndarray:
        x = first_feature(X)
        return ((self.eta + 2.0) * x**2 + (1.0 - self.eta**3)) / 6.0


def gen_regression(
    n_total: int,
    eta: float,
    rng: RngStream,
    noise_sd: float = NOISE_SD,
) -> tuple[Dataset, MuHatEta]:
    """I.i.d. draws from the regression model plus the frozen eta-predictor."""
    if n_total < 1:
        raise ValueError("need at least one draw")
    gen = rng.generator()
    x = gen.standard_normal(n_total)
    y = mu_star(x) + noise_sd * gen.standard_normal(n_total)
    return Dataset(x[:, None], y, REGRESSION), MuHatEta(eta)


def true_class_probs(X) -> np.ndarray:
    """Softmax class probabilities of the four-class model."""
    return softmax(np.asarray(X, dtype=float) @ CLASS_BETA.T)


def _draw_classification(n: int, gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    X = gen.standard_normal((n, 2))
    return X, draw_labels(true_class_probs(X), gen)


def gen_classification(
    n_total: int,
    rng: RngStream,
    train_size: int | None = None,
    optimizer: OptimizerConfig = OptimizerConfig(),
) -> tuple[Dataset, SoftmaxScorer]:
    """I.i.d. class draws plus a probability estimator fit on an extra block.

    The extra block is independent of the returned sample; its size defaults
    to the calibration-sized convention n_total // 2.
    """
    if n_total < 1:
        raise ValueError("need at least one draw")
    gen_data = rng.child(0).generator()
    gen_train = rng.child(1).generator()
    X, y = _draw_classification(n_total, gen_data)
    size = max(2, n_total // 2 if train_size is None else train_size)
    Xtr, ytr = _draw_classification(size, gen_train)
    p_hat = train_softmax_classifier(Xtr, ytr, n_classes=4, config=optimizer)
    return Dataset(X, y, CLASSIFICATION), p_hat


# ---------------------------------------------------------------------------
# Score-only stand-ins for the real-data pipelines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoredProbs:
    """Frozen class-probability table keyed by row index stored in the feature."""

    table: np.ndarray

    def __call__(self, X) -> np.ndarray:
        return self.table[first_feature(X).astype(int)]


@dataclass(frozen=True)
class SyntheticScores:
    """A score-only dataset: frozen predictions, labels, and the feasibility threshold."""

    data: Dataset
    predictor: object
    threshold: float | None
    n_classes: int | None


def gen_synthetic_scores(
    profile: str,
    n_total: int,
    rng: RngStream,
    feasible_frac: float = 0.5,
    sharpness: float = 1.5,
) -> SyntheticScores:
    """Emit (prediction, label) pairs shaped like the real-data studies.

    ``dti-like``: real-valued affinities with a lower-bound constraint whose
    threshold, the standard normal quantile ``ndtri(1 - feasible_frac)``, is
    placed so that roughly ``feasible_frac`` of units can ever receive an
    admissible interval (``math.inf`` when ``feasible_frac <= 0``).
    ``cifar-like``: three-class softmax scores whose concentration is
    controlled by ``sharpness``.
    """
    gen = rng.generator()
    if profile == "dti-like":
        mu = gen.standard_normal(n_total)
        # heteroskedastic residuals: the promising (high-prediction) units are
        # the noisy ones, which is what makes unadjusted selection overshoot
        scale = NOISE_SD * (0.5 + 1.2 * np.maximum(mu, 0.0))
        y = mu + scale * gen.standard_normal(n_total)
        if feasible_frac <= 0.0:
            threshold = math.inf
        else:
            from scipy.special import ndtri

            threshold = float(ndtri(1.0 - feasible_frac))
        data = Dataset(mu[:, None], y, REGRESSION)
        return SyntheticScores(data, first_feature, threshold, None)
    if profile == "cifar-like":
        k = 3
        features = gen.standard_normal((n_total, 2))
        # per-unit difficulty: confident regions mixed with nearly diffuse ones
        scale = np.exp(gen.standard_normal(n_total))[:, None]
        logits = sharpness * scale * (features @ _CIFAR_BETA.T)
        probs = softmax(logits)
        store = probs
        if feasible_frac <= 0.0:
            # flatten the table: no set below the full class space is reachable
            store = np.full((n_total, k), 1.0 / k)
        y = draw_labels(probs, gen)
        data = Dataset(np.arange(n_total, dtype=float)[:, None], y, CLASSIFICATION)
        return SyntheticScores(data, StoredProbs(store), None, k)
    raise ValueError(f"unknown profile {profile!r}")


_CIFAR_BETA = np.array([[1.6, 0.0], [-0.8, 1.4], [-0.8, -1.4]])
