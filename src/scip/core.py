"""Shared domain types: prediction sets, informativeness constraints, datasets, RNG streams.

Prediction sets are held in columns, one set per row: an ``IntervalBatch``
(one real interval per row, for regression) or a ``ClassBatch`` (one
membership row over the classes 1..K per unit, for classification).
Informativeness constraints are monotone set predicates: whenever a set is
admissible, every nonempty subset of it is admissible too.  Each constraint
judges a whole batch at once with ``admits``, and knows its
"informativeness breakpoint" for a given nonconformity score: the largest
score radius nu such that the sublevel set {y : V(x, y) <= nu} is still
admissible (sets strictly inside the radius are admissible, sets at or
beyond it are not).  A ``Dataset`` and both batches select rows the same
way, with ``take``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ScipError(Exception):
    """Base class for all package errors."""


class TaskMismatchError(ScipError):
    """A label of the wrong task type was tested against a prediction set."""


class ConstraintViolationError(ScipError):
    """A set that must satisfy the active constraint does not."""


class UnsupportedScoreError(ScipError):
    """No closed-form breakpoint exists for this constraint/score pairing."""


class DegenerateLabelsError(ScipError):
    """Classifier training received a single-class label vector."""


class NotPositiveDefiniteError(ScipError):
    """A matrix required to be positive definite failed factorization."""


class UndefinedMetricError(ScipError):
    """A ratio metric was requested with a zero denominator."""


class ConfigError(ScipError):
    """An experiment configuration is invalid."""


# ---------------------------------------------------------------------------
# Rank counts
# ---------------------------------------------------------------------------


def _search_in_key_order(table: np.ndarray, keys: np.ndarray, *sides: str) -> tuple[np.ndarray, ...]:
    """``np.searchsorted(table, keys, side)`` per side, run over the keys ascending up to the packed low bits.

    Returns ``(order, *ranks)`` for 1-d ``keys``: ``order`` is a permutation of
    ``arange(m)`` that puts the keys in ascending order up to the packed low
    bits, and ``ranks[i]`` is where ``keys[order[i]]`` goes in ``table``, the
    same integer a plain search gives.  Callers work in key order and scatter
    back once with ``out[order] = ...``; the counts are exact in any order.
    Ascending keys walk a table far larger than the cache left to right;
    random keys miss it on nearly every probe.

    The order comes from one sort of int64 words: each key's float bits,
    mapped so that signed integer order is float order (-0.0 is folded into
    0.0, NaN sorts by its sign bit), with the low ``bits`` replaced by the
    key's index.  Keys that agree above those bits keep index order.
    """
    m = keys.size
    bits = max(1, (m - 1).bit_length())
    words = np.add(keys, 0.0, dtype=float).view(np.int64)
    words ^= (words >> 63) & 0x7FFF_FFFF_FFFF_FFFF
    words >>= bits
    words <<= bits
    words |= np.arange(m)
    words.sort()
    words &= (1 << bits) - 1
    ordered = keys[words]
    return (words, *(np.searchsorted(table, ordered, side=side) for side in sides))


# ---------------------------------------------------------------------------
# Set batches: one prediction set per row, held in columns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalBatch:
    """One interval per row: the set ``{y : lower[i] <(=) y <(=) upper[i]}``, strict at an open end.

    A row is empty when lower > upper, or when lower == upper and either
    end is open.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_open: np.ndarray
    upper_open: np.ndarray

    @classmethod
    def from_radius(cls, mu, radius) -> "IntervalBatch":
        """Closed residual sublevel intervals [mu - r, mu + r]: empty for r < 0 or a non-finite mu,
        the open line for r = inf."""
        mu, radius = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(radius, dtype=float))
        empty = (radius < 0.0) | ~np.isfinite(mu)
        full = radius == math.inf
        with np.errstate(invalid="ignore"):
            lower = np.where(empty, math.inf, mu - radius)
            upper = np.where(empty, -math.inf, mu + radius)
        return cls(lower, upper, full, full)

    @property
    def nonempty(self) -> np.ndarray:
        return (self.lower < self.upper) | ((self.lower == self.upper) & ~(self.lower_open | self.upper_open))

    def covers(self, y) -> np.ndarray:
        """Row i contains y[i], respecting open and closed ends."""
        y = np.asarray(y)
        if not np.issubdtype(y.dtype, np.floating):
            raise TaskMismatchError(f"interval membership needs real (float) labels, got {y.dtype}")
        above = (y > self.lower) | ((y == self.lower) & ~self.lower_open)
        below = (y < self.upper) | ((y == self.upper) & ~self.upper_open)
        return above & below

    def measure(self) -> np.ndarray:
        """Length per row; 0 for an empty row, inf for an unbounded one."""
        return np.subtract(self.upper, self.lower, out=np.zeros(self.lower.shape), where=self.nonempty)

    def take(self, rows) -> "IntervalBatch":
        return IntervalBatch(self.lower[rows], self.upper[rows], self.lower_open[rows], self.upper_open[rows])


@dataclass(frozen=True, eq=False)
class ClassBatch:
    """One class set per row as an (m, K) membership mask; column k is class k + 1."""

    member: np.ndarray

    @classmethod
    def from_radius(cls, probs, radius) -> "ClassBatch":
        """Classes whose probability keeps 1 - p within the row's score radius."""
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        return cls(1.0 - probs <= np.reshape(np.asarray(radius, dtype=float), (-1, 1)))

    @property
    def nonempty(self) -> np.ndarray:
        return self.member.any(axis=1)

    def covers(self, y) -> np.ndarray:
        """Row i contains class y[i]; labels outside 1..K are never covered."""
        y = np.asarray(y)
        if not np.issubdtype(y.dtype, np.integer):
            raise TaskMismatchError(f"class set membership needs integer labels, got {y.dtype}")
        n_classes = self.member.shape[1]
        inside = (y >= 1) & (y <= n_classes)
        return inside & self.member[np.arange(y.size), np.clip(y, 1, n_classes) - 1]

    def measure(self) -> np.ndarray:
        """Cardinality per row."""
        return self.member.sum(axis=1).astype(float)

    def take(self, rows) -> "ClassBatch":
        return ClassBatch(self.member[rows])


SetBatch = IntervalBatch | ClassBatch


# ---------------------------------------------------------------------------
# Informativeness constraints
# ---------------------------------------------------------------------------


class InformativeConstraint(ABC):
    """Monotone predicate over prediction sets plus a score breakpoint.

    ``admits(batch)`` judges each row's set; admissibility is inherited by
    every nonempty subset of an admitted set, and the value on an empty row
    is not part of the contract (empty sets are never reported).
    ``breakpoints(score, X)`` gives, per row of X, the largest score radius
    whose sublevel set is still admissible: ``math.inf`` when no radius ever
    violates the constraint, and NaN when no admissible nonempty sublevel set
    exists at all.
    """

    @abstractmethod
    def admits(self, batch: SetBatch) -> np.ndarray:
        ...

    @abstractmethod
    def breakpoints(self, score, X: np.ndarray) -> np.ndarray:
        ...


def _intervals(batch: SetBatch) -> IntervalBatch:
    if not isinstance(batch, IntervalBatch):
        raise TaskMismatchError("interval constraint applied to class sets")
    return batch


def _classes(batch: SetBatch) -> ClassBatch:
    if not isinstance(batch, ClassBatch):
        raise TaskMismatchError("class constraint applied to interval sets")
    return batch


_SCORE_KINDS = {"mu_hat": "absolute-residual", "p_hat": "one-minus-probability"}


def _score_fn(score, attr: str, constraint_name: str):
    """The score's fitted ``mu_hat`` or ``p_hat``, the one input a closed-form breakpoint reads."""
    fn = getattr(score, attr, None)
    if fn is None:
        raise UnsupportedScoreError(
            f"{constraint_name} has a closed-form breakpoint only for {_SCORE_KINDS[attr]} scores"
        )
    return fn


@dataclass(frozen=True)
class PositiveInterval(InformativeConstraint):
    """Intervals with a strictly positive lower end."""

    def admits(self, batch):
        return _intervals(batch).lower > 0.0

    def breakpoints(self, score, X):
        mu = np.asarray(_score_fn(score, "mu_hat", "PositiveInterval")(X), dtype=float)
        return np.where(mu > 0.0, mu, np.nan)


@dataclass(frozen=True)
class LowerBoundedInterval(InformativeConstraint):
    """Intervals lying within [c, inf)."""

    c: float

    def admits(self, batch):
        return _intervals(batch).lower >= self.c

    def breakpoints(self, score, X):
        mu = np.asarray(_score_fn(score, "mu_hat", "LowerBoundedInterval")(X), dtype=float)
        v = mu - self.c
        return np.where(v > 0.0, v, np.nan)


@dataclass(frozen=True)
class HalfLine(InformativeConstraint):
    """Subsets of the open half line (c0, inf)."""

    c0: float

    def admits(self, batch):
        b = _intervals(batch)
        return (b.lower > self.c0) | ((b.lower == self.c0) & b.lower_open)

    def breakpoints(self, score, X):
        mu = np.asarray(_score_fn(score, "mu_hat", "HalfLine")(X), dtype=float)
        v = mu - self.c0
        return np.where(v > 0.0, v, np.nan)


@dataclass(frozen=True)
class TargetHalfLines(InformativeConstraint):
    """Subsets of either (-inf, c_l) or (c_u, inf)."""

    c_l: float
    c_u: float

    def __post_init__(self):
        if self.c_l > self.c_u:
            raise ValueError("need c_l <= c_u")

    def admits(self, batch):
        b = _intervals(batch)
        below = (b.upper < self.c_l) | ((b.upper == self.c_l) & b.upper_open)
        above = (b.lower > self.c_u) | ((b.lower == self.c_u) & b.lower_open)
        return below | above

    def breakpoints(self, score, X):
        mu = np.asarray(_score_fn(score, "mu_hat", "TargetHalfLines")(X), dtype=float)
        v = np.maximum(self.c_l - mu, mu - self.c_u)
        return np.where(v > 0.0, v, np.nan)


@dataclass(frozen=True)
class MaxSize(InformativeConstraint):
    """Class sets with at most k0 members."""

    k0: int

    def __post_init__(self):
        if self.k0 < 1:
            raise ValueError("k0 must be >= 1")

    def admits(self, batch):
        return _classes(batch).member.sum(axis=1) <= self.k0

    def breakpoints(self, score, X):
        probs = np.asarray(_score_fn(score, "p_hat", "MaxSize")(X), dtype=float)
        n, n_classes = probs.shape
        if n_classes <= self.k0:
            return np.full(n, math.inf)
        # 1 minus the (k0+1)-th largest class probability per row
        kth = np.partition(probs, n_classes - self.k0 - 1, axis=1)[:, n_classes - self.k0 - 1]
        return 1.0 - kth


@dataclass(frozen=True)
class SingletonClass(InformativeConstraint):
    """Class sets contained in {y0}."""

    y0: int

    def admits(self, batch):
        member = _classes(batch).member
        others = np.arange(1, member.shape[1] + 1) != self.y0
        return ~(member & others).any(axis=1)

    def breakpoints(self, score, X):
        probs = np.asarray(_score_fn(score, "p_hat", "SingletonClass")(X), dtype=float)
        if probs.shape[1] < 2:
            return np.full(probs.shape[0], math.inf)
        top = np.argmax(probs, axis=1)  # smallest index wins ties
        second = np.partition(probs, probs.shape[1] - 2, axis=1)[:, probs.shape[1] - 2]
        return np.where(top == self.y0 - 1, 1.0 - second, np.nan)


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

REGRESSION = "regression"
CLASSIFICATION = "classification"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus optional labels; all rows share d and task type."""

    X: np.ndarray
    y: np.ndarray | None
    task: str

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError("features must form an (n, d) matrix")
        object.__setattr__(self, "X", _freeze(X))
        if self.task not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task {self.task!r}")
        if self.y is not None:
            if self.task == REGRESSION:
                y = np.asarray(self.y, dtype=float)
                if not np.all(np.isfinite(y)):
                    raise ValueError("regression labels must be finite")
            else:
                y = np.asarray(self.y)
                if not np.issubdtype(y.dtype, np.integer):
                    raise TaskMismatchError("classification labels must be integers")
                if y.size and y.min() < 1:
                    raise ValueError("class labels are 1-based")
            if y.shape != (X.shape[0],):
                raise ValueError("labels must align with feature rows")
            object.__setattr__(self, "y", _freeze(y))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    def take(self, rows) -> "Dataset":
        """The rows picked by a slice or an index array, as a Dataset of the same task."""
        return Dataset(self.X[rows], None if self.y is None else self.y[rows], self.task)


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """A reproducible, platform-stable random stream keyed by (seed, stream path).

    Distinct stream paths under one seed are statistically independent by the
    SeedSequence spawn-key construction, so replications and stages can be
    scheduled in any order without changing results.
    """

    seed: int
    stream: tuple[int, ...] = ()

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.stream + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        return np.random.Generator(np.random.PCG64(ss))

    def uniform_open_closed(self, size=None):
        """Tie-breaking draws in (0, 1]; matches the deterministic U = 1 corner."""
        return 1.0 - self.generator().random(size)


MuHatFn = Callable[[np.ndarray], np.ndarray]
ProbFn = Callable[[np.ndarray], np.ndarray]
