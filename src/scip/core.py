"""Shared domain types: prediction sets, informativeness constraints, datasets, RNG streams.

Prediction sets are either finite class subsets (classification) or finite
unions of real intervals (regression).  Informativeness constraints are
monotone set predicates: whenever a set is admissible, every subset of it is
admissible too, and the empty set is always admissible.  Each constraint also
knows its "informativeness breakpoint" for a given nonconformity score: the
largest score radius nu such that the sublevel set {y : V(x, y) <= nu} is
still admissible (sets strictly inside the radius are admissible, sets at or
beyond it are not).

Procedures hold their reported sets in columns: an ``IntervalBatch`` (one
interval per row) or a ``ClassBatch`` (one membership row per unit).  Each
constraint judges a whole batch at once with ``admits``; the set objects are
built from a batch only when a caller asks for them.
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
# Prediction sets
# ---------------------------------------------------------------------------


def _is_int_label(y) -> bool:
    return isinstance(y, (int, np.integer)) and not isinstance(y, (bool, np.bool_))


def _is_real_label(y) -> bool:
    return isinstance(y, (float, np.floating))


@dataclass(frozen=True)
class ClassSet:
    """A finite subset of class indices 1..K; ``members`` is sorted and unique."""

    members: tuple[int, ...]

    def __post_init__(self):
        for k in self.members:
            if not _is_int_label(k) or k < 1:
                raise ValueError(f"class indices must be integers >= 1, got {k!r}")
        if any(a >= b for a, b in zip(self.members, self.members[1:])):
            raise ValueError("class members must be strictly increasing")
        object.__setattr__(self, "members", tuple(int(k) for k in self.members))

    @property
    def is_empty(self) -> bool:
        return not self.members

    def contains(self, y) -> bool:
        if not _is_int_label(y):
            raise TaskMismatchError(f"class set membership needs an integer label, got {y!r}")
        return int(y) in self.members

    def measure(self) -> float:
        return float(len(self.members))


@dataclass(frozen=True)
class Interval:
    """One real interval with explicit open/closed endpoints; infinite ends are open."""

    lower: float
    upper: float
    lower_open: bool = False
    upper_open: bool = False

    def __post_init__(self):
        lo, up = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(up):
            raise ValueError("interval endpoints must not be NaN")
        if math.isinf(lo) and not self.lower_open:
            raise ValueError("an infinite lower endpoint must be open")
        if math.isinf(up) and not self.upper_open:
            raise ValueError("an infinite upper endpoint must be open")
        if lo > up or (lo == up and (self.lower_open or self.upper_open)):
            raise ValueError(f"empty interval ({lo}, {up})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    def contains(self, y: float) -> bool:
        if self.lower_open:
            if y <= self.lower:
                return False
        elif y < self.lower:
            return False
        if self.upper_open:
            if y >= self.upper:
                return False
        elif y > self.upper:
            return False
        return True

    def length(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class IntervalUnion:
    """A finite union of disjoint, sorted, non-mergeable intervals (possibly empty)."""

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.intervals, self.intervals[1:]):
            if a.upper > b.lower:
                raise ValueError("intervals must be disjoint and sorted by lower endpoint")
            if a.upper == b.lower and not (a.upper_open and b.lower_open):
                raise ValueError("adjacent intervals sharing a covered endpoint must be merged")

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, y) -> bool:
        if _is_int_label(y) or not _is_real_label(y):
            raise TaskMismatchError(
                f"interval membership needs a real (float) label, got {y!r}"
            )
        return any(iv.contains(float(y)) for iv in self.intervals)

    def measure(self) -> float:
        return float(sum(iv.length() for iv in self.intervals))


PredictionSet = ClassSet | IntervalUnion

EMPTY_INTERVAL_UNION = IntervalUnion(())


def interval(lower, upper, lower_open=False, upper_open=False) -> IntervalUnion:
    """Convenience constructor for a single-interval prediction set."""
    return IntervalUnion((Interval(lower, upper, lower_open, upper_open),))


# ---------------------------------------------------------------------------
# Rank counts
# ---------------------------------------------------------------------------


def _search_in_key_order(table: np.ndarray, keys: np.ndarray, *sides: str) -> tuple[np.ndarray, ...]:
    """``np.searchsorted(table, keys, side)`` per side, run over the keys in ascending order.

    Returns ``(order, *ranks)`` for 1-d ``keys``: ``order = np.argsort(keys)``
    and ``ranks[i]`` is where ``keys[order[i]]`` goes in ``table``, the same
    integer a plain search gives (NaN sorts last in both).  Callers work in key
    order and scatter back once with ``out[order] = ...``.  Ascending keys walk
    a table far larger than the cache left to right; random keys miss it on
    nearly every probe.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    return (order, *(np.searchsorted(table, ordered, side=side) for side in sides))


# ---------------------------------------------------------------------------
# Set batches: one prediction set per row, held in columns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalBatch:
    """One interval per row; every row is a valid ``Interval`` or has lower > upper (empty).

    Row i is the set ``{y : lower[i] <(=) y <(=) upper[i]}``, with a strict
    inequality at an open end.
    """

    lower: np.ndarray
    upper: np.ndarray
    lower_open: np.ndarray
    upper_open: np.ndarray

    @classmethod
    def from_radius(cls, mu, radius) -> "IntervalBatch":
        """Closed residual sublevel intervals [mu - r, mu + r]: empty for r < 0, the open line for r = inf."""
        mu, radius = np.broadcast_arrays(np.asarray(mu, dtype=float), np.asarray(radius, dtype=float))
        empty = radius < 0.0
        full = radius == math.inf
        with np.errstate(invalid="ignore"):
            lower = np.where(empty, math.inf, mu - radius)
            upper = np.where(empty, -math.inf, mu + radius)
        return cls(lower, upper, full, full)

    @property
    def nonempty(self) -> np.ndarray:
        return self.lower <= self.upper

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
        return np.where(self.nonempty, self.upper - self.lower, 0.0)

    def take(self, rows) -> "IntervalBatch":
        return IntervalBatch(self.lower[rows], self.upper[rows], self.lower_open[rows], self.upper_open[rows])

    def sets(self) -> tuple[IntervalUnion, ...]:
        columns = (self.lower, self.upper, self.lower_open, self.upper_open)
        return tuple(
            interval(lo, up, lo_open, up_open) if lo <= up else EMPTY_INTERVAL_UNION
            for lo, up, lo_open, up_open in zip(*(c.tolist() for c in columns))
        )


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

    def sets(self) -> tuple[ClassSet, ...]:
        return tuple(ClassSet(tuple((np.flatnonzero(row) + 1).tolist())) for row in self.member)


SetBatch = IntervalBatch | ClassBatch


def _one_row_batch(pset: PredictionSet) -> SetBatch:
    """A one-row batch judged like ``pset``: an interval union enters as its hull.

    Every interval constraint reads only the lowest lower end and the highest
    upper end of a sorted, disjoint union, so its hull is judged the same.
    """
    if isinstance(pset, ClassSet):
        member = np.zeros((1, max(pset.members, default=0)), dtype=bool)
        member[0, np.asarray(pset.members, dtype=int) - 1] = True
        return ClassBatch(member)
    if not pset.intervals:
        return IntervalBatch.from_radius([0.0], [-1.0])  # one empty row
    first, last = pset.intervals[0], pset.intervals[-1]
    return IntervalBatch(
        np.array([first.lower]),
        np.array([last.upper]),
        np.array([first.lower_open]),
        np.array([last.upper_open]),
    )


# ---------------------------------------------------------------------------
# Informativeness constraints
# ---------------------------------------------------------------------------


class InformativeConstraint(ABC):
    """Monotone predicate over prediction sets plus a score breakpoint.

    Admissibility must be monotone (it is inherited by subsets) and the
    empty set is always admissible.  ``admits`` judges every nonempty row of
    a set batch at once (its value on an empty row is not part of the
    contract); ``contains`` judges one set through it.  ``breakpoints(score,
    X)`` gives, per row of X, the largest score radius whose sublevel set is
    still admissible: ``math.inf`` when no radius ever violates the
    constraint, and NaN when no admissible nonempty sublevel set exists at
    all.
    """

    @abstractmethod
    def admits(self, batch: SetBatch) -> np.ndarray:
        ...

    def contains(self, pset: PredictionSet) -> bool:
        return bool(self.admits(_one_row_batch(pset))[0]) or pset.is_empty

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


def _require_residual_score(score, constraint_name: str):
    mu_hat = getattr(score, "mu_hat", None)
    if mu_hat is None or getattr(score, "kind", "") != "absolute_residual":
        raise UnsupportedScoreError(
            f"{constraint_name} has a closed-form breakpoint only for absolute-residual scores"
        )
    return mu_hat


def _require_class_prob_score(score, constraint_name: str):
    p_hat = getattr(score, "p_hat", None)
    if p_hat is None or getattr(score, "kind", "") != "one_minus_prob":
        raise UnsupportedScoreError(
            f"{constraint_name} has a closed-form breakpoint only for one-minus-probability scores"
        )
    return p_hat


@dataclass(frozen=True)
class PositiveInterval(InformativeConstraint):
    """Interval unions whose every interval has strictly positive lower endpoint."""

    def admits(self, batch):
        return _intervals(batch).lower > 0.0

    def breakpoints(self, score, X):
        mu = np.asarray(_require_residual_score(score, "PositiveInterval")(X), dtype=float)
        return np.where(mu > 0.0, mu, np.nan)


@dataclass(frozen=True)
class LowerBoundedInterval(InformativeConstraint):
    """Interval unions lying within [c, inf)."""

    c: float

    def admits(self, batch):
        return _intervals(batch).lower >= self.c

    def breakpoints(self, score, X):
        mu = np.asarray(_require_residual_score(score, "LowerBoundedInterval")(X), dtype=float)
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
        mu = np.asarray(_require_residual_score(score, "HalfLine")(X), dtype=float)
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
        mu = np.asarray(_require_residual_score(score, "TargetHalfLines")(X), dtype=float)
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
        probs = np.asarray(_require_class_prob_score(score, "MaxSize")(X), dtype=float)
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
        probs = np.asarray(_require_class_prob_score(score, "SingletonClass")(X), dtype=float)
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
