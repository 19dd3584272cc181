"""Shared domain types: prediction sets, informativeness constraints, datasets, RNG streams.

Prediction sets are held in columns, one set per row: an ``IntervalBatch``
(one closed float interval per row, for regression; an open end is held as
the next float inside it) or a ``ClassBatch`` (one membership row over the
classes 1..K per unit, for classification).
Informativeness constraints are monotone set predicates: whenever a set is
admissible, every nonempty subset of it is admissible too.  Each constraint
judges a whole batch at once with ``admits``, and reads a score's
predictions (``mu_hat`` values or class probabilities) to give each row's
"informativeness breakpoint": the largest score radius nu such that the
sublevel set {y : V(x, y) <= nu} is still admissible (sets strictly inside
the radius are admissible, sets beyond it by more than rounding are not),
and -inf when no admissible nonempty sublevel set exists.  A ``Dataset``
and both batches select rows the same way, with ``take``.
"""

from __future__ import annotations

import math
import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
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


# fewer indices than two chunks of this size run as one chunk, inline
_CHUNK_KEYS = 1 << 16
# the largest array a chunk allocates holds this many keys
_BLOCK_KEYS = 1 << 15
# a block of more keys than this is searched in runs of this many, each inside its table window
_WINDOW_KEYS = 1 << 12


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_chunks(m: int, fn: Callable[[int, int], object]) -> list:
    """``fn(lo, hi)`` over contiguous index chunks that cover ``range(m)``, in chunk order.

    One chunk, run inline, below two chunks of ``_CHUNK_KEYS`` indices;
    otherwise one chunk per usable CPU, each in its own thread (so
    ``taskset`` limits them).  Returns each chunk's result; an exception in
    any chunk is raised here, once every chunk has ended.  The split only
    decides how many threads run, so ``fn`` must give the same bits on any
    split: each chunk writes only its own slots of arrays its caller
    allocated.  Threads run numpy calls and private helpers only (a public
    function may carry a tracing wrapper that is not thread safe), and numpy's
    error state does not reach them, so ``fn`` sets its own ``np.errstate``.
    glibc gives each thread its own malloc arena, and whole-chunk temporaries
    freed there stay resident, so ``fn`` allocates nothing larger than a block
    of ``_BLOCK_KEYS`` indices or so.
    """
    n_chunks = 1 if m < 2 * _CHUNK_KEYS else min(_usable_cpus(), m // _CHUNK_KEYS)
    if n_chunks == 1:
        return [fn(0, m)]
    bounds = [m * i // n_chunks for i in range(n_chunks + 1)]
    # an executor per call: a process forked later (the CLI's worker pool) inherits no
    # executor whose threads are gone
    with ThreadPoolExecutor(n_chunks) as pool:
        return [done.result() for done in [pool.submit(fn, lo, hi) for lo, hi in zip(bounds, bounds[1:])]]


def _ranks(table: np.ndarray, keys: np.ndarray, *sides: str) -> tuple[np.ndarray, ...]:
    """``np.searchsorted(table, keys, side)`` for each side, in the keys' own order.

    ``table`` is sorted and holds no NaN; ``keys`` is 1-d.  The keys run in
    ``_in_chunks``' contiguous index chunks.  Each chunk runs the whole
    chain on its own keys: it packs each key's float bits, mapped so that
    signed integer order is float order (-0.0 is folded into 0.0, NaN sorts
    by its sign bit), with the key's index within the chunk in the low bits;
    sorts its own words in place; then takes its keys in that order, searches
    them and scatters the ranks into its own slots of the outputs.  Ascending
    keys walk a table far larger than the cache left to right; random keys
    miss it on nearly every probe.  Chunks share nothing but disjoint slices
    of arrays allocated here, so the ranks are the same integers whatever
    the split.

    A chunk allocates nothing larger than ``_BLOCK_KEYS`` keys: it packs,
    gathers, searches and scatters block by block.  With whole-chunk blocks,
    the large-pool benchmark (n = m = 1e6, two threads) peaked at 347 MB of
    RSS against 305 MB.  A chunk allocates its block buffers once;
    ``_search`` reads a table window per run of keys.

    With both sides asked for and at least a block of keys, only ``left`` is
    searched: a key equal to ``table[left]`` ends its run of ties at
    ``run_end[left]``, and for every other key ``right == left``.  Below a
    block, building ``run_end`` costs more than a second search.

    A rank is at most ``table.size``, so the ranks (and ``run_end``) are
    int32 whenever ``table.size + 1`` fits in int32 (a caller may add one to
    a count in place), and intp otherwise.  ``run_end`` is built before the
    outputs and the packed words are allocated, so its temporaries never
    live beside them.  With both sides, the outputs and the words hold 16
    bytes per key.
    """
    m = keys.size
    dtype = _rank_dtype(table.size)
    derive = "left" in sides and "right" in sides and m >= _BLOCK_KEYS and table.size > 0
    run_end = _run_ends(table) if derive else None
    outs = [np.empty(m, dtype=dtype) for _ in sides]
    words = np.empty(m, dtype=np.int64)
    _in_chunks(m, partial(_rank_chunk, table, keys, words, sides, outs, run_end))
    return tuple(outs)


def _rank_dtype(table_size: int) -> type:
    """int32 when every count up to ``table_size + 1`` fits in it, else intp."""
    return np.int32 if table_size + 1 <= np.iinfo(np.int32).max else np.intp


def _run_ends(table: np.ndarray) -> np.ndarray:
    """Per index of a sorted table, one past the last index of its run of equal values."""
    n = table.size
    starts = np.ones(n + 1, dtype=bool)
    np.not_equal(table[1:], table[:-1], out=starts[1:n])
    starts = np.flatnonzero(starts).astype(_rank_dtype(n))  # every run's start, then n
    return np.repeat(starts[1:], np.diff(starts))


def _rank_chunk(table, keys, words, sides, outs, run_end, lo: int, hi: int):
    """The ranks of ``keys[lo:hi]``, written to ``outs[s][lo:hi]``; ``words[lo:hi]`` is scratch."""
    chunk = words[lo:hi]
    bits = max(1, (hi - lo - 1).bit_length())
    for start in range(0, hi - lo, _BLOCK_KEYS):
        part = chunk[start : start + _BLOCK_KEYS]
        np.add(keys[lo + start : lo + start + part.size], 0.0, out=part.view(np.float64))
        part ^= (part >> 63) & 0x7FFF_FFFF_FFFF_FFFF
        part >>= bits
        part <<= bits
        part |= np.arange(start, start + part.size)
    chunk.sort()
    buffers = [np.empty(min(_BLOCK_KEYS, hi - lo), t) for t in (keys.dtype, float, bool, outs[0].dtype, outs[0].dtype)]
    for start in range(0, hi - lo, _BLOCK_KEYS):
        at = chunk[start : start + _BLOCK_KEYS]
        at &= (1 << bits) - 1
        at += lo
        block, near, ne, left, right = (buffer[: at.size] for buffer in buffers)
        np.take(keys, at, out=block, mode="clip")  # in range; mode "raise" would buffer the output
        if run_end is None:
            for out, side in zip(outs, sides):
                _search(table, block, side, left)
                out[at] = left
            continue
        _search(table, block, "left", left)
        np.take(table, left, out=near, mode="clip")  # clip reads index min(left, table.size - 1)
        np.not_equal(near, block, out=ne)
        np.take(run_end, left, out=right, mode="clip")
        np.copyto(right, left, where=ne)  # a key with no tie in the table: right == left
        for out, side in zip(outs, sides):
            out[at] = left if side == "left" else right


def _search(table, block, side: str, out):
    """``out[:] = np.searchsorted(table, block, side)``, in runs of ``_WINDOW_KEYS`` keys past that many.

    A run reads only ``table[lo:hi]``, from its least key's left rank to its greatest's right rank,
    which holds every rank of the run whatever its order (1e6 ascending keys, 1e6-row table, 2^15-key
    blocks, one thread: 32 ms against 40 for plain searches, alike for windows of 2^11 to 2^14).
    ``fmin`` skips NaN and ``max`` keeps it: a run with a NaN has hi = table.size, where NaN ranks.
    A block of one run is searched whole (reg-sweep's 1,000 keys: 20 us a call, 35 through a window)."""
    if block.size <= _WINDOW_KEYS:
        out[:] = np.searchsorted(table, block, side)
        return
    for start in range(0, block.size, _WINDOW_KEYS):
        run = block[start : start + _WINDOW_KEYS]
        lo = np.searchsorted(table, np.fmin.reduce(run), "left")
        hi = np.searchsorted(table, run.max(), "right")
        np.add(np.searchsorted(table[lo:hi], run, side), lo, out=out[start : start + run.size])


# ---------------------------------------------------------------------------
# Set batches: one prediction set per row, held in columns
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class IntervalBatch:
    """One closed float interval per row: the set ``{y : lower[i] <= y <= upper[i]}``.

    An open end at c is held as the next float inside it (``np.nextafter``), which holds the same
    finite labels.  A row is empty when it holds no finite float (lower > upper, lower = inf, upper =
    -inf or a NaN end); a ±inf label lies in a nonempty row whose end on its side is infinite.
    """

    lower: np.ndarray
    upper: np.ndarray

    @classmethod
    def from_radius(cls, mu, radius) -> "IntervalBatch":
        """Residual sublevel intervals [mu - r, mu + r]: empty for r < 0 or a non-finite mu, the
        whole line for r = inf; an end past the float range rounds to an infinite one."""
        radius = np.where(np.less(radius, 0.0), -math.inf, radius)  # empty even where mu -+ r rounds to mu
        with np.errstate(invalid="ignore", over="ignore"):
            return cls(np.subtract(mu, radius), np.add(mu, radius))

    @property
    def nonempty(self) -> np.ndarray:
        return (self.lower <= self.upper) & (self.lower < math.inf) & (self.upper > -math.inf)

    def covers(self, y) -> np.ndarray:
        """Row i is nonempty and contains y[i]."""
        y = np.asarray(y)
        if not np.issubdtype(y.dtype, np.floating):
            raise TaskMismatchError(f"interval membership needs real (float) labels, got {y.dtype}")
        return self.nonempty & (y >= self.lower) & (y <= self.upper)

    def measure(self) -> np.ndarray:
        """Length per row; 0 for an empty row, inf for an unbounded one."""
        return np.subtract(self.upper, self.lower, out=np.zeros(self.lower.shape), where=self.nonempty)

    def take(self, rows) -> "IntervalBatch":
        return IntervalBatch(self.lower[rows], self.upper[rows])


@dataclass(frozen=True, eq=False)
class ClassBatch:
    """One class set per row as an (m, K) membership mask; column k is class k + 1."""

    member: np.ndarray

    @classmethod
    def from_radius(cls, probs, radius) -> "ClassBatch":
        """Classes whose probability keeps 1 - p within the row's score radius; a row holding
        a NaN or infinite probability is empty at every radius."""
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        within = 1.0 - probs <= np.reshape(np.asarray(radius, dtype=float), (-1, 1))
        return cls(within & _finite_rows(probs)[:, None])

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
    ``breakpoints(pred)`` reads a score's predictions (``mu_hat`` values of
    shape (n,) for an interval constraint, class probabilities of shape (n, K)
    for a class constraint) and gives, per row, the largest score radius whose
    sublevel set is still admissible: ``math.inf`` when no radius ever violates
    the constraint, and ``-math.inf`` when no admissible nonempty set exists.
    Every radius below the breakpoint gives an admitted (or empty) set, and
    every radius beyond it by more than rounding a rejected (or empty) one: a
    breakpoint is taken one float past a constant where rounding would put a
    set's end on it.  So the I-adjusted p-value is exact except for
    calibration scores within rounding of the breakpoint, where it is
    conservative.
    """

    @abstractmethod
    def admits(self, batch: SetBatch) -> np.ndarray:
        ...

    @abstractmethod
    def breakpoints(self, pred: np.ndarray) -> np.ndarray:
        ...


def _finite_rows(probs: np.ndarray) -> np.ndarray:
    """Rows of an (n, K) probability matrix with no NaN or infinite entry."""
    return np.isfinite(probs).all(axis=1)


def _intervals(batch: SetBatch) -> IntervalBatch:
    if not isinstance(batch, IntervalBatch):
        raise TaskMismatchError("interval constraint applied to class sets")
    return batch


def _classes(batch: SetBatch) -> ClassBatch:
    if not isinstance(batch, ClassBatch):
        raise TaskMismatchError("class constraint applied to interval sets")
    return batch


def _predictions(pred, ndim: int, constraint_name: str) -> np.ndarray:
    """The predictions a breakpoint reads: ``mu_hat`` values (ndim 1) or class probabilities (ndim 2)."""
    pred = np.asarray(pred, dtype=float)
    if pred.ndim != ndim:
        kind = "absolute-residual" if ndim == 1 else "one-minus-probability"
        raise UnsupportedScoreError(f"{constraint_name} has a closed-form breakpoint only for {kind} scores")
    return pred


def _positive_or_never(v: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """The interval breakpoint v where it is positive and mu is finite, else -inf.

    A NaN or infinite mu has an empty set at every radius
    (``IntervalBatch.from_radius``), so it has no admissible nonempty set.
    v is formed without warnings: mu - c past ±max is the ±inf it stands for, inf - inf a NaN.
    """
    return np.where((v > 0.0) & np.isfinite(mu), v, -math.inf)


def _past_rounding(constraint: InformativeConstraint, mu, nu, nu_past) -> np.ndarray:
    """``_positive_or_never`` of nu, or of nu_past where the closed set at the largest radius below nu is not admitted.

    nu = fl(mu - c) is rounded, so that set can end exactly on the constant
    c.  ``nu_past`` is nu taken against the next float past c; every radius
    below it keeps the set's end strictly on the admitted side of c.
    """
    inside = IntervalBatch.from_radius(mu, np.nextafter(nu, -math.inf))
    return _positive_or_never(np.where(constraint.admits(inside), nu, nu_past), mu)


@dataclass(frozen=True)
class PositiveInterval(InformativeConstraint):
    """Intervals with a strictly positive lower end."""

    def admits(self, batch):
        return _intervals(batch).lower > 0.0

    def breakpoints(self, pred):
        mu = _predictions(pred, 1, "PositiveInterval")
        return _positive_or_never(mu, mu)


@dataclass(frozen=True)
class LowerBoundedInterval(InformativeConstraint):
    """Intervals lying within [c, inf)."""

    c: float

    def admits(self, batch):
        return _intervals(batch).lower >= self.c

    def breakpoints(self, pred):
        mu = _predictions(pred, 1, "LowerBoundedInterval")
        with np.errstate(over="ignore", invalid="ignore"):
            return _positive_or_never(mu - self.c, mu)


@dataclass(frozen=True)
class HalfLine(InformativeConstraint):
    """Subsets of the open half line (c0, inf)."""

    c0: float

    def admits(self, batch):
        return _intervals(batch).lower > self.c0

    def breakpoints(self, pred):
        mu = _predictions(pred, 1, "HalfLine")
        with np.errstate(over="ignore", invalid="ignore"):
            return _past_rounding(self, mu, mu - self.c0, mu - np.nextafter(self.c0, math.inf))


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
        return (b.upper < self.c_l) | (b.lower > self.c_u)

    def breakpoints(self, pred):
        mu = _predictions(pred, 1, "TargetHalfLines")
        with np.errstate(over="ignore", invalid="ignore"):
            nu = np.maximum(self.c_l - mu, mu - self.c_u)
            past = np.maximum(np.nextafter(self.c_l, -math.inf) - mu, mu - np.nextafter(self.c_u, math.inf))
            return _past_rounding(self, mu, nu, past)


@dataclass(frozen=True)
class MaxSize(InformativeConstraint):
    """Class sets with at most k0 members."""

    k0: int

    def __post_init__(self):
        if self.k0 < 1:
            raise ValueError("k0 must be >= 1")

    def admits(self, batch):
        return _classes(batch).member.sum(axis=1) <= self.k0

    def breakpoints(self, pred):
        probs = _predictions(pred, 2, "MaxSize")
        n_classes = probs.shape[1]
        if n_classes <= self.k0:
            v = np.full(probs.shape[0], math.inf)
        else:
            # 1 minus the (k0+1)-th largest class probability per row
            v = 1.0 - np.partition(probs, n_classes - self.k0 - 1, axis=1)[:, n_classes - self.k0 - 1]
        return np.where(_finite_rows(probs), v, -math.inf)


@dataclass(frozen=True)
class SingletonClass(InformativeConstraint):
    """Class sets contained in {y0}."""

    y0: int

    def admits(self, batch):
        member = _classes(batch).member
        others = np.arange(1, member.shape[1] + 1) != self.y0
        return ~(member & others).any(axis=1)

    def breakpoints(self, pred):
        probs = _predictions(pred, 2, "SingletonClass")
        if probs.shape[1] < 2:  # the one class is admitted at every radius, or at none
            v = np.full(probs.shape[0], math.inf if self.y0 == 1 else -math.inf)
        else:
            top = np.argmax(probs, axis=1)  # smallest index wins ties
            second = np.partition(probs, probs.shape[1] - 2, axis=1)[:, probs.shape[1] - 2]
            v = np.where(top == self.y0 - 1, 1.0 - second, -math.inf)
        return np.where(_finite_rows(probs), v, -math.inf)


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
        """Tie-breaking draws in (0, 1]; matches the deterministic U = 1 corner.

        An array of draws is 1 - r computed in the buffer of the uniforms r.
        """
        r = self.generator().random(size)
        return 1.0 - r if size is None else np.subtract(1.0, r, out=r)


MuHatFn = Callable[[np.ndarray], np.ndarray]
ProbFn = Callable[[np.ndarray], np.ndarray]
