"""Replication runners for the simulation studies and the equivalence suite.

Each replication is a pure function of (cell parameters, replication stream),
so scheduling and parallelism cannot change results.  Method randomness is
drawn from per-method child streams keyed by a fixed registry, which keeps a
method's output invariant to which other methods run alongside it.

The equivalence suite holds four exact-equality checks on random instances:
BH against its self-consistent form, the counting-knockoff scan against BH
on deterministic p-values, cfbh against one-sided cfbh+, and selective
classification (BH over generalized p-values) against the counting-knockoff
scan over the FASI and Zhao-Su pools, each built from the class
probabilities and labels alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from . import procedures
from .conformal import AbsoluteResidual, OneMinusProb
from .core import (
    CLASSIFICATION,
    ConfigError,
    Dataset,
    HalfLine,
    LowerBoundedInterval,
    MaxSize,
    PositiveInterval,
    REGRESSION,
    RngStream,
    SingletonClass,
)
from .metrics import ReplicationMetrics, replication_metrics
from .procedures import (
    ProcedureConfig,
    run_cfbh,
    run_cfbh_plus,
    run_infosp_modified,
    run_infosp_plus,
    run_selective_classification,
)
from .selection import (
    ScoredPool,
    TieMode,
    bh_select,
    counting_knockoff_select,
    generalized_conformal_pvalues,
    self_consistent_select,
)
from .simgen import (
    NOISE_SD,
    StoredProbs,
    draw_labels,
    first_feature,
    gen_classification,
    gen_regression,
    gen_synthetic_scores,
)
from .trust import OptimizerConfig


@dataclass(frozen=True)
class _Splits:
    """The samples and configs of one replication that every method runner reads."""

    cal: Dataset
    test: Dataset
    cal0: Dataset
    cal1: Dataset
    base: ProcedureConfig
    train: Dataset | None = None
    one_sided: ProcedureConfig | None = None


@dataclass(frozen=True)
class _Method:
    stream: int
    studies: tuple[str, ...]
    run: Callable[[_Splits, RngStream], procedures.ProcedureOutput]


_STUDIES = ("regression", "classification", "dti-like", "cifar-like")

# Runners look procedures up on the module at call time, so a wrapper set on
# ``scip.procedures`` sees every call a study makes.
METHODS = {
    "naive": _Method(0, _STUDIES, lambda s, rng: procedures.run_naive(s.cal, s.test, s.base)),
    "cfbh": _Method(1, ("regression",), lambda s, rng: procedures.run_cfbh(s.cal, s.test, s.one_sided, rng)),
    "cfbh+": _Method(
        2, ("regression",), lambda s, rng: procedures.run_cfbh_plus(s.cal, s.test, s.one_sided, rng)
    ),
    "cfbh++": _Method(
        3,
        ("regression",),
        lambda s, rng: procedures.run_cfbh_plus_plus(s.train, s.cal, s.test, s.one_sided, rng),
    ),
    "infosp": _Method(4, _STUDIES, lambda s, rng: procedures.run_infosp(s.cal, s.test, s.base)),
    "infosp+": _Method(
        5, _STUDIES, lambda s, rng: procedures.run_infosp_plus(s.cal1, s.cal0, s.test, s.base, rng)
    ),
    "infosp++": _Method(
        6,
        ("regression", "classification"),
        lambda s, rng: procedures.run_infosp_plus_plus(s.train, s.cal1, s.cal0, s.test, s.base, rng),
    ),
    "infoscop": _Method(
        7,
        ("regression", "dti-like"),
        lambda s, rng: procedures.run_infoscop(s.cal0, s.cal1, s.test, s.base, rng),
    ),
}

# each study's methods in registry order
STUDY_METHODS = {
    study: tuple(name for name, method in METHODS.items() if study in method.studies) for study in _STUDIES
}

_DATA_STREAM = 0
_METHOD_STREAM = 1

# Monte-Carlo trainer settings: lighter than the library defaults, see notes.
MC_OPTIMIZER = OptimizerConfig(max_iter=400, grad_tol=1e-6)


def check_methods(study: str, methods) -> None:
    """Raise ConfigError naming the first method that ``study`` does not run."""
    for name in methods:
        if name not in STUDY_METHODS.get(study, ()):
            raise ConfigError(f"method {name!r} is not part of the {study} study")


def _run_methods(study: str, methods, splits: _Splits, rng: RngStream) -> dict[str, ReplicationMetrics]:
    """Run each named method of ``study`` on one replication's splits; unknown names fail first."""
    check_methods(study, methods)
    out: dict[str, ReplicationMetrics] = {}
    for name in methods:
        method = METHODS[name]
        res = method.run(splits, rng.child(_METHOD_STREAM, method.stream))
        out[name] = replication_metrics(res.selected, res.sets, splits.test.y)
    return out


def check_split(n: int, ratio: float) -> int:
    """The size of the first of two calibration halves of n rows; ConfigError if either is empty."""
    if not 0.0 < ratio < 1.0:  # NaN fails here, not as the ValueError of int(round(nan))
        raise ConfigError("split ratio must lie in (0, 1)")
    cut = int(round(n * ratio))
    if cut < 1 or cut >= n:
        raise ConfigError("split ratio leaves an empty calibration half")
    return cut


def _split_halves(data: Dataset, ratio: float) -> tuple[Dataset, Dataset]:
    cut = check_split(data.n, ratio)
    return data.take(slice(None, cut)), data.take(slice(cut, None))


def _splits(cal: Dataset, test: Dataset, base: ProcedureConfig, split_ratio: float, **extra) -> _Splits:
    cal0, cal1 = _split_halves(cal, split_ratio)
    return _Splits(cal, test, cal0, cal1, base, **extra)


def regression_replication(
    methods,
    n: int,
    m: int,
    eta: float,
    alpha: float,
    rng: RngStream,
    noise_sd: float = NOISE_SD,
    split_ratio: float = 0.5,
    screening_alpha: float | None = None,
    screening_threshold: float = 0.0,
    lam: float = 1.0,
    feature_degree: int = 2,
    optimizer: OptimizerConfig = MC_OPTIMIZER,
) -> dict[str, ReplicationMetrics]:
    """One replication of the positive-interval regression study."""
    data, mu_hat = gen_regression(2 * n + m, eta, rng.child(_DATA_STREAM), noise_sd=noise_sd)
    cal = data.take(slice(0, n))
    test = data.take(slice(n, n + m))
    train = data.take(slice(n + m, 2 * n + m))
    base = ProcedureConfig(
        alpha=alpha,
        score=AbsoluteResidual(mu_hat),
        constraint=PositiveInterval(),
        screening_alpha=alpha / 2 if screening_alpha is None else screening_alpha,
        screening_threshold=screening_threshold,
        lam=lam,
        feature_degree=feature_degree,
        optimizer=optimizer,
    )
    one_sided = replace(base, constraint=HalfLine(screening_threshold))
    splits = _splits(cal, test, base, split_ratio, train=train, one_sided=one_sided)
    return _run_methods("regression", methods, splits, rng)


def classification_replication(
    methods,
    n: int,
    m: int,
    alpha: float,
    rng: RngStream,
    max_size: int = 2,
    train_size: int | None = None,
    split_ratio: float = 0.5,
    optimizer: OptimizerConfig = MC_OPTIMIZER,
) -> dict[str, ReplicationMetrics]:
    """One replication of the bounded-size classification study."""
    data, p_hat = gen_classification(
        n + m, rng.child(_DATA_STREAM), train_size=n if train_size is None else train_size,
        optimizer=optimizer,
    )
    cal = data.take(slice(0, n))
    test = data.take(slice(n, n + m))
    base = ProcedureConfig(
        alpha=alpha,
        score=OneMinusProb(p_hat),
        constraint=MaxSize(max_size),
    )
    return _run_methods("classification", methods, _splits(cal, test, base, split_ratio), rng)


def synthetic_replication(
    methods,
    profile: str,
    n: int,
    m: int,
    alpha: float,
    rng: RngStream,
    feasible_frac: float = 0.5,
    sharpness: float = 1.5,
    max_size: int = 2,
    split_ratio: float = 0.5,
    screening_alpha: float | None = None,
) -> dict[str, ReplicationMetrics]:
    """One replication of a score-only stand-in study."""
    bundle = gen_synthetic_scores(
        profile, n + m, rng.child(_DATA_STREAM), feasible_frac=feasible_frac, sharpness=sharpness
    )
    cal = bundle.data.take(slice(0, n))
    test = bundle.data.take(slice(n, n + m))
    if profile == "dti-like":
        base = ProcedureConfig(
            alpha=alpha,
            score=AbsoluteResidual(bundle.predictor),
            constraint=LowerBoundedInterval(bundle.threshold),
            screening_alpha=alpha / 2 if screening_alpha is None else screening_alpha,
            screening_threshold=bundle.threshold,
        )
    else:
        # singleton reporting: the constraint must exclude at least two of the
        # three classes for the common-level route to leave any slack
        base = ProcedureConfig(
            alpha=alpha,
            score=OneMinusProb(bundle.predictor),
            constraint=MaxSize(min(max_size, bundle.n_classes - 2)),
        )
    return _run_methods(profile, methods, _splits(cal, test, base, split_ratio), rng)


def containment_replication(
    n: int,
    m: int,
    n_cal0: int,
    eta: float,
    alpha: float,
    rng: RngStream,
) -> bool:
    """Whether the plain-route report is nested in the truncated-route report.

    Both methods run in their modified forms: the plain route cut at the
    shared truncation threshold, the truncated route with one shared tie
    variable.  Containment is on reported (index, set) pairs: every plain
    index must be reported by the truncated route with the same set (the
    shared constructor makes the sets coincide, so index containment is the
    binding part).
    """
    data, mu_hat = gen_regression(n_cal0 + n + m, eta, rng.child(_DATA_STREAM))
    cal0 = data.take(slice(0, n_cal0))
    cal = data.take(slice(n_cal0, n_cal0 + n))
    test = data.take(slice(n_cal0 + n, n_cal0 + n + m))
    config = ProcedureConfig(
        alpha=alpha,
        score=AbsoluteResidual(mu_hat),
        constraint=PositiveInterval(),
        tie_mode=TieMode.SHARED_U,
    )
    plain = run_infosp_modified(cal, cal0, test, config)
    truncated = run_infosp_plus(cal, cal0, test, config, rng.child(_METHOD_STREAM))
    if not np.isin(plain.selected, truncated.selected).all():
        return False
    rows = np.searchsorted(truncated.selected, plain.selected)  # selected indices are sorted
    trunc_sets = truncated.sets.take(rows)
    return all(
        np.array_equal(getattr(plain.sets, f.name), getattr(trunc_sets, f.name)) for f in fields(trunc_sets)
    )


# ---------------------------------------------------------------------------
# Equivalence suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    name: str
    instances: int
    failures: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class _PolyPredictor:
    """Random frozen quadratic; optional rounding forces trust-score ties."""

    a: float
    b: float
    c: float
    decimals: int | None = None

    def __call__(self, X) -> np.ndarray:
        x = first_feature(X)
        out = self.a * x**2 + self.b * x + self.c
        return np.round(out, self.decimals) if self.decimals is not None else out


def _random_pvalues(gen: np.random.Generator) -> np.ndarray:
    m = int(gen.integers(1, 40))
    style = gen.integers(0, 3)
    if style == 0:
        return gen.random(m)
    if style == 1:  # heavy ties on a coarse grid
        return gen.integers(0, 6, m) / 5.0
    return np.minimum(1.0, gen.random(m) * 0.2)


def _random_pool(gen: np.random.Generator) -> ScoredPool:
    n = int(gen.integers(4, 50))
    m = int(gen.integers(1, 40))
    if gen.random() < 0.5:
        cal = gen.integers(0, 8, n) / 7.0
        test = gen.integers(0, 8, m) / 7.0
    else:
        cal = gen.random(n)
        test = gen.random(m)
    null = gen.random(n) < 0.6
    if not null.any():
        null[0] = True
    return ScoredPool(cal, null, test)


def _equivalence_check(name: str, instances: int, failure: Callable[[int], dict | None]) -> EquivalenceReport:
    """Run ``failure`` on each instance index; the report holds the failure dicts it returns."""
    found = (failure(i) for i in range(instances))
    return EquivalenceReport(name, instances, tuple(f for f in found if f is not None))


def check_bh_self_consistent(seed_rng: RngStream, instances: int) -> EquivalenceReport:
    def failure(i):
        gen = seed_rng.child(i).generator()
        p = _random_pvalues(gen)
        alpha = float(gen.uniform(0.02, 0.5))
        a = bh_select(p, alpha)
        b = self_consistent_select(p, alpha)
        if not np.array_equal(a.selected, b.selected):
            return {"instance": i, "pvalues": p.tolist(), "alpha": alpha}

    return _equivalence_check("bh-vs-self-consistent", instances, failure)


def check_knockoff_deterministic(seed_rng: RngStream, instances: int) -> EquivalenceReport:
    def failure(i):
        gen = seed_rng.child(i).generator()
        pool = _random_pool(gen)
        alpha = float(gen.uniform(0.05, 0.5))
        ck = counting_knockoff_select(pool, alpha, TieMode.DETERMINISTIC)
        det = bh_select(generalized_conformal_pvalues(pool, TieMode.DETERMINISTIC), alpha)
        if not np.array_equal(ck.selected, det.selected):
            return {
                "instance": i,
                "cal_trust": pool.cal_trust.tolist(),
                "cal_null": pool.cal_null.tolist(),
                "test_trust": pool.test_trust.tolist(),
                "alpha": alpha,
            }

    return _equivalence_check("knockoff-vs-deterministic-bh", instances, failure)


def check_cfbh_clipped(seed_rng: RngStream, instances: int) -> EquivalenceReport:
    def failure(i):
        gen = seed_rng.child(i, 0).generator()
        n = int(gen.integers(5, 60))
        m = int(gen.integers(1, 40))
        decimals = 1 if gen.random() < 0.4 else None
        mu_hat = _PolyPredictor(*gen.normal(0, 1, 3), decimals=decimals)
        x = gen.normal(0, 1, n + m)
        y = np.asarray(mu_hat(x)) + gen.normal(0, 0.8, n + m)
        cal = Dataset(x[:n, None], y[:n], REGRESSION)
        test = Dataset(x[n:, None], None, REGRESSION)
        c0 = float(gen.normal(0, 0.5))
        alpha = float(gen.uniform(0.05, 0.5))
        cfg = ProcedureConfig(
            alpha=alpha, score=AbsoluteResidual(mu_hat), constraint=HalfLine(c0)
        )
        u_rng = seed_rng.child(i, 1)
        a = run_cfbh(cal, test, cfg, u_rng)
        b = run_cfbh_plus(cal, test, cfg, u_rng)
        if not np.array_equal(a.selected, b.selected):
            return {"instance": i, "c0": c0, "alpha": alpha, "n": n, "m": m}

    return _equivalence_check("cfbh-vs-cfbh+-one-sided", instances, failure)


def _random_probs(gen: np.random.Generator, n: int, k: int, coarse: bool) -> np.ndarray:
    if coarse:
        raw = gen.integers(1, 6, (n, k)).astype(float)
    else:
        raw = gen.gamma(1.0, 1.0, (n, k))
    return raw / raw.sum(axis=1, keepdims=True)


def check_selective_classification(seed_rng: RngStream, instances: int) -> EquivalenceReport:
    def failure(i):
        gen = seed_rng.child(i).generator()
        n = int(gen.integers(5, 60))
        m = int(gen.integers(1, 40))
        k = int(gen.integers(2, 5))
        probs = _random_probs(gen, n + m, k, coarse=gen.random() < 0.4)
        labels = draw_labels(probs, gen)
        alpha = float(gen.uniform(0.05, 0.5))
        p_hat = StoredProbs(probs)
        idx = np.arange(n + m, dtype=float)[:, None]
        cal = Dataset(idx[:n], labels[:n], CLASSIFICATION)
        test = Dataset(idx[n:], None, CLASSIFICATION)
        y0 = int(gen.integers(1, k + 1))
        ours = run_selective_classification(
            cal, test, ProcedureConfig(alpha=alpha, score=OneMinusProb(p_hat), constraint=SingletonClass(y0))
        )
        target = ScoredPool(probs[:n, y0 - 1], labels[:n] != y0, probs[n:, y0 - 1])
        ref = counting_knockoff_select(target, alpha, TieMode.DETERMINISTIC).selected
        if not np.array_equal(ours.selected, ref):
            return {"instance": i, "variant": "target", "y0": y0, "alpha": alpha}
        ours_all = run_selective_classification(
            cal, test, ProcedureConfig(alpha=alpha, score=OneMinusProb(p_hat), constraint=MaxSize(1))
        )
        classes, top = np.argmax(probs, axis=1) + 1, probs.max(axis=1)
        argmax = ScoredPool(top[:n], labels[:n] != classes[:n], top[n:])
        ref_all = counting_knockoff_select(argmax, alpha, TieMode.DETERMINISTIC).selected
        same_sets = np.array_equal(ours_all.selected, ref_all)
        expected = classes[n:][ours_all.selected, None] == np.arange(1, k + 1)
        same_classes = np.array_equal(ours_all.sets.member, expected)
        if not (same_sets and same_classes):
            return {"instance": i, "variant": "argmax", "alpha": alpha}

    return _equivalence_check("selective-classification-references", instances, failure)


def run_equivalence_checks(seed: int, instances: int) -> list[EquivalenceReport]:
    """The four exact-equality checks on freshly drawn random instances."""
    root = RngStream(seed)
    return [
        check_bh_self_consistent(root.child(0), instances),
        check_knockoff_deterministic(root.child(1), instances),
        check_cfbh_clipped(root.child(2), instances),
        check_selective_classification(root.child(3), instances),
    ]
