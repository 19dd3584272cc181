"""End-to-end selective prediction methods.

Each ``run_*`` function takes frozen datasets plus a ProcedureConfig and
returns a ProcedureOutput: the selected test indices, their reported sets as
one column batch (``core.IntervalBatch`` or ``core.ClassBatch``), and
diagnostics.  Every reported set is checked against the active constraint
before it leaves the procedure, and empty sets are never reported.

Methods
-------
naive          level-alpha conformal sets, admissible ones kept, no adjustment
cfbh           clipped-score conformal p-values + BH, reports (c0, inf)
cfbh+          fixed/directional constructor with mu-based trust, then select
cfbh++         cfbh+ with a classifier-trained trust score
infosp         BH over I-adjusted p-values, sets at the common BH level
infosp+        truncated I-adjusted levels, per-unit sets, trust 1 - level
infosp++       infosp+ constructor with an estimated-oracle trust score
infoscop       cfbh screening stage, then infosp on the surviving units
selective classification   fixed-class or argmax singletons (FASI / Zhao-Su style)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .conformal import (
    AbsoluteResidual,
    CalibrationScores,
    ClippedScore,
    NonconformityScore,
    OneMinusProb,
    i_adjusted_pvalues,
)
from .core import (
    ClassBatch,
    ConfigError,
    ConstraintViolationError,
    Dataset,
    HalfLine,
    InformativeConstraint,
    IntervalBatch,
    MaxSize,
    PredictionSet,
    RngStream,
    SetBatch,
    SingletonClass,
    TargetHalfLines,
)
from .selection import (
    ScoredPool,
    TieMode,
    bh_select,
    generalized_conformal_pvalues,
    scip_select_arrays,
)
from .trust import (
    OptimizerConfig,
    class_membership_trust,
    train_trust_classifier,
)


@dataclass(frozen=True)
class ProcedureConfig:
    """Everything a method needs beyond the data.

    ``screening_alpha``/``screening_threshold`` drive the infoscop screening
    stage; ``shrink_m`` removes empty-set units from the BH denominator
    instead of freezing them out.
    """

    alpha: float
    constraint: InformativeConstraint
    score: NonconformityScore
    tie_mode: TieMode = TieMode.PER_UNIT
    screening_alpha: float | None = None
    screening_threshold: float = 0.0
    shrink_m: bool = False
    lam: float = 1.0
    feature_degree: int = 1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.score is None or self.constraint is None:
            raise ConfigError("a method needs a score and a constraint")


@dataclass(frozen=True)
class ProcedureOutput:
    """The selected test units, the sets reported for them, and run diagnostics.

    Row i of ``sets`` is the set reported for test unit ``selected[i]``;
    ``reported`` builds the (index, set) objects when it is read.
    """

    selected: np.ndarray
    sets: SetBatch
    diagnostics: dict

    @property
    def reported(self) -> tuple[tuple[int, PredictionSet], ...]:
        return tuple(zip(self.selected.tolist(), self.sets.sets()))

    @property
    def n_reported(self) -> int:
        return int(self.selected.size)


_NO_INTERVALS = IntervalBatch.from_radius(np.empty(0), np.empty(0))


def _checked_output(
    selected, sets: SetBatch, constraint: InformativeConstraint, diagnostics
) -> ProcedureOutput:
    """The output, once every reported set is known to be nonempty and admissible."""
    checks = (
        (~sets.nonempty, "empty set must not be reported"),
        (~constraint.admits(sets), "reported set violates the constraint"),
    )
    for bad, why in checks:
        if bad.any():
            raise ConstraintViolationError(f"unit {selected[np.argmax(bad)]}: {why}")
    return ProcedureOutput(selected, sets, diagnostics)


def _require_residual(config: ProcedureConfig) -> AbsoluteResidual:
    if not isinstance(config.score, AbsoluteResidual):
        raise ConfigError("this method needs an absolute-residual score")
    return config.score


def _require_class_prob(config: ProcedureConfig) -> OneMinusProb:
    if not isinstance(config.score, OneMinusProb):
        raise ConfigError("this method needs a one-minus-probability score")
    return config.score


def _sets_at_levels(score, cal_scores: CalibrationScores, X, levels) -> SetBatch:
    """Level-q conformal sets {y : V(x, y) <= radius(q)}, one per row of X (q may be shared)."""
    radii = cal_scores.score_radius(levels)
    if isinstance(score, AbsoluteResidual):
        return IntervalBatch.from_radius(score.mu_hat(X), radii)
    if isinstance(score, OneMinusProb):
        return ClassBatch.from_radius(score.p_hat(X), radii)
    raise ConfigError("this method supports residual or class-probability scores")


def _half_lines(up: np.ndarray, c_below: float, c_above: float) -> IntervalBatch:
    """(c_above, inf) where ``up``, else (-inf, c_below); both ends open."""
    open_ends = np.ones(up.shape, dtype=bool)
    return IntervalBatch(np.where(up, c_above, -np.inf), np.where(up, np.inf, c_below), open_ends, open_ends)


# ---------------------------------------------------------------------------
# Baselines without selection adjustment
# ---------------------------------------------------------------------------


def run_naive(cal: Dataset, test: Dataset, config: ProcedureConfig) -> ProcedureOutput:
    """Level-alpha conformal sets for every unit; keep the admissible nonempty ones."""
    score, constraint = config.score, config.constraint
    cal_scores = CalibrationScores(score.eval(cal.X, cal.y))
    sets = _sets_at_levels(score, cal_scores, test.X, config.alpha)
    selected = np.flatnonzero(sets.nonempty & constraint.admits(sets))
    diag = {"level": config.alpha, "radius": cal_scores.score_radius(config.alpha)}
    return _checked_output(selected, sets.take(selected), constraint, diag)


# ---------------------------------------------------------------------------
# Conformal selection (one- and two-sided)
# ---------------------------------------------------------------------------


def run_cfbh(cal: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream) -> ProcedureOutput:
    """Clipped-score conformal p-values + BH; reports the half line above the threshold.

    The clip constant exceeds the realized sup of |mu_hat| over the pooled
    sample, which is all the equivalence with the trust-score route needs.
    """
    constraint = config.constraint
    if not isinstance(constraint, HalfLine):
        raise ConfigError("cfbh tests a half-line null; use a HalfLine constraint")
    score = _require_residual(config)
    c0 = constraint.c0
    mu_cal = np.asarray(score.mu_hat(cal.X), dtype=float)
    mu_test = np.asarray(score.mu_hat(test.X), dtype=float)
    big_m = float(max(np.abs(mu_cal).max(), np.abs(mu_test).max())) + 1.0
    clipped = ClippedScore(score.mu_hat, c0, big_m)
    v_cal = np.asarray(clipped.eval(cal.X, cal.y), dtype=float)
    v_test = mu_test - c0  # clip indicator is 0 at the boundary label
    pool = ScoredPool(v_cal, np.ones(cal.n, dtype=bool), v_test)
    pvals = generalized_conformal_pvalues(pool, config.tie_mode, rng)
    result = bh_select(pvals, config.alpha)
    sets = _half_lines(np.ones(result.selected.size, dtype=bool), c0, c0)
    diag = {"pvalues": pvals, "result": result, "big_m": big_m}
    return _checked_output(result.selected, sets, constraint, diag)


def _two_sided_pieces(score: AbsoluteResidual, constraint: TargetHalfLines, X, y=None):
    """Directional constructor: (c_u, inf) when mu_hat >= (c_l + c_u)/2, else (-inf, c_l)."""
    mu = np.asarray(score.mu_hat(X), dtype=float)
    mid = (constraint.c_l + constraint.c_u) / 2.0
    up = mid - mu <= 0.0
    trust = np.abs(mid - mu)
    null = None
    if y is not None:
        null = np.where(up, y <= constraint.c_u, y >= constraint.c_l)
    return up, trust, null


def _select_half_lines(
    cal: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream, scorer=None
) -> ProcedureOutput:
    """cfbh+/cfbh++ route: null flags, generalized selection, one half line per selected unit.

    The trust is mu_hat (one-sided) or the distance from the band midpoint
    (two-sided) unless a trained ``scorer`` supplies it.
    """
    constraint = config.constraint
    score = _require_residual(config)
    if isinstance(constraint, HalfLine):
        null = cal.y <= constraint.c0
        up_test = np.ones(test.n, dtype=bool)
        c_below = c_above = constraint.c0
        if scorer is None:
            trust_cal = np.asarray(score.mu_hat(cal.X), dtype=float)
            trust_test = np.asarray(score.mu_hat(test.X), dtype=float)
    elif isinstance(constraint, TargetHalfLines):
        _, trust_cal, null = _two_sided_pieces(score, constraint, cal.X, cal.y)
        up_test, trust_test, _ = _two_sided_pieces(score, constraint, test.X)
        c_below, c_above = constraint.c_l, constraint.c_u
    else:
        raise ConfigError("cfbh+ needs a HalfLine or TargetHalfLines constraint")
    if scorer is not None:
        trust_cal, trust_test = scorer.predict(cal.X), scorer.predict(test.X)
    result = scip_select_arrays(trust_cal, null, trust_test, config.alpha, config.tie_mode, rng)
    sets = _half_lines(up_test[result.selected], c_below, c_above)
    diag = {"pvalues": result.pvalues, "result": result}
    if scorer is not None:
        diag["scorer"] = scorer
    return _checked_output(result.selected, sets, constraint, diag)


def run_cfbh_plus(
    cal: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream
) -> ProcedureOutput:
    """Trust-score route: fixed half line (one-sided) or estimated direction (two-sided)."""
    return _select_half_lines(cal, test, config, rng)


def run_cfbh_plus_plus(
    train: Dataset, cal: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream
) -> ProcedureOutput:
    """cfbh+ with a trust score trained to separate interesting from boring labels."""
    constraint = config.constraint
    score = _require_residual(config)
    if isinstance(constraint, HalfLine):
        pos = train.y > constraint.c0
    elif isinstance(constraint, TargetHalfLines):
        up, _, _ = _two_sided_pieces(score, constraint, train.X)
        pos = np.where(up, train.y >= constraint.c_u, train.y <= constraint.c_l)
    else:
        raise ConfigError("cfbh++ needs a HalfLine or TargetHalfLines constraint")
    scorer = train_trust_classifier(
        train.X, np.where(pos, 1, -1), lam=config.lam, config=config.optimizer,
        feature_degree=config.feature_degree,
    )
    return _select_half_lines(cal, test, config, rng, scorer)


# ---------------------------------------------------------------------------
# Selection under general informativeness constraints
# ---------------------------------------------------------------------------


def run_infosp(cal: Dataset, test: Dataset, config: ProcedureConfig) -> ProcedureOutput:
    """BH over the test units' I-adjusted p-values; sets at the common BH level."""
    score, constraint = config.score, config.constraint
    cal_scores = CalibrationScores(score.eval(cal.X, cal.y))
    q = i_adjusted_pvalues(test.X, cal_scores, score, constraint)
    result = bh_select(q, config.alpha)
    tau = result.threshold_alpha_hat
    sets = _sets_at_levels(score, cal_scores, test.X, tau)
    keep = result.selected[sets.nonempty[result.selected]]
    return _checked_output(keep, sets.take(keep), constraint, {"q": q, "tau": tau})


def _truncation(cal: Dataset, cal0: Dataset, test: Dataset, config: ProcedureConfig):
    """Truncation step: cal0 scores, pooled cal+test X, their I-adjusted p-values q0, BH level tau0."""
    score, constraint = config.score, config.constraint
    cal0_scores = CalibrationScores(score.eval(cal0.X, cal0.y))
    X_all = np.vstack([cal.X, test.X])
    q0 = i_adjusted_pvalues(X_all, cal0_scores, score, constraint)
    tau0 = bh_select(q0, config.alpha).threshold_alpha_hat
    return cal0_scores, X_all, q0, tau0


def _infosp_plus_core(
    cal: Dataset,
    test: Dataset,
    config: ProcedureConfig,
    rng: RngStream,
    truncation,
    trust_override=None,
):
    """Shared pipeline: truncated levels, per-unit sets, trust, generalized selection.

    The CP-truncated constructor gives each pooled unit its level-q_plus
    conformal set (``_sets_at_levels``), q_plus = max(q0, tau0).  ``truncation`` is the output of
    ``_truncation``; ``trust_override(sets, X_all)`` replaces the default
    one-minus-level trust when the estimated-oracle variant runs.
    """
    cal0_scores, X_all, q0, tau0 = truncation
    n = cal.n
    q_plus = np.maximum(q0, tau0)
    sets = _sets_at_levels(config.score, cal0_scores, X_all, q_plus)
    nonempty = sets.nonempty
    if trust_override is None:
        trust = np.where(nonempty, 1.0 - q_plus, 0.0)
    else:
        trust = np.where(nonempty, trust_override(sets, X_all), 0.0)
    null = ~sets.take(slice(0, n)).covers(cal.y)  # an empty set covers nothing
    result = scip_select_arrays(
        trust[:n],
        null,
        trust[n:],
        config.alpha,
        config.tie_mode,
        rng,
        test_eligible=nonempty[n:],
        shrink_m=config.shrink_m,
    )
    diag = {
        "q0": q0,
        "tau0": tau0,
        "q_plus": q_plus,
        "pvalues": result.pvalues,
        "result": result,
        "trust": trust,
    }
    return _checked_output(result.selected, sets.take(n + result.selected), config.constraint, diag)


def run_infosp_plus(
    cal: Dataset, cal0: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream
) -> ProcedureOutput:
    """Truncated-level sets with trust 1 - level, then generalized selection."""
    return _infosp_plus_core(cal, test, config, rng, _truncation(cal, cal0, test, config))


def run_infosp_plus_plus(
    train: Dataset | None,
    cal: Dataset,
    cal0: Dataset,
    test: Dataset,
    config: ProcedureConfig,
    rng: RngStream,
) -> ProcedureOutput:
    """infosp+ constructor with an estimated-oracle trust score.

    Classification reuses the frozen class probabilities (mass of the set);
    regression trains a coverage classifier on the disjoint training sample.
    """
    if isinstance(config.score, OneMinusProb):
        def trust_override(sets, X_all):
            return class_membership_trust(config.score.p_hat(X_all), sets.member)

        truncation = _truncation(cal, cal0, test, config)
        return _infosp_plus_core(cal, test, config, rng, truncation, trust_override)
    score = _require_residual(config)
    if train is None:
        raise ConfigError("regression infosp++ needs a training sample")
    truncation = _truncation(cal, cal0, test, config)
    cal0_scores, _, _, tau0 = truncation
    q0_train = i_adjusted_pvalues(train.X, cal0_scores, score, config.constraint)
    train_sets = _sets_at_levels(score, cal0_scores, train.X, np.maximum(q0_train, tau0))
    pos = train_sets.covers(train.y)
    labels = np.where(pos, 1, -1)
    scorer = train_trust_classifier(
        train.X, labels, lam=config.lam, config=config.optimizer, feature_degree=config.feature_degree
    )

    def trust_override(sets, X_all):
        return scorer.predict(X_all)

    return _infosp_plus_core(cal, test, config, rng, truncation, trust_override)


def run_infosp_modified(
    cal: Dataset, cal0: Dataset, test: Dataset, config: ProcedureConfig
) -> ProcedureOutput:
    """Diagnostic variant: the plain I-adjusted route cut at the truncation level.

    Shares the threshold computed over the pooled truncation p-values, which
    puts it on equal footing with the truncated-level method for containment
    checks.
    """
    cal0_scores, _, q0, tau0 = _truncation(cal, cal0, test, config)
    q0_test = q0[cal.n :]
    selected = np.flatnonzero(q0_test <= tau0) if tau0 > 0.0 else np.array([], dtype=int)
    sets = _sets_at_levels(config.score, cal0_scores, test.X, tau0)
    keep = selected[sets.nonempty[selected]]
    return _checked_output(keep, sets.take(keep), config.constraint, {"q0": q0, "tau0": tau0})


def run_infoscop(
    cal_a: Dataset, cal_b: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream
) -> ProcedureOutput:
    """Screen with cfbh, then run infosp on the post-selection subsample.

    The screening stage induces a trust threshold (the smallest mu_hat among
    the surviving test units); the stage-two calibration half is cut at the
    same threshold so that survivors on both sides stay exchangeable.
    Screening the test side alone is anti-conservative.
    """
    if config.screening_alpha is None:
        raise ConfigError("infoscop needs a screening level")
    score = _require_residual(config)
    screen_cfg = replace(
        config,
        alpha=config.screening_alpha,
        constraint=HalfLine(config.screening_threshold),
    )
    stage1 = run_cfbh(cal_a, test, screen_cfg, rng)
    survivors = stage1.selected
    if survivors.size == 0:
        return ProcedureOutput(survivors, _NO_INTERVALS, {"survivors": survivors})
    mu_test = np.asarray(score.mu_hat(test.X), dtype=float)
    tau_trust = float(mu_test[survivors].min())
    keep_cal = np.asarray(score.mu_hat(cal_b.X), dtype=float) >= tau_trust
    if not keep_cal.any():
        return ProcedureOutput(survivors[:0], _NO_INTERVALS, {"survivors": survivors})
    sub_cal = Dataset(cal_b.X[keep_cal], cal_b.y[keep_cal], cal_b.task)
    sub_test = Dataset(test.X[survivors], None if test.y is None else test.y[survivors], test.task)
    stage2 = run_infosp(sub_cal, sub_test, config)  # checks every reported set
    diag = {"survivors": survivors, "trust_threshold": tau_trust, "stage2": stage2.diagnostics}
    return ProcedureOutput(survivors[stage2.selected], stage2.sets, diag)


# ---------------------------------------------------------------------------
# Selective classification
# ---------------------------------------------------------------------------


def run_selective_classification(
    cal: Dataset, test: Dataset, config: ProcedureConfig
) -> ProcedureOutput:
    """Singleton reporting with probability trust and deterministic tie breaking.

    A SingletonClass constraint targets one fixed class; a MaxSize(1)
    constraint uses the argmax-class constructor (ties go to the smallest
    class index).  Deterministic ties make the
    selection coincide with the mirror-process style references.
    """
    score = _require_class_prob(config)
    constraint = config.constraint
    probs_cal = np.asarray(score.p_hat(cal.X), dtype=float)
    probs_test = np.asarray(score.p_hat(test.X), dtype=float)
    if isinstance(constraint, SingletonClass):
        y0 = constraint.y0
        trust_cal = probs_cal[:, y0 - 1]
        trust_test = probs_test[:, y0 - 1]
        null = cal.y != y0
        classes_test = np.full(test.n, y0)
    elif isinstance(constraint, MaxSize) and constraint.k0 == 1:
        trust_cal = probs_cal.max(axis=1)
        trust_test = probs_test.max(axis=1)
        null = cal.y != (np.argmax(probs_cal, axis=1) + 1)
        classes_test = np.argmax(probs_test, axis=1) + 1
    else:
        raise ConfigError("selective classification needs SingletonClass or MaxSize(1)")
    result = scip_select_arrays(
        trust_cal, null, trust_test, config.alpha, TieMode.DETERMINISTIC, rng=None
    )
    sets = ClassBatch(classes_test[result.selected, None] == np.arange(1, probs_test.shape[1] + 1))
    return _checked_output(result.selected, sets, constraint, {"result": result, "classes": classes_test})
