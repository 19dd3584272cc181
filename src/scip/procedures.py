"""End-to-end selective prediction methods.

Each ``run_*`` function takes frozen datasets plus a ProcedureConfig and
returns a ProcedureOutput: the reported (test index, prediction set) pairs,
the selected indices, and diagnostics.  Every reported set is checked against
the active constraint before it leaves the procedure, and empty sets are never
reported.

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
    class_set_from_radius,
    i_adjusted_pvalues,
    interval_set_from_radius,
)
from .core import (
    ClassSet,
    ConfigError,
    ConstraintViolationError,
    Dataset,
    HalfLine,
    InformativeConstraint,
    LowerBoundedInterval,
    MaxSize,
    PositiveInterval,
    PredictionSet,
    RngStream,
    SingletonClass,
    TargetHalfLines,
    half_line_above,
    half_line_below,
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
    stage; ``split_ratio`` is how the experiment harness carves the extra
    calibration half for methods that need one; ``shrink_m`` removes
    empty-set units from the BH denominator instead of freezing them out.
    """

    alpha: float
    constraint: InformativeConstraint | None = None
    score: NonconformityScore | None = None
    tie_mode: TieMode = TieMode.PER_UNIT
    split_ratio: float = 0.5
    screening_alpha: float | None = None
    screening_threshold: float = 0.0
    shrink_m: bool = False
    lam: float = 1.0
    feature_degree: int = 1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split ratio must lie in (0, 1)")


@dataclass(frozen=True)
class ProcedureOutput:
    """Reported sets for the selected test units plus run diagnostics."""

    reported: tuple[tuple[int, PredictionSet], ...]
    selected: np.ndarray
    diagnostics: dict

    @property
    def n_reported(self) -> int:
        return len(self.reported)


def _check_reported(reported, constraint: InformativeConstraint | None):
    for idx, pset in reported:
        if pset.is_empty:
            raise ConstraintViolationError(f"unit {idx}: empty set must not be reported")
        if constraint is not None and not constraint.contains(pset):
            raise ConstraintViolationError(f"unit {idx}: reported set violates the constraint")


def _require_residual(config: ProcedureConfig) -> AbsoluteResidual:
    if not isinstance(config.score, AbsoluteResidual):
        raise ConfigError("this method needs an absolute-residual score")
    return config.score


def _require_class_prob(config: ProcedureConfig) -> OneMinusProb:
    if not isinstance(config.score, OneMinusProb):
        raise ConfigError("this method needs a one-minus-probability score")
    return config.score


def _interval_lowers_uppers(mu: np.ndarray, radii: np.ndarray):
    with np.errstate(invalid="ignore"):
        return mu - radii, mu + radii


def _interval_admissible(constraint, mu: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Admissibility of the closed intervals [mu - r, mu + r] (empty ones excluded)."""
    lower, upper = _interval_lowers_uppers(mu, radii)
    if isinstance(constraint, PositiveInterval):
        return lower > 0.0
    if isinstance(constraint, LowerBoundedInterval):
        return lower >= constraint.c
    if isinstance(constraint, HalfLine):
        return lower > constraint.c0
    if isinstance(constraint, TargetHalfLines):
        return (upper < constraint.c_l) | (lower > constraint.c_u)
    raise ConfigError(f"no interval geometry for constraint {constraint!r}")


# ---------------------------------------------------------------------------
# Baselines without selection adjustment
# ---------------------------------------------------------------------------


def run_naive(cal: Dataset, test: Dataset, config: ProcedureConfig) -> ProcedureOutput:
    """Level-alpha conformal sets for every unit; keep the admissible nonempty ones."""
    score, constraint = config.score, config.constraint
    if score is None or constraint is None:
        raise ConfigError("naive needs a score and a constraint")
    cal_scores = CalibrationScores(score.eval(cal.X, cal.y))
    radius = cal_scores.score_radius(config.alpha)
    if isinstance(score, AbsoluteResidual):
        mu = np.asarray(score.mu_hat(test.X), dtype=float)
        radii = np.full(test.n, radius)
        keep = (radii >= 0.0) & _interval_admissible(constraint, mu, radii)
        reported = tuple(
            (int(j), interval_set_from_radius(float(mu[j]), float(radii[j])))
            for j in np.flatnonzero(keep)
        )
    elif isinstance(score, OneMinusProb):
        probs = np.asarray(score.p_hat(test.X), dtype=float)
        member = 1.0 - probs <= radius
        sizes = member.sum(axis=1)
        keep = (sizes > 0) & _class_sizes_admissible(constraint, member, sizes)
        reported = tuple(
            (int(j), class_set_from_radius(probs[j], radius)) for j in np.flatnonzero(keep)
        )
    else:
        raise ConfigError("naive supports residual or class-probability scores")
    _check_reported(reported, constraint)
    selected = np.array([j for j, _ in reported], dtype=int)
    return ProcedureOutput(reported, selected, {"level": config.alpha, "radius": radius})


def _class_sizes_admissible(constraint, member: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    if isinstance(constraint, MaxSize):
        return sizes <= constraint.k0
    if isinstance(constraint, SingletonClass):
        only_target = member[:, constraint.y0 - 1] & (sizes == 1)
        return only_target
    raise ConfigError(f"no class geometry for constraint {constraint!r}")


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
    reported = tuple((int(j), half_line_above(c0)) for j in result.selected)
    _check_reported(reported, constraint)
    return ProcedureOutput(reported, result.selected, {"pvalues": pvals, "result": result, "big_m": big_m})


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
        above = below = half_line_above(constraint.c0)
        if scorer is None:
            trust_cal = np.asarray(score.mu_hat(cal.X), dtype=float)
            trust_test = np.asarray(score.mu_hat(test.X), dtype=float)
    elif isinstance(constraint, TargetHalfLines):
        _, trust_cal, null = _two_sided_pieces(score, constraint, cal.X, cal.y)
        up_test, trust_test, _ = _two_sided_pieces(score, constraint, test.X)
        above, below = half_line_above(constraint.c_u), half_line_below(constraint.c_l)
    else:
        raise ConfigError("cfbh+ needs a HalfLine or TargetHalfLines constraint")
    if scorer is not None:
        trust_cal, trust_test = scorer.predict(cal.X), scorer.predict(test.X)
    result = scip_select_arrays(trust_cal, null, trust_test, config.alpha, config.tie_mode, rng)
    reported = tuple((int(j), above if up_test[j] else below) for j in result.selected)
    _check_reported(reported, constraint)
    diag = {"pvalues": result.pvalues, "result": result}
    if scorer is not None:
        diag["scorer"] = scorer
    return ProcedureOutput(reported, result.selected, diag)


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


def _sets_at_levels(score, cal_scores: CalibrationScores, X, levels):
    """CP-truncated constructor: per-unit conformal sets (radii plus task pieces) at per-unit levels."""
    radii = np.asarray(cal_scores.score_radius(np.asarray(levels, dtype=float)))
    if isinstance(score, AbsoluteResidual):
        mu = np.asarray(score.mu_hat(X), dtype=float)
        nonempty = radii >= 0.0
        return {"radii": radii, "mu": mu, "nonempty": nonempty}
    probs = np.asarray(score.p_hat(X), dtype=float)
    member = 1.0 - probs <= radii[:, None]
    sizes = member.sum(axis=1)
    return {"radii": radii, "probs": probs, "member": member, "nonempty": sizes > 0, "sizes": sizes}


def _covered(score, pieces, y) -> np.ndarray:
    if isinstance(score, AbsoluteResidual):
        return np.abs(np.asarray(y, dtype=float) - pieces["mu"]) <= pieces["radii"]
    rows = np.arange(len(y))
    return pieces["member"][rows, np.asarray(y) - 1]


def _reported_from_pieces(score, pieces, selected) -> tuple:
    out = []
    for j in selected:
        j = int(j)
        if isinstance(score, AbsoluteResidual):
            out.append((j, interval_set_from_radius(float(pieces["mu"][j]), float(pieces["radii"][j]))))
        else:
            out.append((j, class_set_from_radius(pieces["probs"][j], float(pieces["radii"][j]))))
    return tuple(out)


def run_infosp(cal: Dataset, test: Dataset, config: ProcedureConfig) -> ProcedureOutput:
    """BH over the test units' I-adjusted p-values; sets at the common BH level."""
    score, constraint = config.score, config.constraint
    if score is None or constraint is None:
        raise ConfigError("infosp needs a score and a constraint")
    cal_scores = CalibrationScores(score.eval(cal.X, cal.y))
    q = i_adjusted_pvalues(test.X, cal_scores, score, constraint)
    result = bh_select(q, config.alpha)
    tau = result.threshold_alpha_hat
    if result.k_hat == 0:
        return ProcedureOutput((), np.array([], dtype=int), {"q": q, "tau": tau})
    pieces = _sets_at_levels(score, cal_scores, test.X, np.full(test.n, tau))
    keep = result.selected[pieces["nonempty"][result.selected]]
    reported = _reported_from_pieces(score, pieces, keep)
    _check_reported(reported, constraint)
    return ProcedureOutput(reported, keep, {"q": q, "tau": tau})


def _truncation(cal: Dataset, cal0: Dataset, test: Dataset, config: ProcedureConfig):
    """Truncation step: cal0 scores, pooled cal+test X, their I-adjusted p-values q0, BH level tau0."""
    score, constraint = config.score, config.constraint
    if score is None or constraint is None:
        raise ConfigError("infosp+ needs a score and a constraint")
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

    ``truncation`` is the output of ``_truncation``; ``trust_override(pieces,
    X_all)`` replaces the default one-minus-level trust when the
    estimated-oracle variant runs.
    """
    score = config.score
    cal0_scores, X_all, q0, tau0 = truncation
    n = cal.n
    q_plus = np.maximum(q0, tau0)
    pieces = _sets_at_levels(score, cal0_scores, X_all, q_plus)
    nonempty = pieces["nonempty"]
    if trust_override is None:
        trust = np.where(nonempty, 1.0 - q_plus, 0.0)
    else:
        trust = np.where(nonempty, trust_override(pieces, X_all), 0.0)
    covered_cal = _covered(score, _slice_pieces(pieces, slice(0, n)), cal.y)
    null = ~(covered_cal & nonempty[:n])
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
    reported = _reported_from_pieces(score, _slice_pieces(pieces, slice(n, None)), result.selected)
    _check_reported(reported, config.constraint)
    diag = {
        "q0": q0,
        "tau0": tau0,
        "q_plus": q_plus,
        "pvalues": result.pvalues,
        "result": result,
        "trust": trust,
    }
    return ProcedureOutput(reported, result.selected, diag)


def _slice_pieces(pieces, sl):
    return {k: v[sl] for k, v in pieces.items()}


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
        def trust_override(pieces, X_all):
            return class_membership_trust(pieces["probs"], pieces["member"])

        truncation = _truncation(cal, cal0, test, config)
        return _infosp_plus_core(cal, test, config, rng, truncation, trust_override)
    score = _require_residual(config)
    if train is None:
        raise ConfigError("regression infosp++ needs a training sample")
    truncation = _truncation(cal, cal0, test, config)
    cal0_scores, _, _, tau0 = truncation
    q0_train = i_adjusted_pvalues(train.X, cal0_scores, score, config.constraint)
    pieces_train = _sets_at_levels(score, cal0_scores, train.X, np.maximum(q0_train, tau0))
    pos = _covered(score, pieces_train, train.y) & pieces_train["nonempty"]
    labels = np.where(pos, 1, -1)
    scorer = train_trust_classifier(
        train.X, labels, lam=config.lam, config=config.optimizer, feature_degree=config.feature_degree
    )

    def trust_override(pieces, X_all):
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
    score = config.score
    cal0_scores, _, q0, tau0 = _truncation(cal, cal0, test, config)
    q0_test = q0[cal.n :]
    selected = np.flatnonzero(q0_test <= tau0) if tau0 > 0.0 else np.array([], dtype=int)
    pieces = _sets_at_levels(score, cal0_scores, test.X, np.full(test.n, tau0))
    keep = selected[pieces["nonempty"][selected]]
    reported = _reported_from_pieces(score, pieces, keep)
    _check_reported(reported, config.constraint)
    return ProcedureOutput(reported, keep, {"q0": q0, "tau0": tau0})


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
        return ProcedureOutput((), np.array([], dtype=int), {"survivors": survivors})
    mu_test = np.asarray(score.mu_hat(test.X), dtype=float)
    tau_trust = float(mu_test[survivors].min())
    keep_cal = np.asarray(score.mu_hat(cal_b.X), dtype=float) >= tau_trust
    if not keep_cal.any():
        return ProcedureOutput((), np.array([], dtype=int), {"survivors": survivors})
    sub_cal = Dataset(cal_b.X[keep_cal], cal_b.y[keep_cal], cal_b.task)
    sub_test = Dataset(test.X[survivors], None if test.y is None else test.y[survivors], test.task)
    stage2 = run_infosp(sub_cal, sub_test, config)
    reported = tuple((int(survivors[j]), pset) for j, pset in stage2.reported)
    _check_reported(reported, config.constraint)
    selected = np.array([j for j, _ in reported], dtype=int)
    diag = {"survivors": survivors, "trust_threshold": tau_trust, "stage2": stage2.diagnostics}
    return ProcedureOutput(reported, selected, diag)


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
    reported = tuple((int(j), ClassSet((int(classes_test[j]),))) for j in result.selected)
    _check_reported(reported, constraint)
    return ProcedureOutput(reported, result.selected, {"result": result, "classes": classes_test})
