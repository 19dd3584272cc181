"""End-to-end selective prediction methods.

Each ``run_*`` function takes frozen datasets plus a ProcedureConfig and
returns a ProcedureOutput: the selected test indices, their reported sets as
one column batch (``core.IntervalBatch`` or ``core.ClassBatch``), and
diagnostics.

Every method predicts all of its rows in one call (``_pooled_predictions``:
the training rows of cfbh++ and regression infosp++ first, test rows last)
and reads its calibration scores, breakpoints, sets and trusts from that
array.  The trust-score methods (cfbh+, cfbh++, infosp+, infosp++, selective
classification) differ only in their set constructor and trust, and select
through ``_select``: a calibration unit is null exactly when its label falls
outside its own set, and BH over the generalized conformal p-values selects
among the test units whose set is nonempty; cfbh calls the same
``scip_select_arrays``.  The other methods leave through ``_report``, which
keeps the candidates whose set is nonempty.  Every exit checks each reported
set against the active constraint.  A NaN or infinite prediction raises
``ValueError`` on a training or calibration row and gives a test row the
empty set, which is never reported; so is a test row whose trust is NaN or
infinite.

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
    NonconformityScore,
    OneMinusProb,
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
    RngStream,
    SetBatch,
    SingletonClass,
    TargetHalfLines,
    _finite_rows,
)
from .selection import TieMode, bh_select, scip_select_arrays
from .trust import (
    OptimizerConfig,
    class_membership_trust,
    train_trust_classifier,
)


@dataclass(frozen=True)
class ProcedureConfig:
    """Everything a method needs beyond the data.

    ``screening_alpha``/``screening_threshold`` drive the infoscop screening stage.
    """

    alpha: float
    constraint: InformativeConstraint
    score: NonconformityScore
    tie_mode: TieMode = TieMode.PER_UNIT
    screening_alpha: float | None = None
    screening_threshold: float = 0.0
    lam: float = 1.0
    feature_degree: int = 1
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if self.score is None or self.constraint is None:
            raise ConfigError("a method needs a score and a constraint")
        if not 0.0 < self.lam < np.inf:
            raise ConfigError("lam must be finite and > 0")
        if not (isinstance(self.feature_degree, (int, np.integer)) and self.feature_degree >= 1):
            raise ConfigError("feature_degree must be an integer >= 1")


@dataclass(frozen=True)
class ProcedureOutput:
    """The selected test units, the sets reported for them, and run diagnostics.

    Row i of ``sets`` is the set reported for test unit ``selected[i]``.
    """

    selected: np.ndarray
    sets: SetBatch
    diagnostics: dict

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


def _report(config: ProcedureConfig, candidates, sets: SetBatch, diagnostics) -> ProcedureOutput:
    """Exit of the methods without a trust score: the candidates whose set (row of ``sets``) is nonempty."""
    keep = candidates[sets.nonempty[candidates]]
    return _checked_output(keep, sets.take(keep), config.constraint, diagnostics)


def _pooled_predictions(score: NonconformityScore, *blocks: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The blocks' rows, stacked, and one call's predictions; a non-finite one off the last (test) block raises."""
    X = np.vstack([block.X for block in blocks])
    pred = score.predict(X)
    if not np.isfinite(pred[: X.shape[0] - blocks[-1].n]).all():
        raise ValueError("calibration scores must be finite")
    return X, pred


def _calibrated(score: NonconformityScore, cal: Dataset, *rest: Dataset):
    """Pooled predictions of cal, then ``rest``: the rows of ``rest``, cal's scores, and their predictions."""
    X, pred = _pooled_predictions(score, cal, *rest)
    return X[cal.n :], CalibrationScores(score.scores(pred[: cal.n], cal.y)), pred[cal.n :]


def _select(
    config: ProcedureConfig, rng: RngStream | None, cal_y, sets: SetBatch, trusts, **diagnostics
) -> ProcedureOutput:
    """The shared selection step: null = label outside its own set, generalized p-values, BH.

    Rows of ``sets`` and ``trusts`` come pooled: the first ``cal_y.size`` are
    calibration units, the rest test units.  Test units with an empty set are
    never selected, and keep their slot in BH's denominator; so is a test unit
    whose trust is NaN or infinite (a NaN trust feature the predictor does not
    read, say), which selection sees with trust 0.  A calibration unit's
    non-finite trust raises ``ValueError``.
    """
    n = cal_y.size
    null = ~sets.take(slice(0, n)).covers(cal_y)  # an empty set covers nothing
    finite = np.isfinite(trusts[n:])
    result = scip_select_arrays(
        trusts[:n], null, np.where(finite, trusts[n:], 0.0), config.alpha, config.tie_mode, rng,
        test_eligible=sets.nonempty[n:] & finite,
    )
    diag = {"result": result, **diagnostics}
    return _checked_output(result.selected, sets.take(n + result.selected), config.constraint, diag)


def _trained_trust(config: ProcedureConfig, train: Dataset, X, sets: SetBatch):
    """The trust classifier fit to whether each training label lies in its own set, the other rows'
    sets, and their trust (0 for an empty set, so a NaN feature there reaches no selection); rows
    of ``X`` and ``sets`` come pooled, the training rows first."""
    labels = np.where(sets.take(slice(0, train.n)).covers(train.y), 1, -1)
    scorer = train_trust_classifier(
        train.X, labels, lam=config.lam, config=config.optimizer, feature_degree=config.feature_degree
    )
    sets = sets.take(slice(train.n, None))
    return scorer, sets, np.where(sets.nonempty, scorer.predict(X[train.n :]), 0.0)


def _require_residual(config: ProcedureConfig) -> AbsoluteResidual:
    if not isinstance(config.score, AbsoluteResidual):
        raise ConfigError("this method needs an absolute-residual score")
    return config.score


def _require_class_prob(config: ProcedureConfig) -> OneMinusProb:
    if not isinstance(config.score, OneMinusProb):
        raise ConfigError("this method needs a one-minus-probability score")
    return config.score


def _half_line_sets(config: ProcedureConfig, mu: np.ndarray) -> tuple[IntervalBatch, np.ndarray]:
    """cfbh+'s constructor and mu-based trust, per prediction mu.

    HalfLine(c0): (c0, inf) with trust mu_hat.  TargetHalfLines(c_l, c_u):
    (c_u, inf) when mu_hat >= (c_l + c_u)/2, else (-inf, c_l), with trust
    the distance of mu_hat from that midpoint, which must be finite.  An open
    end is held as the next float inside it: (c0, inf) is [nextafter(c0, inf),
    inf], empty for c0 >= max.  A NaN or infinite mu_hat gets the empty set
    and trust 0, as in ``IntervalBatch.from_radius``.
    """
    constraint = config.constraint
    if isinstance(constraint, HalfLine):
        up, c_below, c_above, trust = np.ones(mu.shape, dtype=bool), constraint.c0, constraint.c0, mu
    elif isinstance(constraint, TargetHalfLines):
        mid = (constraint.c_l + constraint.c_u) / 2.0
        if not np.isfinite(mid):  # an infinite end, or c_l + c_u past ±max: no distance to rank by
            raise ConfigError("cfbh+ and cfbh++ need a finite midpoint (c_l + c_u) / 2")
        up, c_below, c_above, trust = mid - mu <= 0.0, constraint.c_l, constraint.c_u, np.abs(mid - mu)
    else:
        raise ConfigError("cfbh+ and cfbh++ need a HalfLine or TargetHalfLines constraint")
    finite = np.isfinite(mu)
    with np.errstate(over="ignore"):
        above, below = np.nextafter(c_above, np.inf), np.nextafter(c_below, -np.inf)
    lower = np.where(finite, np.where(up, above, -np.inf), np.inf)
    upper = np.where(finite, np.where(up, np.inf, below), -np.inf)
    return IntervalBatch(lower, upper), np.where(finite, trust, 0.0)


# ---------------------------------------------------------------------------
# Baselines without selection adjustment
# ---------------------------------------------------------------------------


def run_naive(cal: Dataset, test: Dataset, config: ProcedureConfig) -> ProcedureOutput:
    """Level-alpha conformal sets for every unit; keep the admissible nonempty ones."""
    _, cal_scores, pred = _calibrated(config.score, cal, test)
    sets = config.score.sets(pred, cal_scores.score_radius(config.alpha))
    return _report(config, np.flatnonzero(config.constraint.admits(sets)), sets, {})


# ---------------------------------------------------------------------------
# Conformal selection (one- and two-sided)
# ---------------------------------------------------------------------------


def run_cfbh(cal: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream) -> ProcedureOutput:
    """Clipped-score conformal p-values + BH; reports the half line above the threshold.

    The paper's clipped score mu_hat(x) - 2M 1{y > c0}, with M past the
    realized sup of |mu_hat|, drops every calibration label above c0 below
    every test unit, whose score is mu_hat(x).  Only that order matters, so a
    calibration unit with y > c0 scores the float just below the pooled
    minimum instead, which stays finite where 2M would overflow (-max, tied
    with a test score of -max, when the minimum is -max).  The paper's score
    also subtracts c0: a common shift changes no rank (rounded, it can only
    merge near-ties), and leaving it out keeps the scores finite for c0 = inf.
    A test unit whose half line is empty (a NaN or infinite mu_hat, or
    c0 >= max) gets p-value 1.
    """
    if not isinstance(config.constraint, HalfLine):
        raise ConfigError("cfbh tests a half-line null; use a HalfLine constraint")
    return _cfbh_core(config, rng, cal.y, _pooled_predictions(_require_residual(config), cal, test)[1])


def _cfbh_core(config: ProcedureConfig, rng: RngStream, cal_y, mu) -> ProcedureOutput:
    """cfbh on pooled predictions ``mu``: the first ``cal_y.size`` are calibration rows, the rest test rows."""
    n = cal_y.size
    sets, v = _half_line_sets(config, mu)
    clip = max(float(np.nextafter(v.min(), -np.inf)), -np.finfo(float).max)
    v_cal = np.where(cal_y > config.constraint.c0, clip, v[:n])
    result = scip_select_arrays(
        v_cal, np.ones(n, dtype=bool), v[n:], config.alpha, config.tie_mode, rng, test_eligible=sets.nonempty[n:]
    )
    return _report(config, result.selected, sets.take(slice(n, None)), {"result": result, "clip": clip})


def run_cfbh_plus(
    cal: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream
) -> ProcedureOutput:
    """Trust-score route: fixed half line (one-sided) or estimated direction (two-sided)."""
    score = _require_residual(config)
    sets, trust = _half_line_sets(config, _pooled_predictions(score, cal, test)[1])
    return _select(config, rng, cal.y, sets, trust)


def run_cfbh_plus_plus(
    train: Dataset, cal: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream
) -> ProcedureOutput:
    """cfbh+ with a trust score trained to tell labels inside their half line from the rest."""
    X, mu = _pooled_predictions(_require_residual(config), train, cal, test)
    scorer, sets, trust = _trained_trust(config, train, X, _half_line_sets(config, mu)[0])
    return _select(config, rng, cal.y, sets, trust, scorer=scorer)


# ---------------------------------------------------------------------------
# Selection under general informativeness constraints
# ---------------------------------------------------------------------------


def run_infosp(cal: Dataset, test: Dataset, config: ProcedureConfig) -> ProcedureOutput:
    """BH over the test units' I-adjusted p-values; sets at the common BH level.

    One predictor call reads the calibration and then the test rows.  A test
    row with a NaN or infinite class probability, or a NaN or infinite
    ``mu_hat``, gets I-adjusted p-value 1 and an empty set, so it is never
    reported and does not count in BH's k; infosp+ and infosp++ do the same.
    A non-finite prediction on a calibration row raises ``ValueError``.
    """
    _, cal_scores, pred = _calibrated(config.score, cal, test)
    return _infosp_core(config, cal_scores, pred)


def _infosp_core(config: ProcedureConfig, cal_scores: CalibrationScores, pred) -> ProcedureOutput:
    """infosp on the calibration scores and the test rows' predictions ``pred``."""
    q = cal_scores.admissible_level(config.constraint.breakpoints(pred))
    result = bh_select(q, config.alpha)
    tau = result.threshold_alpha_hat
    sets = config.score.sets(pred, cal_scores.score_radius(tau))
    return _report(config, result.selected, sets, {"q": q, "tau": tau})


def _truncation(config: ProcedureConfig, cal0: Dataset, *blocks: Dataset, skip: int = 0):
    """The CP-truncated constructor, from one call that predicts cal0, then ``blocks``.

    Returns the blocks' rows and predictions, each row's I-adjusted level q0,
    the BH level tau0, q_plus = max(q0, tau0), and each row's level-q_plus
    set, rows in order.  tau0 is BH's level over the q0 of every row but the
    first ``skip`` (training rows, which take no part in selection).
    """
    X, cal0_scores, pred = _calibrated(config.score, cal0, *blocks)
    q0 = cal0_scores.admissible_level(config.constraint.breakpoints(pred))
    tau0 = bh_select(q0[skip:], config.alpha).threshold_alpha_hat
    q_plus = np.maximum(q0, tau0)
    return X, pred, q0, tau0, q_plus, config.score.sets(pred, cal0_scores.score_radius(q_plus))


def run_infosp_plus(
    cal: Dataset, cal0: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream
) -> ProcedureOutput:
    """Truncated-level sets with trust 1 - level (0 for an empty set), then generalized selection."""
    _, _, q0, tau0, q_plus, sets = _truncation(config, cal0, cal, test)
    trust = np.where(sets.nonempty, 1.0 - q_plus, 0.0)
    return _select(config, rng, cal.y, sets, trust, q0=q0, tau0=tau0, q_plus=q_plus, trust=trust)


def run_infosp_plus_plus(
    train: Dataset | None,
    cal: Dataset,
    cal0: Dataset,
    test: Dataset,
    config: ProcedureConfig,
    rng: RngStream,
) -> ProcedureOutput:
    """infosp+ constructor with an estimated-oracle trust score (0 for an empty set).

    Classification reuses the frozen class probabilities (mass of the set);
    regression trains a coverage classifier on the disjoint training sample,
    whose rows lead the one predictor call and take no part in tau0.
    """
    if isinstance(config.score, OneMinusProb):
        _, probs, q0, tau0, q_plus, sets = _truncation(config, cal0, cal, test)
        trust = class_membership_trust(probs, sets.member)
    else:
        _require_residual(config)
        if train is None:
            raise ConfigError("regression infosp++ needs a training sample")
        X, _, q0, tau0, q_plus, sets = _truncation(config, cal0, train, cal, test, skip=train.n)
        _, sets, trust = _trained_trust(config, train, X, sets)
        q0, q_plus = q0[train.n :], q_plus[train.n :]
    return _select(config, rng, cal.y, sets, trust, q0=q0, tau0=tau0, q_plus=q_plus, trust=trust)


def run_infosp_modified(
    cal: Dataset, cal0: Dataset, test: Dataset, config: ProcedureConfig
) -> ProcedureOutput:
    """Diagnostic variant: the plain I-adjusted route cut at the truncation level.

    Shares the threshold computed over the pooled truncation p-values, which
    puts it on equal footing with the truncated-level method for containment
    checks.  A reported unit has q0 <= tau0, so q_plus = tau0 and its set is
    the level-tau0 set.  No I-adjusted p-value is below 1/(n+1), so tau0 = 0
    selects nothing.
    """
    _, _, q0, tau0, _, sets = _truncation(config, cal0, cal, test)
    test_rows = slice(cal.n, None)
    return _report(config, np.flatnonzero(q0[test_rows] <= tau0), sets.take(test_rows), {"q0": q0, "tau0": tau0})


def run_infoscop(
    cal_a: Dataset, cal_b: Dataset, test: Dataset, config: ProcedureConfig, rng: RngStream
) -> ProcedureOutput:
    """Screen with cfbh, then run infosp on the post-selection subsample.

    One predictor call over cal_b, cal_a and the test rows feeds both stages.
    Screening induces a trust threshold, the survivors' smallest mu_hat; stage
    two cuts cal_b at that threshold so that survivors on both sides stay
    exchangeable (screening the test side alone is anti-conservative).  A NaN
    or infinite mu_hat in cal_a or cal_b raises ``ValueError`` even if
    screening keeps no unit; on a test row it never survives screening.
    """
    if config.screening_alpha is None:
        raise ConfigError("infoscop needs a screening level")
    score = _require_residual(config)
    screen_cfg = replace(config, alpha=config.screening_alpha, constraint=HalfLine(config.screening_threshold))
    mu = _pooled_predictions(score, cal_b, cal_a, test)[1]
    mu_b, mu_test = mu[: cal_b.n], mu[cal_b.n + cal_a.n :]
    survivors = _cfbh_core(screen_cfg, rng, cal_a.y, mu[cal_b.n :]).selected
    if survivors.size == 0:
        return ProcedureOutput(survivors, _NO_INTERVALS, {"survivors": survivors})
    tau_trust = float(mu_test[survivors].min())
    keep_cal = mu_b >= tau_trust
    if not keep_cal.any():
        return ProcedureOutput(survivors[:0], _NO_INTERVALS, {"survivors": survivors})
    cal_scores = CalibrationScores(score.scores(mu_b[keep_cal], cal_b.y[keep_cal]))
    stage2 = _infosp_core(config, cal_scores, mu_test[survivors])  # checks every reported set
    diag = {"survivors": survivors, "trust_threshold": tau_trust}
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
    class index).  The trust is the probability of the reported class.
    Deterministic ties make the selection coincide with the counting-knockoff
    scan over the FASI or Zhao-Su pool.  A test row with a NaN or infinite
    probability gets the empty set and trust 0, so it is never reported; such
    a calibration row raises ``ValueError``, as it does for infosp.  Under a SingletonClass(y0)
    with y0 outside the classes 1..K every row's set is empty.
    """
    score = _require_class_prob(config)
    constraint = config.constraint
    fixed = isinstance(constraint, SingletonClass)
    if not (fixed or (isinstance(constraint, MaxSize) and constraint.k0 == 1)):
        raise ConfigError("selective classification needs SingletonClass or MaxSize(1)")

    probs = _pooled_predictions(score, cal, test)[1]
    classes = np.full(probs.shape[0], constraint.y0) if fixed else np.argmax(probs, axis=1) + 1
    member = (classes[:, None] == np.arange(1, probs.shape[1] + 1)) & _finite_rows(probs)[:, None]
    trust = class_membership_trust(probs, member)  # the one member's probability, or 0
    deterministic = replace(config, tie_mode=TieMode.DETERMINISTIC)
    return _select(deterministic, None, cal.y, ClassBatch(member), trust)
