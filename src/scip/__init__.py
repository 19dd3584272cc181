"""Selective prediction with false coverage rate control under informativeness constraints."""

from .conformal import (
    AbsoluteResidual,
    CalibrationScores,
    OneMinusProb,
    i_adjusted_pvalues,
)
from .core import (
    ClassBatch,
    Dataset,
    HalfLine,
    InformativeConstraint,
    IntervalBatch,
    LowerBoundedInterval,
    MaxSize,
    PositiveInterval,
    RngStream,
    ScipError,
    SingletonClass,
    TargetHalfLines,
)
from .metrics import aggregate, mfcr_estimate, replication_metrics
from .procedures import (
    ProcedureConfig,
    ProcedureOutput,
    run_cfbh,
    run_cfbh_plus,
    run_cfbh_plus_plus,
    run_infoscop,
    run_infosp,
    run_infosp_modified,
    run_infosp_plus,
    run_infosp_plus_plus,
    run_naive,
    run_selective_classification,
)
from .selection import (
    ScoredPool,
    SelectionResult,
    TieMode,
    bh_select,
    counting_knockoff_select,
    generalized_conformal_pvalues,
    self_consistent_select,
)
from .simgen import gen_classification, gen_regression, gen_synthetic_scores, mu_star
from .trust import diversity_scores, train_trust_classifier

__version__ = "0.1.0"
