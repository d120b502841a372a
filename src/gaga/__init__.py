"""Sparse signal recovery by alternating per-coefficient ridge tuning with
hard truncation, plus a QR-accelerated variant and a simulation harness."""

from .errors import (
    DimensionError,
    GagaError,
    InvalidAlpha,
    InvalidCorrelation,
    InvalidInput,
    InvalidSize,
    RankDeficient,
    SingularSystem,
)
from .fixed_point import (
    CONVERGENT,
    DIVERGENT,
    UNDECIDED,
    ScalarRegime,
    asymptotic_tuning_limit,
    classify_trajectory,
    closed_form_fixed_point,
    convergence_threshold,
    map_value,
)
from .linalg import build_gram, spd_solve_with_inverse_diagonal
from .metrics import EvaluationReport, acc, err
from .qr import gaga_qr_fit
from .solver import gaga_fit
from .types import (
    ESTIMATED,
    FIXED,
    GagaConfig,
    GramSystem,
    RegressionProblem,
    SignalEstimate,
    SolverState,
)

__version__ = "0.1.0"

__all__ = [
    "RegressionProblem", "GagaConfig", "SignalEstimate", "GramSystem",
    "SolverState", "FIXED", "ESTIMATED",
    "gaga_fit", "gaga_qr_fit",
    "build_gram", "spd_solve_with_inverse_diagonal",
    "ScalarRegime", "map_value", "convergence_threshold",
    "closed_form_fixed_point", "classify_trajectory", "asymptotic_tuning_limit",
    "CONVERGENT", "DIVERGENT", "UNDECIDED",
    "err", "acc", "EvaluationReport",
    "GagaError", "InvalidInput", "InvalidAlpha", "InvalidSize",
    "InvalidCorrelation", "DimensionError", "SingularSystem",
    "RankDeficient",
]
