"""Evaluation functionals: estimation error and support-recovery accuracy."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class EvaluationReport:
    err: float
    true_positives: int
    true_negatives: int
    false_positives: int
    false_negatives: int

    @property
    def acc(self) -> float:
        """The fraction of positions whose zero/nonzero status is right."""
        right = self.true_positives + self.true_negatives
        return right / (right + self.false_positives + self.false_negatives)


def _check_lengths(estimate, truth):
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape or estimate.ndim != 1:
        raise DimensionError(
            f"shape mismatch: estimate {estimate.shape} vs truth {truth.shape}"
        )
    return estimate, truth


def err(estimate, truth) -> float:
    """Euclidean distance between estimate and truth; one that overflows is
    inf, without a warning."""
    estimate, truth = _check_lengths(estimate, truth)
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(estimate - truth))


def acc(estimate, truth) -> EvaluationReport:
    """Confusion counts over zero/nonzero status; a position counts as positive
    iff the true coefficient is nonzero, predicted positive iff the estimate is
    nonzero (exact-zero test, no magnitude threshold)."""
    estimate, truth = _check_lengths(estimate, truth)
    pred = estimate != 0.0
    actual = truth != 0.0
    tp = int(np.sum(pred & actual))
    tn = int(np.sum(~pred & ~actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    return EvaluationReport(
        err=err(estimate, truth),
        true_positives=tp,
        true_negatives=tn,
        false_positives=fp,
        false_negatives=fn,
    )
