"""Shared domain types: problems, solver configuration, estimates."""

import numbers
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InvalidInput


FIXED = "fixed"
ESTIMATED = "estimated"


def integral(value, name) -> int:
    """``value`` as an int, or ``InvalidInput`` when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


def _as_1d(v, name):
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class RegressionProblem:
    """A dense linear regression instance y = X b + noise."""

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.design, dtype=float)
        if x.ndim != 2:
            raise DimensionError(f"design must be a matrix, got shape {x.shape}")
        y = _as_1d(self.response, "response")
        n, p = x.shape
        if n < 1 or p < 1:
            raise InvalidInput(f"need n >= 1 and p >= 1, got {n}x{p}")
        if y.shape[0] != n:
            raise DimensionError(f"response length {y.shape[0]} != row count {n}")
        # NaN and +-inf carry through min and max, which need no n x p temporary.
        if not all(np.isfinite(a.min()) and np.isfinite(a.max()) for a in (x, y)):
            raise InvalidInput("design/response contain non-finite entries")
        object.__setattr__(self, "design", x)
        object.__setattr__(self, "response", y)

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def p(self) -> int:
        return self.design.shape[1]


@dataclass(frozen=True)
class GagaConfig:
    """Solver configuration. The weight clamp and the rank tolerance are not
    settings: both scale with the gram diagonal of each fit."""

    iterations: int = 50
    alpha: float = 2.0
    variance_mode: str = FIXED
    record_trace: bool = False

    def __post_init__(self):
        if integral(self.iterations, "iterations") < 1:
            raise InvalidInput("iterations must be >= 1")
        if not isinstance(self.alpha, numbers.Real):
            raise InvalidInput(f"alpha must be a real number, got {self.alpha!r}")
        if not 1 < self.alpha < np.inf:
            raise InvalidInput("alpha must be finite and > 1")
        if self.variance_mode not in (FIXED, ESTIMATED):
            raise InvalidInput(f"unknown variance_mode {self.variance_mode!r}")
        if not isinstance(self.record_trace, (bool, np.bool_)):
            raise InvalidInput(f"record_trace must be a bool, got {self.record_trace!r}")


@dataclass(frozen=True)
class SignalEstimate:
    """Final estimate: coefficients after truncation (``support``, the selected
    model, is their nonzero set), tuning weights b^K / alpha and the truncation variance."""

    coefficients: np.ndarray
    tuning: np.ndarray
    estimated_variance: float
    trace: Optional[tuple] = None

    def __post_init__(self):
        coef = _as_1d(self.coefficients, "coefficients")
        tun = _as_1d(self.tuning, "tuning")
        if coef.shape != tun.shape:
            raise DimensionError("coefficients/tuning length mismatch")
        if not (np.all(np.isfinite(coef)) and np.all(np.isfinite(tun))
                and np.isfinite(self.estimated_variance)):
            raise InvalidInput("coefficients, tuning and variance must be finite")
        if np.any(tun < 0):
            raise InvalidInput("tuning weights must be nonnegative")
        object.__setattr__(self, "coefficients", coef)
        object.__setattr__(self, "tuning", tun)

    @property
    def support(self) -> np.ndarray:
        return self.coefficients != 0.0


@dataclass(frozen=True)
class GramSystem:
    """Precomputed normal-equation pieces: X'X, X'y and y'y.

    An exactly diagonal X'X is stored as the length-p vector of its diagonal,
    so whether a system is diagonal is decided once, here, and every solve on
    a diagonal system takes the O(p) closed form."""

    gram: np.ndarray
    cross: np.ndarray
    response_sq_norm: float

    def __post_init__(self):
        from . import linalg  # linalg imports this module

        gram = np.asarray(self.gram, dtype=float)
        cross = np.asarray(self.cross, dtype=float)
        p = gram.shape[0] if gram.ndim else 0
        if not (gram.ndim == 1 or gram.shape == (p, p)) or cross.shape != (p,):
            raise DimensionError(
                f"need a length-p or p x p gram and a length-p cross, got shapes "
                f"{gram.shape} and {cross.shape}")
        if gram.ndim == 2 and linalg.is_diagonal(gram):
            gram = np.diagonal(gram).copy()
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "cross", cross)

    @property
    def p(self) -> int:
        return self.gram.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return self.gram if self.gram.ndim == 1 else np.diagonal(self.gram)


@dataclass(frozen=True)
class SolverState:
    """State carried between solver iterations; with ``record_trace`` on, the
    state after each iteration is kept in ``SignalEstimate.trace``."""

    iteration: int
    tuning: np.ndarray
    beta: np.ndarray
    inv_diag: np.ndarray
    variance: float
    variance_floored: bool = False
