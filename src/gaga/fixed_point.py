"""Scalar tuning-weight recursion for a single orthogonal-design coordinate.

For a coordinate with column energy sigma and squared projection z, the tuning
weight evolves as b <- alpha*(b+sigma)^2/(b+sigma+z) from b=0. Above the
convergence threshold the sequence settles at a closed-form fixed point; below
it the sequence blows up (and the coefficient is shrunk away). This module is
the independent oracle the matrix solver is validated against.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidAlpha, InvalidInput

CONVERGENT = "convergent"
DIVERGENT = "divergent"
UNDECIDED = "undecided"

# Divergence is declared once the iterate escapes this many thresholds; any
# convergent fixed point sits well below (b* <= threshold scale).
_ESCAPE_FACTOR = 1e3


def convergence_threshold(alpha: float, sigma: float) -> float:
    """Smallest z for which the recursion converges: ((2a-1)+2*sqrt(a(a-1)))*sigma."""
    if not alpha > 1:
        raise InvalidAlpha(f"alpha must be > 1, got {alpha}")
    if not sigma > 0:
        raise InvalidInput(f"sigma must be positive, got {sigma}")
    return ((2 * alpha - 1) + 2 * math.sqrt(alpha * (alpha - 1))) * sigma


@dataclass(frozen=True)
class ScalarRegime:
    """One coordinate's (z, sigma) pair under gain alpha, and its convergence threshold."""

    z: float
    sigma: float
    alpha: float
    threshold: float

    @staticmethod
    def from_params(z: float, sigma: float, alpha: float) -> "ScalarRegime":
        if z < 0:
            raise InvalidInput("z must be nonnegative")
        return ScalarRegime(z, sigma, alpha, convergence_threshold(alpha, sigma))


def map_value(x: float, regime: ScalarRegime) -> float:
    """One recursion step: alpha*(x+sigma)^2/(x+sigma+z)."""
    s = x + regime.sigma
    return regime.alpha * s * s / (s + regime.z)


def closed_form_fixed_point(regime: ScalarRegime) -> Optional[float]:
    """The stable root of f(b)=b, or None when the recursion diverges."""
    if regime.z < regime.threshold:
        return None
    z, sigma, alpha = regime.z, regime.sigma, regime.alpha
    a = z - (2 * alpha - 1) * sigma
    disc = a * a - 4 * alpha * (alpha - 1) * sigma * sigma
    # Clip tiny negative discriminants at the boundary z == threshold.
    disc = max(disc, 0.0)
    return (a - math.sqrt(disc)) / (2 * (alpha - 1))


def classify_trajectory(regime: ScalarRegime, max_iter: int):
    """Iterate from b=0 and classify the sequence.

    Returns (classification, trajectory). Convergent when successive steps
    shrink below 1e-12*(1+b); divergent once b escapes 1e3 thresholds;
    undecided when neither happens within max_iter (near-boundary regimes).
    """
    if max_iter < 1:
        raise InvalidInput("max_iter must be >= 1")
    escape = _ESCAPE_FACTOR * regime.threshold
    b = 0.0
    traj = [b]
    for _ in range(max_iter):
        nxt = map_value(b, regime)
        traj.append(nxt)
        if abs(nxt - b) < 1e-12 * (1.0 + b):
            return CONVERGENT, traj
        b = nxt
        if b > escape:
            return DIVERGENT, traj
    return UNDECIDED, traj


def asymptotic_tuning_limit(beta_star: float, alpha: float) -> float:
    """Large-sample limit of the raw tuning weight for a nonzero coefficient:
    alpha / beta_star^2 (so b/alpha tends to 1/beta_star^2)."""
    if not alpha > 1:
        raise InvalidAlpha(f"alpha must be > 1, got {alpha}")
    if beta_star == 0:
        raise InvalidInput("tuning limit diverges for a zero coefficient")
    return alpha / (beta_star * beta_star)
