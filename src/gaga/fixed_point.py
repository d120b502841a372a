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


def _check_alpha(alpha):
    if not 1 < alpha < math.inf:
        raise InvalidAlpha(f"alpha must be finite and > 1, got {alpha}")


def convergence_threshold(alpha: float, sigma: float) -> float:
    """Smallest z for which the recursion converges: ((2a-1)+2*sqrt(a(a-1)))*sigma."""
    _check_alpha(alpha)
    if not 0 < sigma < math.inf:
        raise InvalidInput(f"sigma must be positive and finite, got {sigma}")
    threshold = ((2 * alpha - 1) + 2 * math.sqrt(alpha * (alpha - 1))) * sigma
    if threshold == math.inf:
        raise InvalidInput(f"the convergence threshold overflows at alpha = {alpha}, "
                           f"sigma = {sigma}")
    return threshold


@dataclass(frozen=True)
class ScalarRegime:
    """One coordinate's (z, sigma) pair under gain alpha, and its convergence threshold."""

    z: float
    sigma: float
    alpha: float
    threshold: float

    @staticmethod
    def from_params(z: float, sigma: float, alpha: float) -> "ScalarRegime":
        if not 0 <= z < math.inf:
            raise InvalidInput(f"z must be nonnegative and finite, got {z}")
        return ScalarRegime(z, sigma, alpha, convergence_threshold(alpha, sigma))


def map_value(x: float, regime: ScalarRegime) -> float:
    """One recursion step: alpha*(x+sigma)^2/(x+sigma+z), taken as
    alpha*s/(1 + z/s) with s = x + sigma, so that no square overflows."""
    s = x + regime.sigma
    return regime.alpha * (s / (1.0 + regime.z / s))


def closed_form_fixed_point(regime: ScalarRegime) -> Optional[float]:
    """The stable root of f(b)=b, or None when the recursion diverges.

    The root is (a - sqrt(disc)) / (2(alpha-1)) with a = z - (2alpha-1)sigma
    and disc = a^2 - 4alpha(alpha-1)sigma^2. That difference cancels as z
    grows, so it is taken as 2 alpha sigma^2 / (a + sqrt(disc)), with
    sqrt(disc) = a sqrt(1 - 4alpha(alpha-1)(sigma/a)^2): nothing cancels,
    and neither a^2 nor a + sqrt(disc) can overflow."""
    if regime.z < regime.threshold:
        return None
    z, sigma, alpha = regime.z, regime.sigma, regime.alpha
    a = z - (2 * alpha - 1) * sigma
    # Clip tiny negative discriminants at the boundary z == threshold.
    root = math.sqrt(max(1.0 - 4 * alpha * (alpha - 1) * (sigma / a) ** 2, 0.0))
    return 2 * alpha * (sigma / a) * sigma / (1.0 + root)


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
    _check_alpha(alpha)
    if not math.isfinite(beta_star):
        raise InvalidInput(f"beta_star must be finite, got {beta_star}")
    if beta_star == 0:
        raise InvalidInput("tuning limit diverges for a zero coefficient")
    square = beta_star * beta_star
    limit = alpha / square if square else math.inf
    if limit == math.inf:
        raise InvalidInput(f"beta_star^2 underflows, so alpha / beta_star^2 overflows, "
                           f"at beta_star = {beta_star}")
    return limit
