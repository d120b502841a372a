"""Alternating signal / tuning-weight solver with hard truncation.

Each iteration ridge-solves for the signal under per-coefficient penalties,
then refreshes every penalty from the fresh estimate and the inverse diagonal.
After K iterations the penalties are divided by alpha, the signal is re-solved,
and coefficients falling under the variance-gap threshold are zeroed.
"""

import dataclasses

import numpy as np

from .errors import InvalidInput
from .linalg import build_gram, matvec, spd_solve_with_inverse_diagonal
from .types import (
    ESTIMATED,
    GagaConfig,
    GramSystem,
    RegressionProblem,
    SignalEstimate,
    SolverState,
)


def resolve_tuning_clamp(config: GagaConfig, gram_system: GramSystem) -> float:
    # Uncapped weights on dead coordinates grow geometrically and overflow;
    # anything this large is indistinguishable after truncation.
    scale = float(np.max(gram_system.diagonal))
    clamp = 1e12 * scale
    if not np.isfinite(clamp):
        raise InvalidInput(
            f"max diag(X'X) = {scale:.3g} is too large: the weight clamp "
            "1e12 * max diag(X'X) overflows; rescale the design")
    return clamp


def variance_floor(gram_system: GramSystem, n_obs: int) -> float:
    return 1e-12 * (gram_system.response_sq_norm / n_obs + 1.0)


def initial_state(p: int) -> SolverState:
    return SolverState(
        iteration=0,
        tuning=np.zeros(p),
        beta=np.zeros(p),
        inv_diag=np.full(p, np.nan),
        variance=1.0,
    )


def estimate_variance_em(state: SolverState, gram_system: GramSystem, n: int) -> float:
    """Expected residual sum of squares under the current posterior, / n.

    (y'y - 2 b'X'y + b'X'Xb + var * tr(D X'X)) / n, with
    tr(D X'X) = p - sum_j D_jj * penalty_j since D = (X'X + B)^-1.
    """
    g, c = gram_system.gram, gram_system.cross
    beta = state.beta
    g_beta = g * beta if g.ndim == 1 else matvec(g, beta)
    trace_term = gram_system.p - float(state.inv_diag @ state.tuning)
    rss = (
        gram_system.response_sq_norm
        - 2.0 * float(beta @ c)
        + float(beta @ g_beta)
        + state.variance * trace_term
    )
    return rss / n


def gaga_step(
    state: SolverState,
    gram_system: GramSystem,
    config: GagaConfig,
    n_obs: int,
) -> SolverState:
    """Advance one iteration: solve for the signal under the incoming penalties,
    then refresh penalties and (optionally) the noise variance.

    The kernel solves a coordinate whose weight has diverged by its own
    diagonal (see ``linalg.FREEZE_RATIO``). It decides that from the weights
    of every step, so a weight back under the bound rejoins the
    factorization."""
    clamp = resolve_tuning_clamp(config, gram_system)
    beta, inv_diag = spd_solve_with_inverse_diagonal(
        gram_system.gram, state.tuning, gram_system.cross)
    # A dead weight's update can overflow to inf; the clamp caps it.
    with np.errstate(over="ignore"):
        new_tuning = np.minimum(
            clamp,
            config.alpha / (beta * beta / state.variance + inv_diag),
        )
    floored = False
    if config.variance_mode == ESTIMATED:
        interim = dataclasses.replace(state, beta=beta, inv_diag=inv_diag)
        var = estimate_variance_em(interim, gram_system, n_obs)
        floor = variance_floor(gram_system, n_obs)
        if var < floor:
            var = floor
            floored = True
    else:
        var = state.variance
    return SolverState(
        iteration=state.iteration + 1,
        tuning=new_tuning,
        beta=beta,
        inv_diag=inv_diag,
        variance=var,
        variance_floored=floored,
    )


def hard_truncate(
    beta_star, tuning_star, variance: float, unpenalized_inv_diag, penalized_inv_diag,
) -> SignalEstimate:
    """Zero every coefficient whose square falls below the variance gap
    var * ((X'X)^-1_jj - (X'X + B*)^-1_jj), given both inverse diagonals."""
    beta_star = np.asarray(beta_star, dtype=float)
    tuning_star = np.asarray(tuning_star, dtype=float)
    threshold = variance * np.subtract(unpenalized_inv_diag, penalized_inv_diag)
    keep = beta_star * beta_star >= threshold
    coef = np.where(keep, beta_star, 0.0)
    return SignalEstimate(
        coefficients=coef,
        support=keep,
        tuning=tuning_star,
        estimated_variance=variance,
    )


def fit_gram(gram_system: GramSystem, n_obs: int, config: GagaConfig) -> SignalEstimate:
    """Run the solver given precomputed normal-equation pieces. A diagonal
    gram (see ``GramSystem``) makes every solve of the fit O(p) work.

    Iteration 1 starts from zero penalties, so it solves with X'X itself and
    its inverse diagonal is the (X'X)^-1_jj that the truncation needs: no
    solve is repeated."""
    state = initial_state(gram_system.p)
    trace = [] if config.record_trace else None
    for _ in range(config.iterations):
        state = gaga_step(state, gram_system, config, n_obs)
        if state.iteration == 1:
            unpenalized_inv_diag = state.inv_diag
        if trace is not None:
            trace.append(state)
    b_star = state.tuning / config.alpha
    beta_star, inv_diag_star = spd_solve_with_inverse_diagonal(
        gram_system.gram, b_star, gram_system.cross)
    final_var = state.variance if config.variance_mode == ESTIMATED else 1.0
    estimate = hard_truncate(
        beta_star, b_star, final_var, unpenalized_inv_diag, inv_diag_star)
    if trace is not None:
        estimate = dataclasses.replace(estimate, trace=tuple(trace))
    return estimate


def gaga_fit(problem: RegressionProblem, config: GagaConfig = GagaConfig()) -> SignalEstimate:
    """Fit the full pipeline on a regression problem."""
    return fit_gram(build_gram(problem), problem.n, config)
