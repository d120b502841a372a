"""A literal, slow transcription of both fits, the reference that numerical
changes to ``gaga.solver`` and ``gaga.qr`` are checked against.

Every line follows the update equations with dense numpy and no shortcut: an
explicit ``np.linalg.inv(G + diag(b))`` each iteration, no Cholesky, no active
set, no closed form for diagonal grams. The QR variant takes OLS from
``np.linalg.lstsq`` and a Householder ``np.linalg.qr`` of the permuted design,
where the package works from the gram alone (CholeskyQR).

With G = X'X, c = X'y and b the weights (all zero at the start), one
iteration is

    M = (G + diag(b))^-1,  beta = M c,  D = diag(M)
    b_new = min(1e12 * max diag(G), alpha / (beta^2 / var + D))
    var_new = max(floor, (y'y - 2 beta'c + beta'G beta + var (p - D'b)) / n)

where the variance step (estimated mode only) uses the incoming b and var and
floor = 1e-12 (y'y / n + 1). After K iterations b* = b / alpha,
beta* = (G + diag(b*))^-1 c, and coefficient j is kept iff
beta*_j^2 >= var * ((G^-1)_jj - ((G + diag(b*))^-1)_jj), with var = 1 in
fixed mode.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from gaga import ESTIMATED, GagaConfig, RegressionProblem


@dataclass(frozen=True)
class OracleFit:
    """Output of a literal fit. ``relative_margin`` is
    |beta*_j^2 - threshold_j| / |threshold_j| of the truncation, in the basis
    where it is applied (the rotated basis of the QR variant)."""

    coefficients: np.ndarray
    support: np.ndarray
    tuning: np.ndarray
    variance: float
    relative_margin: np.ndarray


@dataclass(frozen=True)
class HouseholderPlan:
    """OLS estimate, its magnitude ordering and the sign-fixed thin QR of the
    permuted design: Q'Q = I, QR = X[:, permutation], diag(R) >= 0."""

    ols: np.ndarray
    permutation: np.ndarray
    q_factor: np.ndarray
    r_factor: np.ndarray


def fit_normal_equations(gram, cross, response_sq_norm, n, config: GagaConfig) -> OracleFit:
    p = cross.shape[0]
    alpha, estimated = config.alpha, config.variance_mode == ESTIMATED
    clamp = 1e12 * np.max(np.diag(gram))
    floor = 1e-12 * (response_sq_norm / n + 1.0)
    b, var = np.zeros(p), 1.0
    for k in range(config.iterations):
        m = np.linalg.inv(gram + np.diag(b))
        beta, d = m @ cross, np.diag(m)
        if k == 0:
            d_unpenalized = d
        b_new = np.minimum(clamp, alpha / (beta**2 / var + d))
        if estimated:
            rss = (response_sq_norm - 2.0 * beta @ cross + beta @ gram @ beta
                   + var * (p - d @ b))
            var = max(rss / n, floor)
        b = b_new
    b_star = b / alpha
    m_star = np.linalg.inv(gram + np.diag(b_star))
    beta_star = m_star @ cross
    truncation_var = var if estimated else 1.0
    threshold = truncation_var * (d_unpenalized - np.diag(m_star))
    keep = beta_star**2 >= threshold
    with np.errstate(divide="ignore", invalid="ignore"):
        relative_margin = np.abs(beta_star**2 - threshold) / np.abs(threshold)
    return OracleFit(
        coefficients=np.where(keep, beta_star, 0.0),
        support=keep,
        tuning=b_star,
        variance=truncation_var,
        relative_margin=relative_margin,
    )


def fit(problem: RegressionProblem, config: GagaConfig) -> OracleFit:
    """The plain fit, ``gaga.gaga_fit``."""
    x, y = problem.design, problem.response
    return fit_normal_equations(x.T @ x, x.T @ y, y @ y, problem.n, config)


def plan_qr(problem: RegressionProblem) -> HouseholderPlan:
    x = problem.design
    ols = np.linalg.lstsq(x, problem.response, rcond=None)[0]
    perm = np.argsort(-np.abs(ols), kind="stable")
    q, r = np.linalg.qr(x[:, perm])
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    return HouseholderPlan(ols=ols, permutation=perm, q_factor=q * signs,
                           r_factor=signs[:, None] * r)


def qr_fit(problem: RegressionProblem, config: GagaConfig) -> OracleFit:
    """The QR variant, ``gaga.gaga_qr_fit``: the literal fit on the identity
    gram with cross Q'y, then back-substitution through R, the 1e-12 snap of
    sub-roundoff leakage and the un-permute."""
    plan, y, p = plan_qr(problem), problem.response, problem.p
    theta = fit_normal_equations(np.eye(p), plan.q_factor.T @ y, y @ y, problem.n, config)
    beta_new = solve_triangular(plan.r_factor, theta.coefficients, lower=False)
    beta_new[np.abs(beta_new) <= 1e-12 * np.max(np.abs(beta_new), initial=0.0)] = 0.0
    coef, tuning = np.empty(p), np.empty(p)
    coef[plan.permutation] = beta_new
    tuning[plan.permutation] = theta.tuning
    return OracleFit(
        coefficients=coef,
        support=coef != 0.0,
        tuning=tuning,
        variance=theta.variance,
        relative_margin=theta.relative_margin,
    )
