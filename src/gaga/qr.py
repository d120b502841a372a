"""QR-accelerated variant: reorder columns by least-squares magnitude, rotate
into an orthogonal basis, run the solver there (diagonal systems only), and
back-substitute through the triangular factor.

The fit path never forms Q. It takes R as the upper Cholesky factor of the
permuted gram P'X'XP and Q'y as R^-T P'X'y (CholeskyQR), so after the gram is
built the design is not touched again. The price is the accuracy of the
normal equations, as in ``gaga_fit``: R and Q'y are good to about
cond(X)^2 * eps, where a Householder QR of X gets cond(X) * eps.
"""

import numpy as np
from scipy.linalg import lapack, solve_triangular

from .errors import InvalidInput, RankDeficient, SingularSystem
from .linalg import build_gram, check_factorization, check_rank, spd_solve_with_inverse_diagonal
from .solver import fit_gram
from .types import GagaConfig, GramSystem, RegressionProblem, SignalEstimate


def _ols_permutation(problem: RegressionProblem):
    if problem.p > problem.n:
        raise InvalidInput("need p <= n for the QR variant")
    gs = build_gram(problem)
    try:
        ols, _ = spd_solve_with_inverse_diagonal(
            gs.gram, np.zeros(problem.p), gs.cross, inverse=False)
    except SingularSystem as exc:
        raise RankDeficient(pivot=exc.pivot) from exc
    # Stable sort keeps original order on |ols| ties.
    perm = np.argsort(-np.abs(ols), kind="stable")
    return gs, perm


def _cholesky_qr(gram_system: GramSystem, perm):
    """R (upper triangle only; the lower one is not cleared) and Q'y of the
    column-permuted design from its gram alone: R'R = P'X'XP, Q'y = R^-T P'X'y.
    The kernel's rank rule judges R; a failed pivot is named by its design column."""
    gram = gram_system.gram
    if gram.ndim == 1:  # an orthogonal design
        gram = np.diag(gram)
    # P'GP is symmetric, so its transpose is the same matrix in the Fortran
    # order LAPACK factorizes in place, without another p×p copy.
    permuted = gram[np.ix_(perm, perm)].T
    r, info = lapack.dpotrf(permuted, lower=0, overwrite_a=1)
    try:
        check_factorization(info, perm)
        check_rank(np.diagonal(r) ** 2, gram_system.diagonal[perm], perm)
    except SingularSystem as exc:
        raise RankDeficient(pivot=exc.pivot) from exc
    return r, lapack.dtrtrs(r, gram_system.cross[perm], lower=0, trans=1)[0]


def gaga_qr_fit(problem: RegressionProblem, config: GagaConfig = GagaConfig()) -> SignalEstimate:
    """Fit in the rotated basis and map the estimate back.

    The rotated gram is the identity, so the inner solver runs on the vector
    of ones as its diagonal gram: it never factorizes, and each iteration is
    O(p) work.
    Support is whatever survives the triangular back-substitution: zeros come
    only from the inner truncation, with sub-roundoff leakage snapped back to
    zero.
    """
    gs, perm = _ols_permutation(problem)
    p = problem.p
    r_factor, qty = _cholesky_qr(gs, perm)
    inner = GramSystem(gram=np.ones(p), cross=qty, response_sq_norm=gs.response_sq_norm)
    theta = fit_gram(inner, problem.n, config)
    beta_new = solve_triangular(r_factor, theta.coefficients, lower=False)
    snap = 1e-12 * np.max(np.abs(beta_new), initial=0.0)
    beta_new[np.abs(beta_new) <= snap] = 0.0
    coef = np.empty(p)
    coef[perm] = beta_new
    tuning = np.empty(p)
    tuning[perm] = theta.tuning
    return SignalEstimate(
        coefficients=coef,
        support=coef != 0.0,
        tuning=tuning,
        estimated_variance=theta.estimated_variance,
        trace=theta.trace,
    )
