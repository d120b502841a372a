"""QR-accelerated variant: reorder columns by least-squares magnitude, rotate
into an orthogonal basis, run the solver there (diagonal systems only), and
back-substitute through the triangular factor.

The fit path never forms Q. It takes R as the upper Cholesky factor of the
permuted gram P'X'XP and Q'y as R^-T P'X'y (CholeskyQR), so after the gram is
built the design is not touched again. The price is the accuracy of the
normal equations, as in ``gaga_fit``: R and Q'y are good to about
cond(X)^2 * eps, where a Householder QR of X gets cond(X) * eps.

A fit holds one p×p array, the gram that ``build_gram`` returns to it, and
works in that buffer. The least-squares solve factorizes G in one triangle
and keeps G's off-diagonal entries in the other, with a copy of the
diagonal. Each row of G is then gathered from these into the overwritten
triangle, at its permuted place, and copied onto the other one, and LAPACK
factorizes P'GP into R in the same buffer.
"""

import dataclasses

import numpy as np

from .errors import InvalidInput, RankDeficient, SingularSystem
from .linalg import (build_gram, check_factorization, check_rank, lapack, mirror_upper,
                     spd_solve_in_place)
from .solver import fit_gram
from .types import GagaConfig, GramSystem, RegressionProblem, SignalEstimate


def _ols_permutation(problem: RegressionProblem):
    """The gram system, the diagonal of its gram, and the column order by
    decreasing |OLS|. A p×p gram is left holding its Cholesky factor in one
    triangle and G in the other (see ``spd_solve_in_place``)."""
    if problem.p > problem.n:
        raise InvalidInput("need p <= n for the QR variant")
    gs = build_gram(problem)
    try:
        ols, diagonal = spd_solve_in_place(gs.gram, gs.cross)
    except SingularSystem as exc:
        raise RankDeficient(pivot=exc.pivot) from exc
    # Stable sort keeps original order on |ols| ties.
    perm = np.argsort(-np.abs(ols), kind="stable")
    return gs, diagonal, perm


def _permute_in_place(rows, diagonal, perm):
    """P'GP in the square ``rows``, from G in its strict lower triangle and
    ``diagonal``. Each row of G is gathered, in source order, into the upper
    triangle of its permuted row; the reads all lie in the strict lower
    triangle, so none is overwritten first. ``mirror_upper``, the kernel's
    one triangle copy, then copies the upper triangle onto the lower one."""
    p = rows.shape[0]
    where = np.empty_like(perm)
    where[perm] = np.arange(p)
    for k, j in enumerate(where.tolist()):
        row = np.concatenate((rows[k, :k], diagonal[k:k + 1], rows[k + 1:, k]))
        rows[j, j:] = row[perm[j:]]
    mirror_upper(rows)


def _cholesky_qr(gram_system: GramSystem, diagonal, perm):
    """R (upper triangle only; ``dpotrf`` clears the lower one) and Q'y of the
    column-permuted design from its gram alone: R'R = P'X'XP,
    Q'y = R^-T P'X'y. A p×p gram, left by ``_ols_permutation`` with its
    ``diagonal``, becomes R in its own buffer. The kernel's rank rule judges
    R; a failed pivot is named by its design column."""
    gram = gram_system.gram
    if gram.ndim == 1:  # an orthogonal design
        rows = np.diag(gram[perm])
    else:
        rows = gram.T if gram.flags.f_contiguous else gram
        _permute_in_place(rows, diagonal, perm)
    # P'GP is symmetric, so its transpose is the same matrix in the Fortran
    # order LAPACK factorizes in place.
    r, info = lapack.dpotrf(rows.T, lower=0, overwrite_a=1)
    try:
        check_factorization(info, perm)
        check_rank(np.diagonal(r) ** 2, diagonal[perm], perm)
    except SingularSystem as exc:
        raise RankDeficient(pivot=exc.pivot) from exc
    return r, lapack.dtrtrs(r, gram_system.cross[perm], lower=0, trans=1)[0]


def solve_triangular(r, b):
    """R^-1 b for an upper triangular R: the one ``dtrtrs`` call that
    ``scipy.linalg.solve_triangular`` makes for the fit's Fortran-order R,
    without its checks. The fit's R has passed the rank rule, and its b is
    the inner fit's finite coefficients."""
    return lapack.dtrtrs(r, b, lower=0)[0]


def gaga_qr_fit(problem: RegressionProblem, config: GagaConfig = GagaConfig()) -> SignalEstimate:
    """Fit in the rotated basis and map the estimate back.

    The rotated gram is the identity, so the inner solver runs on the vector
    of ones as its diagonal gram: it never factorizes, and each iteration is
    O(p) work.
    Support is whatever survives the triangular back-substitution: zeros come
    only from the inner truncation, with sub-roundoff leakage snapped back to
    zero.
    Tuning weights and traced states are in design-column order, but a traced
    beta and inverse diagonal are values of the rotated basis.
    """
    gs, diagonal, perm = _ols_permutation(problem)
    r_factor, qty = _cholesky_qr(gs, diagonal, perm)
    inner = GramSystem(gram=np.ones(problem.p), cross=qty, response_sq_norm=gs.response_sq_norm)
    theta = fit_gram(inner, problem.n, config)
    beta_new = solve_triangular(r_factor, theta.coefficients)
    snap = 1e-12 * np.max(np.abs(beta_new), initial=0.0)
    beta_new[np.abs(beta_new) <= snap] = 0.0
    # The inverse permutation, by scatter: np.argsort costs ≈0.25 MB of peak RSS.
    design = np.empty_like(perm)
    design[perm] = np.arange(perm.size)
    trace = theta.trace and tuple(dataclasses.replace(
        s, tuning=s.tuning[design], beta=s.beta[design], inv_diag=s.inv_diag[design])
        for s in theta.trace)
    return SignalEstimate(coefficients=beta_new[design], tuning=theta.tuning[design],
                          estimated_variance=theta.estimated_variance, trace=trace)
