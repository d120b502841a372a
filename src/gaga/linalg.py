"""Dense SPD kernel: gram construction and a solve that also returns the
diagonal of the inverse.

Only the active block of a system is factorized: a coordinate whose penalty
dwarfs its own gram diagonal is frozen and solved by its diagonal. The block
is gathered once from the gram into the Fortran-order buffers that LAPACK
and BLAS overwrite. Its inverse diagonal comes from the inverse Cholesky
factor W = L^-1 (diag(A^-1)_j = sum_k W_kj^2, since A^-1 = W'W), never from
the full inverse: up to ``BLOCK`` coordinates LAPACK inverts the factor of
the one buffer in place, and a larger block, gathered as three quadrants,
builds W by 2x2 block recursion with BLAS-3 products and never forms L (see
``_inverse_factor_blocks``). A diagonal system is passed as the length-p
vector of its diagonal, as ``GramSystem`` stores one; it takes the closed
form and never factorizes.
"""

import numpy as np
from scipy.linalg import blas, lapack

from .errors import InvalidInput, SingularSystem
from .types import GramSystem, RegressionProblem

# Systems above BLOCK coordinates build their inverse factor by 2x2 block
# recursion (``_inverse_factor``); its leaves, and every smaller system, call
# LAPACK's Cholesky and triangular inverse directly.
BLOCK = 128

# A penalty above FREEZE_RATIO times its own X'X diagonal has diverged: its
# coordinate decouples from the system and leaves the factorization. Leaving
# out its coupling moves the solution and the inverse diagonal by a relative
# amount under 1/FREEZE_RATIO, whatever the column's units: 1e6 moved the
# final coefficients of n <= 150 fits by up to 7e-8, 1e8 by under 1e-9.
FREEZE_RATIO = 1e8


def check_rank(pivot_sq, gram_diag, index):
    """The one rank rule of every Cholesky factor: a squared pivot within 1e-10 of
    its column's X'X diagonal, or a NaN one, raises ``SingularSystem`` at its
    entry of ``index``, the factor's design columns."""
    bad = np.flatnonzero(~(pivot_sq > 1e-10 * gram_diag))
    if bad.size:
        raise SingularSystem(pivot=int(index[bad[0]]))


def check_factorization(info, index):
    """Read ``dpotrf``'s ``info`` for a factor of the design columns ``index``:
    a positive one names the failed pivot. (A negative one means an illegal
    argument, which the scipy wrapper's shape checks rule out.)"""
    if info > 0:
        raise SingularSystem(pivot=int(index[info - 1]))


def build_gram(problem: RegressionProblem) -> GramSystem:
    """Precompute X'X, X'y and y'y.

    When the design has a unit stride, numpy hands x.T @ x to BLAS as one
    symmetric rank-k update, which returns an exactly symmetric gram. Other
    strides (stepped or reversed columns) would take a general product that
    is not exactly symmetric, so such a design is copied first. A product
    that overflows is an input error, not a warning."""
    x, y = problem.design, problem.response
    if x.itemsize not in x.strides or min(x.strides) <= 0:
        x = np.ascontiguousarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        gram, cross, response_sq_norm = x.T @ x, x.T @ y, float(y @ y)
    if not (np.isfinite(gram).all() and np.isfinite(cross).all()
            and np.isfinite(response_sq_norm)):
        raise InvalidInput("X'X, X'y or y'y overflows; rescale the design and response")
    return GramSystem(gram=gram, cross=cross, response_sq_norm=response_sq_norm)


def matvec(mat, vec):
    """mat @ vec by scipy's ``dgemv``. The kernel's factorizations also run
    in scipy's BLAS, so a solver step stays in one BLAS thread pool (numpy
    loads a second one). A C-order matrix is passed as its Fortran-order
    transpose, without a copy. ``vec`` must not be empty."""
    if mat.flags.c_contiguous:
        return blas.dgemv(1.0, mat.T, vec, trans=1)
    return blas.dgemv(1.0, mat, vec)


def is_diagonal(mat) -> bool:
    """True iff every off-diagonal entry is exactly zero."""
    return np.count_nonzero(mat) == np.count_nonzero(np.diagonal(mat))


def spd_solve_with_inverse_diagonal(gram, penalty_diag, rhs, inverse=True):
    """Solve (gram + diag(penalty_diag)) s = rhs and return (s, diag of inverse).

    The gram's shape picks the method. A length-p vector is the diagonal of a
    diagonal system and takes the closed form, which keeps orthogonal-design
    trajectories bit-equal to the scalar recursion; ``GramSystem`` stores an
    exactly diagonal X'X that way. A matrix must be symmetric, as X'X is. A
    coordinate whose penalty b_j is above ``FREEZE_RATIO`` * G_jj is frozen:
    only the block A of the others is factorized, and a frozen j gets
    s_j = (rhs_j - G_jA s_A) / (G_jj + b_j) and inverse diagonal
    1 / (G_jj + b_j). The block's Cholesky factor L and its two triangular
    solves (``dpotrs``) give s_A, and with ``inverse`` the block's inverse
    diagonal comes from W = L^-1, which LAPACK inverts in place. Above
    ``BLOCK`` coordinates with ``inverse``, ``_inverse_factor`` builds W by
    block recursion instead, and s_A = W'W rhs_A. Without ``inverse`` the
    second output is None. A failed pivot is reported at its coordinate in
    the whole system; a NaN penalty or a non-finite output raises.
    """
    gram = np.asarray(gram, dtype=float)
    penalty_diag = np.asarray(penalty_diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    p = gram.shape[0]
    if penalty_diag.shape != (p,) or rhs.shape != (p,):
        raise InvalidInput("penalty_diag/rhs shape mismatch with gram")
    if not (penalty_diag >= 0).all():
        raise InvalidInput("penalty_diag must be nonnegative numbers")

    if gram.ndim == 1:
        diag = gram + penalty_diag
        check_rank(diag, gram, range(p))
        sol, inv_diag = rhs / diag, 1.0 / diag
    else:
        gram_diag = np.diagonal(gram)
        # A coordinate with no positive diagonal stays in the factorization,
        # which reports it.
        with np.errstate(over="ignore"):  # a bound that overflows freezes nothing
            frozen = (penalty_diag > FREEZE_RATIO * gram_diag) & (gram_diag > 0)
        active = np.flatnonzero(~frozen)
        sol, inv_diag = np.zeros(p), np.empty(p)
        if active.size:
            sol[active], inv_diag[active] = _solve_block(
                gram, active, penalty_diag, rhs, inverse)
        if active.size < p:
            dead = np.flatnonzero(frozen)
            inv_diag[dead] = 1.0 / (gram_diag[dead] + penalty_diag[dead])
            # sol is still zero on the frozen coordinates, so G sol there is G_FA sol_A.
            sol[dead] = (rhs[dead] - matvec(gram, sol)[dead]) * inv_diag[dead]
    # O(p) checks for what the rank rule cannot see: a non-finite rhs, a
    # non-finite gram entry outside the factorized block, or an overflow.
    if not (np.isfinite(sol).all() and (not inverse or np.isfinite(inv_diag).all())):
        raise InvalidInput("the solve gave a non-finite value: the gram or rhs has "
                           "a non-finite entry, or the solution overflows")
    return sol, inv_diag if inverse else None


def _solve_block(gram, index, penalty, rhs, inverse):
    """The solution and the inverse diagonal (NaN without ``inverse``) of
    the system restricted to the coordinates ``index``; the other arguments
    are the kernel's."""
    # A symmetric gram is its own transpose, so every gather reads rows of a
    # C-order view, in whichever order the gram is stored.
    rows = gram.T if gram.flags.f_contiguous else gram
    if inverse and index.size > BLOCK:
        return _solve_by_inverse_factor(rows, index, penalty, rhs)
    a = _gather(rows, index, index)
    a[np.diag_indices(index.size)] += penalty[index]
    c = _cholesky(a, index)
    check_rank(np.diagonal(c) ** 2, np.diagonal(rows)[index], index)

    sol = lapack.dpotrs(c, rhs[index, None], lower=1)[0][:, 0]
    if not inverse:
        return sol, np.nan
    linv = lapack.dtrtri(c, lower=1, overwrite_c=1)[0]
    return sol, np.einsum("ij,ij->j", linv, linv)


def _gather(rows, row_index, col_index):
    """S[row_index][:, col_index] as a new Fortran-order array, for the
    symmetric S whose C-order view is ``rows`` and sorted index arrays: the
    transpose of a C-order copy of rows[col_index][:, row_index]. A run of
    consecutive indices (every coordinate, when none is frozen) is copied as
    a slice."""
    r, c = row_index, col_index
    if r[-1] - r[0] < r.size and c[-1] - c[0] < c.size:
        return np.array(rows[c[0]:c[-1] + 1, r[0]:r[-1] + 1], order="C").T
    return rows.take(c, axis=0).take(r, axis=1).T


def _quadrants(rows, index):
    """Fortran-order copies of A11, A21 and A22, split at index.size // 2, of
    A = S[index][:, index] (see ``_gather``)."""
    h = index.size // 2
    i1, i2 = index[:h], index[h:]
    return _gather(rows, i1, i1), _gather(rows, i2, i1), _gather(rows, i2, i2)


def _cholesky(a, index):
    """The lower Cholesky factor of ``a``, whose rows are the design columns
    ``index``, in place."""
    c, info = lapack.dpotrf(a, lower=1, overwrite_a=1)
    check_factorization(info, index)
    return c


def _inverse_factor(a, index):
    """W = L^-1, lower triangular, for the Fortran-order SPD matrix whose lower
    triangle is ``a``; ``a`` is overwritten with W and returned. ``index`` is
    as in ``_cholesky``."""
    n = a.shape[0]
    if n <= BLOCK:
        return lapack.dtrtri(_cholesky(a, index), lower=1, overwrite_c=1)[0]
    h = n // 2
    w11, w21, w22 = _inverse_factor_blocks(*_quadrants(a.T, np.arange(n)), index)
    a[:h, :h], a[h:, :h], a[h:, h:], a[:h, h:] = w11, w21, w22, 0.0
    return a


def _inverse_factor_blocks(a11, a21, a22, index):
    """The blocks W11, W21, W22 of W = L^-1 for the SPD matrix [[A11, A21'],
    [A21, A22]], given as Fortran-order quadrants (the diagonal ones read
    in their lower triangle), which are overwritten.

    With L11 = W11^-1 and M = L21 = A21 W11', the Schur complement is
    S = A22 - M M' = L22 L22', so W22 = L22^-1 and W21 = -W22 M W11."""
    w11 = _inverse_factor(a11, index)
    m = blas.dtrmm(1.0, w11, a21, side=1, lower=1, trans_a=1, overwrite_b=1)
    s = blas.dsyrk(-1.0, m, beta=1.0, c=a22, lower=1, overwrite_c=1)
    m = blas.dtrmm(1.0, w11, m, side=1, lower=1, overwrite_b=1)
    w22 = _inverse_factor(s, index[w11.shape[0]:])
    w21 = blas.dtrmm(-1.0, w22, m, lower=1, overwrite_b=1)
    return w11, w21, w22


def _solve_by_inverse_factor(rows, index, penalty, rhs):
    """The solution W'W rhs and the column sums of squares of W, block by
    block, so that W is never assembled."""
    a11, a21, a22 = _quadrants(rows, index)
    h = a11.shape[0]
    penalty, rhs = penalty[index], rhs[index]
    a11[np.diag_indices(h)] += penalty[:h]
    a22[np.diag_indices(a22.shape[0])] += penalty[h:]
    w11, w21, w22 = _inverse_factor_blocks(a11, a21, a22, index)
    check_rank((1.0 / np.concatenate((np.diagonal(w11), np.diagonal(w22)))) ** 2,
               np.diagonal(rows)[index], index)

    z1 = matvec(w11, rhs[:h])
    z2 = matvec(w21, rhs[:h]) + matvec(w22, rhs[h:])
    sol = np.concatenate((matvec(w11.T, z1) + matvec(w21.T, z2), matvec(w22.T, z2)))
    inv_diag = np.concatenate((
        np.einsum("ij,ij->j", w11, w11) + np.einsum("ij,ij->j", w21, w21),
        np.einsum("ij,ij->j", w22, w22)))
    return sol, inv_diag


def inverse_diagonal(gram, penalty_diag):
    """Diagonal of (gram + diag(penalty_diag))^-1 alone."""
    _, d = spd_solve_with_inverse_diagonal(gram, penalty_diag, np.zeros(gram.shape[0]))
    return d
