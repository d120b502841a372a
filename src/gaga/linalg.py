"""Dense SPD kernel: gram construction and a solve that also returns the
diagonal of the inverse.

The inverse diagonal comes from the inverse Cholesky factor W = L^-1
(diag(A^-1)_j = sum_k W_kj^2, since A^-1 = W'W), never from forming the full
inverse. Up to ``BLOCK`` coordinates, LAPACK factorizes one Fortran-order
copy of the system and inverts its factor in place. Larger systems build W
by 2x2 block recursion with BLAS-3 products and never form L (see
``_inverse_factor_blocks``), with the small case at the leaves. A matrix gram
is always factorized. A diagonal system is passed as the length-p vector of
its diagonal, as ``GramSystem`` stores one; it takes the closed form and
never factorizes.
"""

import numpy as np
from scipy.linalg import blas, lapack

from .errors import InvalidInput, SingularSystem
from .types import GramSystem, RegressionProblem

# Systems above BLOCK coordinates build their inverse factor by 2x2 block
# recursion (``_inverse_factor``); its leaves, and every smaller system, call
# LAPACK's Cholesky and triangular inverse directly.
BLOCK = 128


def default_rank_tolerance(gram_diag):
    """Per coordinate: a pivot^2 within 1e-10 of its own X'X diagonal is rank loss."""
    return 1e-10 * gram_diag


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
    exactly diagonal X'X that way. A matrix is always factorized and must be
    symmetric, as X'X is. Without ``inverse`` the second output is None: one
    Cholesky factorization and its two triangular solves give s. With it,
    s = W'W rhs and the inverse diagonal are read off the inverse factor
    W = L^-1, built by ``_inverse_factor`` above ``BLOCK`` coordinates.
    """
    gram = np.asarray(gram, dtype=float)
    penalty_diag = np.asarray(penalty_diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    p = gram.shape[0]
    if penalty_diag.shape != (p,) or rhs.shape != (p,):
        raise InvalidInput("penalty_diag/rhs shape mismatch with gram")
    if np.any(penalty_diag < 0):
        raise InvalidInput("penalty_diag must be nonnegative")

    rank_tolerance = default_rank_tolerance(gram if gram.ndim == 1 else np.diagonal(gram))

    if gram.ndim == 1:
        diag = gram + penalty_diag
        bad = np.flatnonzero(diag <= rank_tolerance)
        if bad.size:
            raise SingularSystem(pivot=int(bad[0]))
        return rhs / diag, 1.0 / diag

    # A symmetric C-order gram is the transpose of its Fortran-order self, so
    # every copy below is taken in the order the gram is stored in.
    if gram.flags.c_contiguous:
        gram = gram.T
    if inverse and p > BLOCK:
        return _solve_by_inverse_factor(gram, penalty_diag, rhs, rank_tolerance)

    # One Fortran-order copy, factorized and inverted in place: the caller's
    # gram is never written.
    a = np.array(gram, order="F")
    a[np.diag_indices(p)] += penalty_diag
    c = _cholesky(a, 0)
    _check_rank(np.diagonal(c), rank_tolerance)

    sol, info = lapack.dpotrs(c, rhs[:, None], lower=1)
    if info != 0:
        raise SingularSystem(pivot=p - 1, message="triangular solve failed")
    if not inverse:
        return sol[:, 0], None
    linv = _invert_factor(c, 0)
    inv_diag = np.einsum("ij,ij->j", linv, linv)
    return sol[:, 0], inv_diag


def _cholesky(a, offset):
    """The lower Cholesky factor of ``a``, in place. ``offset`` is the position
    of a's first coordinate in the kernel's system, where a failed pivot is
    reported."""
    c, info = lapack.dpotrf(a, lower=1, overwrite_a=1)
    if info > 0:
        raise SingularSystem(pivot=offset + int(info) - 1)
    if info < 0:
        raise InvalidInput(f"illegal argument {-info} to dpotrf")
    return c


def _check_rank(pivots, rank_tolerance):
    bad = np.flatnonzero(pivots * pivots <= rank_tolerance)
    if bad.size:
        raise SingularSystem(pivot=int(bad[0]))


def _invert_factor(c, offset):
    linv, info = lapack.dtrtri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularSystem(
            pivot=offset + int(info) - 1, message="triangular inversion failed")
    return linv


def _inverse_factor(a, offset):
    """W = L^-1, lower triangular, for the Fortran-order SPD matrix whose lower
    triangle is ``a``; ``a`` is overwritten with W and returned. ``offset``
    is as in ``_cholesky``."""
    n = a.shape[0]
    if n <= BLOCK:
        return _invert_factor(_cholesky(a, offset), offset)
    h = n // 2
    w11, w21, w22 = _inverse_factor_blocks(*_quadrants(a), offset)
    a[:h, :h], a[h:, :h], a[h:, h:], a[:h, h:] = w11, w21, w22, 0.0
    return a


def _quadrants(a):
    """Fortran-order copies of A11, A21 and A22, split at n // 2, of a matrix
    stored in Fortran order or given as a Fortran-order view."""
    h = a.shape[0] // 2
    return (np.array(a[:h, :h], order="F"), np.array(a[h:, :h], order="F"),
            np.array(a[h:, h:], order="F"))


def _inverse_factor_blocks(a11, a21, a22, offset):
    """The blocks W11, W21, W22 of W = L^-1 for the SPD matrix [[A11, A21'],
    [A21, A22]], given as Fortran-order quadrants (the diagonal ones read
    in their lower triangle), which are overwritten.

    With L11 = W11^-1 and M = L21 = A21 W11', the Schur complement is
    S = A22 - M M' = L22 L22', so W22 = L22^-1 and W21 = -W22 M W11."""
    w11 = _inverse_factor(a11, offset)
    m = blas.dtrmm(1.0, w11, a21, side=1, lower=1, trans_a=1, overwrite_b=1)
    s = blas.dsyrk(-1.0, m, beta=1.0, c=a22, lower=1, overwrite_c=1)
    m = blas.dtrmm(1.0, w11, m, side=1, lower=1, overwrite_b=1)
    w22 = _inverse_factor(s, offset + w11.shape[0])
    w21 = blas.dtrmm(-1.0, w22, m, lower=1, overwrite_b=1)
    return w11, w21, w22


def _solve_by_inverse_factor(gram, penalty_diag, rhs, rank_tolerance):
    """The solution W'W rhs and the column sums of squares of W, block by
    block, so that W is never assembled."""
    a11, a21, a22 = _quadrants(gram)
    h = a11.shape[0]
    a11[np.diag_indices(h)] += penalty_diag[:h]
    a22[np.diag_indices(a22.shape[0])] += penalty_diag[h:]
    w11, w21, w22 = _inverse_factor_blocks(a11, a21, a22, 0)
    _check_rank(1.0 / np.concatenate((np.diagonal(w11), np.diagonal(w22))),
                rank_tolerance)

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
