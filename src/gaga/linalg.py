"""Dense SPD kernel: gram construction and a factorize-once solve that also
returns the diagonal of the inverse.

The inverse diagonal comes from the triangular Cholesky factor
(diag(A^-1)_j = sum_k (L^-1)_{kj}^2), never from forming the full inverse.
A matrix gram is always factorized. A diagonal system is passed as the
length-p vector of its diagonal, as ``GramSystem`` stores one; it takes the
closed form and never factorizes.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import InvalidInput, SingularSystem
from .types import GramSystem, RegressionProblem


def default_rank_tolerance(gram_diag):
    return 1e-10 * float(np.max(gram_diag))


def build_gram(problem: RegressionProblem) -> GramSystem:
    """Precompute X'X, X'y and y'y.

    When the design has a unit stride, numpy hands x.T @ x to BLAS as one
    symmetric rank-k update, which returns an exactly symmetric gram. Other
    strides (stepped or reversed columns) would take a general product that
    is not exactly symmetric, so such a design is copied first."""
    x, y = problem.design, problem.response
    if x.itemsize not in x.strides or min(x.strides) <= 0:
        x = np.ascontiguousarray(x)
    return GramSystem(gram=x.T @ x, cross=x.T @ y, response_sq_norm=float(y @ y))


def is_diagonal(mat) -> bool:
    """True iff every off-diagonal entry is exactly zero."""
    return np.count_nonzero(mat) == np.count_nonzero(np.diagonal(mat))


def spd_solve_with_inverse_diagonal(gram, penalty_diag, rhs, inverse=True):
    """Solve (gram + diag(penalty_diag)) s = rhs and return (s, diag of inverse).

    The gram's shape picks the method. A length-p vector is the diagonal of a
    diagonal system and takes the closed form, which keeps orthogonal-design
    trajectories bit-equal to the scalar recursion; ``GramSystem`` stores an
    exactly diagonal X'X that way. A matrix is always factorized, and one
    Cholesky factorization serves both outputs. Without ``inverse`` the second
    output is None and L^-1 is never formed.
    """
    gram = np.asarray(gram, dtype=float)
    penalty_diag = np.asarray(penalty_diag, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    p = gram.shape[0]
    if penalty_diag.shape != (p,) or rhs.shape != (p,):
        raise InvalidInput("penalty_diag/rhs shape mismatch with gram")
    if np.any(penalty_diag < 0):
        raise InvalidInput("penalty_diag must be nonnegative")

    gram_diag = gram if gram.ndim == 1 else np.diagonal(gram)
    rank_tolerance = default_rank_tolerance(np.abs(gram_diag) + 1e-300)

    if gram.ndim == 1:
        diag = gram + penalty_diag
        bad = np.flatnonzero(diag <= rank_tolerance)
        if bad.size:
            raise SingularSystem(pivot=int(bad[0]))
        return rhs / diag, 1.0 / diag

    # One Fortran-order copy, factorized and inverted in place: the caller's
    # gram is never written.
    a = np.array(gram, order="F")
    a[np.diag_indices(p)] += penalty_diag
    c, info = lapack.dpotrf(a, lower=1, overwrite_a=1)
    if info > 0:
        raise SingularSystem(pivot=int(info) - 1)
    if info < 0:
        raise InvalidInput(f"illegal argument {-info} to dpotrf")
    pivots = np.diagonal(c)
    bad = np.flatnonzero(pivots * pivots <= rank_tolerance)
    if bad.size:
        raise SingularSystem(pivot=int(bad[0]))

    sol, info = lapack.dpotrs(c, rhs[:, None], lower=1)
    if info != 0:
        raise SingularSystem(pivot=p - 1, message="triangular solve failed")
    if not inverse:
        return sol[:, 0], None
    linv, info = lapack.dtrtri(c, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularSystem(pivot=int(info) - 1, message="triangular inversion failed")
    inv_diag = np.einsum("ij,ij->j", linv, linv)
    return sol[:, 0], inv_diag


def inverse_diagonal(gram, penalty_diag):
    """Diagonal of (gram + diag(penalty_diag))^-1 alone."""
    _, d = spd_solve_with_inverse_diagonal(gram, penalty_diag, np.zeros(gram.shape[0]))
    return d
