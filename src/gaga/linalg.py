"""Dense SPD kernel: gram construction and a solve that also returns the
diagonal of the inverse, and the QR variant's least-squares solve, which
factorizes its gram in place.

Only the active block of a system is factorized: a coordinate whose penalty
dwarfs its own gram diagonal is frozen and solved by its diagonal. Its
inverse diagonal comes from the inverse Cholesky factor W = L^-1
(diag(A^-1)_j = sum_k W_kj^2, since A^-1 = W'W), never from the full
inverse. Up to ``BLOCK`` coordinates the block is gathered once from the
gram into a Fortran-order buffer, whose factor LAPACK inverts in place. A
larger block is written over one triangle of the caller's gram, which keeps
G in the other, and W is built there by 2x2 block recursion with BLAS-3
products, never forming L; the gram is put back as it came (see
``_solve_in_gram``). Every copy of one triangle of a gram onto the other
(in ``build_gram``, the QR permutation and that restore) is one routine,
``mirror_upper``, which reads the source along rows. A fit holds its gram
for its length (``hold_gram``): another fit on the same gram, in another
thread, solves in a copy. A diagonal system is passed as the length-p
vector of its diagonal, as ``GramSystem`` stores one; it takes the closed
form and never factorizes.

LAPACK and BLAS are scipy's compiled f2py modules, ``scipy.linalg._flapack``
and ``_fblas``, the ones ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
re-export. They are loaded from their files without running the
``scipy.linalg`` package, which no fit uses and which costs ≈0.14 s and
≈16.5 MB of resident memory per process. Each is registered under its own name
in ``sys.modules``, so a process that also imports ``scipy.linalg`` holds one
copy, with the same function objects. ``gaga.datagen`` and ``gaga.qr`` take
them from here. The recursion calls the compiled ``dtrmm``, ``dsyrk`` and
``dtrmv`` behind the f2py wrappers through ``ctypes``, at the addresses their
``_cpointer`` capsules hold, since a wrapper takes only whole contiguous
arrays and the recursion works on blocks of the gram.
"""

import ctypes
import dataclasses
import importlib.machinery
import importlib.util
import sys
import threading
from pathlib import Path

import numpy as np
import scipy

from .errors import InvalidInput, SingularSystem
from .types import GramSystem, RegressionProblem


def _load_extension(name):
    """The compiled module ``scipy.linalg.<name>``, loaded without running the
    ``scipy.linalg`` package, or the one ``sys.modules`` already holds."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / (name + suffix)
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(full, str(path))
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(full, path, loader=loader))
            loader.exec_module(module)
            sys.modules[full] = module
            return module
    raise ImportError(f"scipy has no compiled module {folder / name}"
                      f"{importlib.machinery.EXTENSION_SUFFIXES[0]}", name=full)


blas, lapack = _load_extension("_fblas"), _load_extension("_flapack")

_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_CHAR, _ARRAY = ctypes.c_char_p, ctypes.c_void_p
_INT, _REAL = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)


def _by_pointer(routine, *argtypes):
    """The compiled BLAS routine behind the f2py wrapper ``routine``, called
    with Fortran's arguments, all by reference: unlike the wrapper, it works
    on a block of a larger array through its leading dimension."""
    return ctypes.CFUNCTYPE(None, *argtypes)(_capsule_pointer(routine._cpointer, None))


# In Fortran's order: dtrmm(side, uplo, transa, diag, m, n, alpha, a, lda, b, ldb),
# dsyrk(uplo, trans, n, k, alpha, a, lda, beta, c, ldc) and
# dtrmv(uplo, trans, diag, n, a, lda, x, incx).
_dtrmm = _by_pointer(blas.dtrmm, _CHAR, _CHAR, _CHAR, _CHAR, _INT, _INT, _REAL,
                     _ARRAY, _INT, _ARRAY, _INT)
_dsyrk = _by_pointer(blas.dsyrk, _CHAR, _CHAR, _INT, _INT, _REAL, _ARRAY, _INT, _REAL,
                     _ARRAY, _INT)
_dtrmv = _by_pointer(blas.dtrmv, _CHAR, _CHAR, _CHAR, _INT, _ARRAY, _INT, _ARRAY, _INT)


def _int(value):
    """A Fortran integer argument."""
    return ctypes.byref(ctypes.c_int(value))


def _real(value):
    """A Fortran double precision argument."""
    return ctypes.byref(ctypes.c_double(value))


# Systems above BLOCK coordinates build their inverse factor by 2x2 block
# recursion in the gram (``_inverse_factor``); its leaves, and every smaller
# system, call LAPACK's Cholesky and triangular inverse directly.
BLOCK = 128

# Every triangle copy into, out of or within a gram goes in strips of STRIP
# rows (``_copy_strip``), and a strip's diagonal square goes through the mask
# _UPPER. Where a square is its own source (``mirror_upper``), numpy copies
# it first. That copy and the compaction's gather of a strip are the only
# temporaries: at 64 rows, build_gram's peak at p = 300 read 1.047 p x p
# against 1.013, and a plain fit's at p = 500 read 1.23 against 1.13.
STRIP = 32
_UPPER = np.tri(STRIP, dtype=bool).T

# A penalty above FREEZE_RATIO times its own X'X diagonal has diverged: its
# coordinate decouples from the system and leaves the factorization. Leaving
# out its coupling moves the solution and the inverse diagonal by a relative
# amount under 1/FREEZE_RATIO, whatever the column's units: 1e6 moved the
# final coefficients of n <= 150 fits by up to 7e-8, 1e8 by under 1e-9.
FREEZE_RATIO = 1e8

# The address of each gram that a fit is solving in, with its diagonal as
# that fit found it (``hold_gram``).
_IN_USE, _IN_USE_LOCK = {}, threading.Lock()


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

    X'X is one symmetric rank-k update, scipy's ``dsyrk``, into the lower
    triangle of a Fortran-order array. The gram is that array's C-order
    transpose, whose other triangle ``mirror_upper`` fills, so it is exactly
    symmetric, and X'y is ``matvec``'s ``dgemv``: both are built in the
    kernel's BLAS. A C- or Fortran-contiguous design is read in place; any
    other (a block or a stride of columns, reversed columns, a stride of
    rows) is copied to C order first, since ``dsyrk`` reads only contiguous
    arrays. A product that overflows is an input error, not a warning."""
    x, y = problem.design, problem.response
    if x.flags.f_contiguous:
        gram = blas.dsyrk(1.0, x, trans=1, lower=1).T
    else:
        x = np.ascontiguousarray(x)
        gram = blas.dsyrk(1.0, x.T, lower=1).T
    mirror_upper(gram)
    cross = matvec(x.T, y)
    with np.errstate(over="ignore"):
        response_sq_norm = float(y @ y)
    # NaN and +-inf carry through min and max, which need no p x p temporary.
    if not (np.isfinite(gram.min()) and np.isfinite(gram.max())
            and np.isfinite(cross).all() and np.isfinite(response_sq_norm)):
        raise InvalidInput("X'X, X'y or y'y overflows; rescale the design and response")
    return GramSystem(gram=gram, cross=cross, response_sq_norm=response_sq_norm)


def mirror_upper(rows):
    """Copy the upper triangle of the square view ``rows`` onto its lower
    one, in place, a strip of ``STRIP`` rows at a time: a strip's source
    rows are read along their length and its target is written down
    columns. On ``rows[::-1, ::-1]`` it copies the lower triangle onto the
    upper one, still reading along rows."""
    for s in range(0, rows.shape[0], STRIP):
        _copy_strip(rows[s:, s:s + STRIP].T, rows[s:s + STRIP, s:])


def hold_gram(gram_system: GramSystem):
    """The gram system with the same X'X in which this thread's fit may
    solve, and the key that ``release_gram`` takes when the fit ends: the
    system itself, which the fit then holds, or, while another fit holds
    its gram, one with a private copy, which nothing needs to release.

    A kernel call above ``BLOCK`` writes over the upper triangle and the
    diagonal of the gram's C-order view (``_solve_in_gram``), and a fit
    reads the gram between its calls, so no two fits may share one buffer.
    No call writes the strict lower triangle, so the copy is that triangle
    mirrored, with the diagonal that the holding fit saved. A gram that no
    call writes, a diagonal (vector) one or one of at most ``BLOCK``
    coordinates, is returned as it is, with the key None."""
    gram = gram_system.gram
    if gram.ndim == 1 or len(gram) <= BLOCK:
        return gram_system, None
    rows = gram.T if gram.flags.f_contiguous else gram
    key = rows.ctypes.data
    with _IN_USE_LOCK:
        saved = _IN_USE.get(key)
        if saved is None:
            _IN_USE[key] = np.diagonal(rows).copy()
            return gram_system, key
    gram = np.array(gram)  # in the same order, so that matvec reads it alike
    rows = gram.T if gram.flags.f_contiguous else gram
    mirror_upper(rows[::-1, ::-1])
    np.fill_diagonal(rows, saved)
    return dataclasses.replace(gram_system, gram=gram), None


def release_gram(key):
    """End the hold that ``hold_gram`` gave ``key``."""
    if key is not None:
        with _IN_USE_LOCK:
            del _IN_USE[key]


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


def spd_solve_with_inverse_diagonal(gram, penalty_diag, rhs):
    """Solve (gram + diag(penalty_diag)) s = rhs and return (s, diag of inverse).

    The gram's shape picks the method. A length-p vector is the diagonal of a
    diagonal system and takes the closed form, which keeps orthogonal-design
    trajectories bit-equal to the scalar recursion; ``GramSystem`` stores an
    exactly diagonal X'X that way. A matrix must be symmetric, as X'X is. A
    coordinate whose penalty b_j is above ``FREEZE_RATIO`` * G_jj is frozen:
    only the block A of the others is factorized, and a frozen j gets
    s_j = (rhs_j - G_jA s_A) / (G_jj + b_j) and inverse diagonal
    1 / (G_jj + b_j). The block's Cholesky factor L and its two triangular
    solves (``dpotrs``) give s_A, and the block's inverse diagonal comes from
    W = L^-1, which LAPACK inverts in place. Above ``BLOCK`` coordinates
    ``_inverse_factor`` builds W by block recursion instead, in the caller's
    gram, and s_A = W'W rhs_A. The gram leaves the call bit for bit as it
    came, also when the call raises; a read-only or non-contiguous one is
    copied first. While a call runs, the gram's upper triangle (of its
    C-order view) holds the block, so no other thread may use the gram
    meanwhile; ``fit_gram`` sees to that for fits that share a
    ``GramSystem`` (``hold_gram``). A failed pivot is reported at its
    coordinate in the whole system; a NaN penalty or a non-finite output
    raises.
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
        with np.errstate(over="ignore"):  # an overflow raises in _require_finite
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
                gram, active, penalty_diag, rhs)
        if active.size < p:
            dead = np.flatnonzero(frozen)
            inv_diag[dead] = 1.0 / (gram_diag[dead] + penalty_diag[dead])
            # sol is still zero on the frozen coordinates, so G sol there is G_FA sol_A.
            sol[dead] = (rhs[dead] - matvec(gram, sol)[dead]) * inv_diag[dead]
    _require_finite(sol, inv_diag)
    return sol, inv_diag


def spd_solve_in_place(gram, rhs):
    """Solve gram s = rhs, unpenalized and without the inverse diagonal, in
    the gram's own buffer; return s and a copy of the gram's diagonal.

    A length-p gram is a diagonal system and takes the kernel's closed form.
    A matrix must be exactly symmetric. ``dpotrf`` overwrites it in place when
    it is C- or Fortran-contiguous, and ``clean=0`` keeps G's off-diagonal
    entries in the strict lower triangle of its C-order view. The rank rule
    and the reading of a failed pivot are the kernel's.
    """
    if gram.ndim == 1:
        return spd_solve_with_inverse_diagonal(gram, np.zeros(gram.size), rhs)[0], gram
    # A symmetric gram's Fortran-order view is the matrix itself.
    fortran = gram if gram.flags.f_contiguous else gram.T
    diagonal = np.diagonal(fortran).copy()
    index = np.arange(diagonal.size)
    c, info = lapack.dpotrf(fortran, lower=1, overwrite_a=1, clean=0)
    check_factorization(info, index)
    check_rank(np.diagonal(c) ** 2, diagonal, index)
    sol = lapack.dpotrs(c, np.asarray(rhs, dtype=float)[:, None], lower=1)[0][:, 0]
    _require_finite(sol)
    return sol, diagonal


def _require_finite(*outputs):
    """O(p) checks for what the rank rule cannot see: a non-finite rhs, a
    non-finite gram entry outside the factorized block, or an overflow."""
    if not all(np.isfinite(a).all() for a in outputs):
        raise InvalidInput("the solve gave a non-finite value: the gram or rhs has "
                           "a non-finite entry, or the solution overflows")


def _solve_block(gram, index, penalty, rhs):
    """The solution and the inverse diagonal of the system restricted to the
    coordinates ``index``; the other arguments are the kernel's."""
    # A symmetric gram is its own transpose, so every gather reads rows of a
    # C-order view, in whichever order the gram is stored.
    rows = gram.T if gram.flags.f_contiguous else gram
    if index.size > BLOCK:
        return _solve_in_gram(rows, index, penalty, rhs)
    a = _gather(rows, index)
    a[np.diag_indices(index.size)] += penalty[index]
    c = _cholesky(a, index)
    check_rank(np.diagonal(c) ** 2, np.diagonal(rows)[index], index)

    sol = lapack.dpotrs(c, rhs[index, None], lower=1)[0][:, 0]
    linv = lapack.dtrtri(c, lower=1, overwrite_c=1)[0]
    return sol, np.einsum("ij,ij->j", linv, linv)


def _gather(rows, index):
    """S[index][:, index] as a new Fortran-order array, for the symmetric S
    whose C-order view is ``rows`` and a sorted index array: the transpose
    of a C-order copy of rows[index][:, index]. A run of consecutive indices
    (every coordinate, when none is frozen) is copied as a slice."""
    first, last = index[0], index[-1] + 1
    if last - first == index.size:
        return np.array(rows[first:last, first:last], order="C").T
    return rows.take(index, axis=0).take(index, axis=1).T


def _cholesky(a, index):
    """The lower Cholesky factor of ``a``, whose rows are the design columns
    ``index``, in place."""
    c, info = lapack.dpotrf(a, lower=1, overwrite_a=1)
    check_factorization(info, index)
    return c


def _solve_in_gram(rows, index, penalty, rhs):
    """The solution W'W rhs_A and the inverse diagonal of the block A of
    ``index``, with W = L^-1 built in the gram itself (see
    ``_inverse_factor``); the arguments are ``_solve_block``'s.

    G keeps the strict lower triangle of the C-order ``rows``. A, with
    G_jj + b_j on its diagonal, is written over the upper triangle of the
    leading |A| x |A| block, which is the lower triangle of the Fortran view
    that BLAS reads through its leading dimension. When coordinates are
    frozen, A is compacted there in place, strip by strip: its entry (j, i),
    j <= i, reads G's at (a_j, a_i), which lies at or after it in C order. The
    ``finally`` puts G back over that triangle by ``mirror_upper`` on the
    block reversed in both axes, whose upper triangle is the block's lower
    one, so it still reads along rows; then it puts back the saved diagonal.
    The gram leaves bit for bit as it came, also when a pivot fails. A
    read-only or non-contiguous gram is copied first."""
    if not (rows.flags.writeable and rows.flags.c_contiguous):
        rows = np.array(rows)
    m = index.size
    diagonal, sol = np.diagonal(rows).copy(), rhs[index]
    leading = rows[:m, :m]
    try:
        if index[-1] >= m:
            for s in range(0, m, STRIP):
                _copy_strip(leading[s:s + STRIP, s:],
                            rows.take(index[s:s + STRIP], axis=0).take(index[s:], axis=1))
        np.fill_diagonal(leading, diagonal[index] + penalty[index])
        inv_diag = np.zeros(m)
        _inverse_factor(rows, 0, m, index, inv_diag)
        check_rank((1.0 / np.diagonal(leading)) ** 2, diagonal[index], index)
        for trans in (b"N", b"T"):  # sol <- W sol, then W' sol
            _dtrmv(b"L", trans, b"N", _int(m), rows.ctypes.data, _int(rows.shape[0]),
                   sol.ctypes.data, _int(1))
    finally:
        mirror_upper(leading[::-1, ::-1])
        np.fill_diagonal(rows, diagonal)
    return sol, inv_diag


def _copy_strip(target, source):
    """Copy the entries of ``source`` on and right of its diagonal onto
    ``target``, both of at most ``STRIP`` rows: the diagonal square through
    the strip's mask, the rest as one rectangle."""
    k = target.shape[0]
    np.copyto(target[:, :k], source[:, :k], where=_UPPER[:k, :k])
    target[:, k:] = source[:, k:]


def _inverse_factor(rows, o, n, index, inv_diag):
    """Overwrite the lower triangle of the Fortran view's diagonal block at
    offset ``o`` and order ``n``, an SPD matrix, with W = L^-1, and add each
    column's sum of squares of W to ``inv_diag[o:o + n]``. ``index`` names
    the design columns of the leading block, as in ``_cholesky``.

    Up to ``BLOCK`` the block is copied out and LAPACK factorizes and inverts
    it. Above, with the split h = n // 2, L11 = W11^-1 and M = L21 = A21 W11',
    the Schur complement is S = A22 - M M' = L22 L22', so W22 = L22^-1 and
    W21 = -W22 M W11: BLAS-3 products on the blocks in place."""
    if n <= BLOCK:
        block = rows[o:o + n, o:o + n]
        w = lapack.dtrtri(_cholesky(block.copy().T, index[o:]), lower=1, overwrite_c=1)[0]
        inv_diag[o:o + n] += np.einsum("ij,ij->j", w, w)
        for s in range(0, n, STRIP):
            _copy_strip(block[s:s + STRIP, s:], w.T[s:s + STRIP, s:])
        return
    p, h = rows.shape[0], n // 2
    # The addresses of the Fortran view's entries (o, o), (o + h, o) and (o + h, o + h).
    top = rows.ctypes.data + rows.itemsize * o * (p + 1)
    below, corner = top + rows.itemsize * h, top + rows.itemsize * h * (p + 1)
    ld, rest, half = _int(p), _int(n - h), _int(h)
    _inverse_factor(rows, o, h, index, inv_diag)
    _dtrmm(b"R", b"L", b"T", b"N", rest, half, _real(1.0), top, ld, below, ld)  # M
    _dsyrk(b"L", b"N", rest, half, _real(-1.0), below, ld, _real(1.0), corner, ld)  # S
    _dtrmm(b"R", b"L", b"N", b"N", rest, half, _real(1.0), top, ld, below, ld)  # M W11
    _inverse_factor(rows, o + h, n - h, index, inv_diag)
    _dtrmm(b"L", b"L", b"N", b"N", rest, half, _real(-1.0), corner, ld, below, ld)  # W21
    w21 = rows[o:o + h, o + h:o + n]  # W21', in the C-order view
    inv_diag[o:o + h] += np.einsum("ij,ij->i", w21, w21)


def inverse_diagonal(gram, penalty_diag):
    """Diagonal of (gram + diag(penalty_diag))^-1 alone."""
    _, d = spd_solve_with_inverse_diagonal(gram, penalty_diag, np.zeros(gram.shape[0]))
    return d
