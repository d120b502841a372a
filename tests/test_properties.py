"""Invariants of the fits, checked with ``hypothesis`` on generated inputs.

- Column scaling: multiplying one column of the design by 10^k, k in
  [-8, 8], leaves the plain fit's support as it is and divides that
  column's coefficient by 10^k. Every rank test of the kernel compares a
  pivot with its own column's X'X diagonal, so one column's units cannot
  make another column look singular, and its freeze bound is
  FREEZE_RATIO times that diagonal, so they cannot move when a coordinate
  leaves the factorization either. On fixed seeds the fit is then
  equivariant to 1e-13.
- Column permutation: the plain fit permutes with the columns.
- Typed failures: on any finite design and response, both fits return
  finite output or raise a ``GagaError``, and so does the kernel on any
  system, NaN and inf entries included; on any square correlation matrix,
  NaN and inf entries included, the design generator returns finite rows or
  raises ``InvalidCorrelation``.
- The QR variant fits the scaled designs too. Its support may move, because
  its ordering of the columns by OLS magnitude depends on their units.

Equivariance is checked to 1e-8 * max(1, max |coef|), the tolerance of the
benchmark's reference check.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaga import (ESTIMATED, FIXED, GagaConfig, GagaError, InvalidCorrelation,
                  RegressionProblem, gaga_fit, gaga_qr_fit, spd_solve_with_inverse_diagonal)
from gaga.datagen import correlated_gaussian_rows, stream_rng

TOL = 1e-8
N, P = 200, 10
BETA = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.5, 0.0, 0.0])

seeds = st.integers(0, 2**32 - 1)
modes = st.sampled_from((FIXED, ESTIMATED))
columns = st.integers(0, P - 1)
exponents = st.floats(-8.0, 8.0)


def ar_problem(seed):
    """200 x 10 AR(0.5) rows with a sparse signal and unit noise."""
    rng = np.random.default_rng(seed)
    lag = np.abs(np.subtract.outer(np.arange(P), np.arange(P)))
    x = rng.standard_normal((N, P)) @ np.linalg.cholesky(0.5**lag).T
    return x, x @ BETA + rng.standard_normal(N)


def assert_same_fit(got, ref, tol=TOL):
    assert np.array_equal(got != 0.0, ref != 0.0)
    assert np.abs(got - ref).max() <= tol * max(1.0, np.abs(ref).max())


def scaled(x, column, exponent):
    factor = 10.0**exponent
    x = x.copy()
    x[:, column] *= factor
    return x, factor


@given(seed=seeds, mode=modes, column=columns, exponent=exponents)
@example(seed=0, mode=FIXED, column=3, exponent=8.0)
@example(seed=0, mode=ESTIMATED, column=0, exponent=-8.0)
def test_plain_fit_is_equivariant_under_column_scaling(seed, mode, column, exponent):
    x, y = ar_problem(seed)
    config = GagaConfig(variance_mode=mode)
    ref = gaga_fit(RegressionProblem(design=x, response=y), config).coefficients
    x, factor = scaled(x, column, exponent)
    got = gaga_fit(RegressionProblem(design=x, response=y), config).coefficients
    got[column] *= factor
    assert_same_fit(got, ref)


@pytest.mark.parametrize("mode", [FIXED, ESTIMATED])
def test_plain_fit_scaling_gap_is_roundoff_on_fixed_seeds(mode):
    # With a freeze bound relative to the largest gram diagonal, a column
    # scaled by 1e8 froze the other coordinates at other iterations and moved
    # the fit by up to 3.3e-12.
    config = GagaConfig(variance_mode=mode)
    for seed in range(20):
        x, y = ar_problem(seed)
        ref = gaga_fit(RegressionProblem(design=x, response=y), config).coefficients
        for column in range(P):
            for exponent in (-8.0, -4.0, 4.0, 8.0):
                xs, factor = scaled(x, column, exponent)
                got = gaga_fit(RegressionProblem(design=xs, response=y), config).coefficients
                got[column] *= factor
                assert_same_fit(got, ref, tol=1e-13)


@given(seed=seeds, mode=modes, perm=st.permutations(range(P)))
def test_plain_fit_is_equivariant_under_column_permutation(seed, mode, perm):
    x, y = ar_problem(seed)
    config = GagaConfig(variance_mode=mode)
    ref = gaga_fit(RegressionProblem(design=x, response=y), config).coefficients
    got = gaga_fit(RegressionProblem(design=x[:, perm], response=y), config).coefficients
    assert_same_fit(got, ref[perm])


@given(seed=seeds, mode=modes, column=columns, exponent=exponents)
@example(seed=0, mode=FIXED, column=3, exponent=8.0)
@example(seed=0, mode=ESTIMATED, column=0, exponent=-8.0)
def test_qr_fit_runs_on_scaled_designs(seed, mode, column, exponent):
    x, y = ar_problem(seed)
    x, _ = scaled(x, column, exponent)
    est = gaga_qr_fit(RegressionProblem(design=x, response=y), GagaConfig(variance_mode=mode))
    assert np.isfinite(est.coefficients).all()


@st.composite
def finite_problems(draw):
    n, p = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    cells = st.floats(-1e6, 1e6) | st.sampled_from([0.0, 1.0, -1e-200, 1e150])
    x = draw(arrays(float, (n, p), elements=cells))
    y = draw(arrays(float, n, elements=cells))
    return RegressionProblem(design=x, response=y)


@given(problem=finite_problems(), mode=modes)
def test_every_finite_input_fits_or_raises_a_typed_error(problem, mode):
    for fit in (gaga_fit, gaga_qr_fit):
        try:
            est = fit(problem, GagaConfig(variance_mode=mode, iterations=20))
        except GagaError:
            continue
        assert np.isfinite(est.coefficients).all() and np.isfinite(est.tuning).all()
        assert np.isfinite(est.estimated_variance)


@st.composite
def kernel_systems(draw):
    """(gram, penalties, rhs) of size <= 6 with any entries: a diagonal gram
    as its vector, a symmetric matrix, or, so that solves succeed often,
    M M' + I."""
    p = draw(st.integers(1, 6))
    cells = st.floats() | st.sampled_from([0.0, 1.0, 1e8, 1e150])
    kind = draw(st.sampled_from(["diagonal", "symmetric", "gram"]))
    if kind == "diagonal":
        gram = draw(arrays(float, p, elements=cells))
    else:
        m = draw(arrays(float, (p, p), elements=cells))
        with np.errstate(over="ignore", invalid="ignore"):
            gram = (np.where(np.tri(p, dtype=bool), m, m.T) if kind == "symmetric"
                    else m @ m.T + np.eye(p))
    # Nonnegative penalties, a few of them above the freeze bound, and the
    # occasional NaN or negative one.
    penalties = st.floats(0.0) | st.sampled_from([1e12, np.nan, -1.0])
    return (gram, draw(arrays(float, p, elements=penalties)),
            draw(arrays(float, p, elements=cells)))


@given(system=kernel_systems(), inverse=st.booleans())
def test_kernel_gives_finite_output_or_a_typed_error(system, inverse):
    try:
        sol, inv_diag = spd_solve_with_inverse_diagonal(*system, inverse=inverse)
    except GagaError:
        return
    assert np.isfinite(sol).all()
    assert np.isfinite(inv_diag).all() if inverse else inv_diag is None


@st.composite
def square_matrices(draw):
    """Square float64 matrices of size <= 6 with any entries; half of them
    symmetric with a unit diagonal, so that positive definite ones are common."""
    k = draw(st.integers(0, 6))
    cells = st.floats() | st.sampled_from([0.0, 0.5, -0.5, 1.0])
    m = draw(arrays(float, (k, k), elements=cells))
    if draw(st.booleans()):
        lower = np.tril(m, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            m = lower + lower.T + np.eye(k)
    return m


# Not positive definite, but the factor's fourth row overflows to inf and
# NaN before its pivot is tested, and LAPACK reports success.
OVERFLOWING_FACTOR = np.array([[1.0, 1.0, 0.0, -1e308],
                               [1.0, 1e308, 0.0, 1e308],
                               [0.0, 0.0, 1e308, 1.0],
                               [-1e308, 1e308, 1.0, 1.0]])


@given(corr=square_matrices(), n=st.integers(0, 5), seed=seeds)
@example(corr=OVERFLOWING_FACTOR, n=3, seed=0)
def test_every_correlation_gives_finite_rows_or_a_typed_error(corr, n, seed):
    try:
        x = correlated_gaussian_rows(corr, n, stream_rng(seed, "design"))
    except InvalidCorrelation:
        return
    assert x.shape == (n, corr.shape[0])
    assert np.isfinite(x).all()
