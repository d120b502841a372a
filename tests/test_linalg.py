import itertools
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import blas, lapack

from gaga import (
    DimensionError,
    GagaConfig,
    GramSystem,
    InvalidInput,
    RegressionProblem,
    SingularSystem,
    build_gram,
    gaga_fit,
)
import gaga.datagen
import gaga.linalg
import gaga.qr
from gaga.datagen import gen_model1
from gaga.linalg import (
    BLOCK,
    FREEZE_RATIO,
    inverse_diagonal,
    is_diagonal,
    spd_solve_in_place,
    spd_solve_with_inverse_diagonal,
)


def random_spd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + p * np.eye(p)


class TestBuildGram:
    def test_identity_design(self):
        pr = RegressionProblem(design=np.eye(2), response=np.array([1.0, 2.0]))
        gs = build_gram(pr)
        assert np.array_equal(gs.gram, [1.0, 1.0])  # a diagonal gram is its diagonal
        assert np.array_equal(gs.cross, [1.0, 2.0])
        assert gs.response_sq_norm == 5.0

    def test_single_column(self):
        pr = RegressionProblem(design=np.ones((2, 1)), response=np.array([1.0, 1.0]))
        gs = build_gram(pr)
        assert np.array_equal(gs.gram, [2.0])  # a 1x1 gram is diagonal
        assert gs.cross[0] == 2.0
        assert gs.response_sq_norm == 2.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_model1_gram_symmetric_psd(self, seed):
        gs = build_gram(gen_model1(seed).problem)
        assert np.array_equal(gs.gram, gs.gram.T)
        # eigenvalue oracle for positive semidefiniteness
        assert np.linalg.eigvalsh(gs.gram).min() >= -1e-10 * np.abs(gs.gram).max()

    @pytest.mark.parametrize("layout", ["C", "F", "column_block", "column_step",
                                        "row_stride", "reversed"])
    def test_gram_exactly_symmetric(self, layout):
        # One triangle of X'X comes from dsyrk and is copied onto the other,
        # a strip of STRIP rows at a time, so p = 333 has a partial strip,
        # and p = 512 has rows of 4 KB. The gram and X'y match numpy's
        # products of the C-order design to rounding; whether they match bit
        # for bit depends on the two libraries' OpenBLAS builds, so
        # tools/equiv.py checks that of the fits, at one thread.
        rng = np.random.default_rng(7)
        for n, p in [(3, 2), (50, 1), (7, 5), (40, 17), (300, 64), (129, 130), (600, 333),
                     (200, 512)]:
            base = rng.standard_normal((2 * n, 2 * p))
            x = {"C": base[:n, :p].copy(), "F": np.asfortranarray(base[:n, :p]),
                 "column_block": base[:n, 1:p + 1], "column_step": base[:n, 1::2],
                 "row_stride": base[::2, :p], "reversed": base[:n, p - 1::-1]}[layout]
            y = rng.standard_normal(n)
            gs = build_gram(RegressionProblem(design=x, response=y))
            g = np.diag(gs.gram) if gs.gram.ndim == 1 else gs.gram
            assert np.array_equal(g, g.T)
            xc = np.ascontiguousarray(x)
            for got, want in [(g, xc.T @ xc), (gs.cross, xc.T @ y)]:
                assert np.abs(got - want).max() <= 1e-14 * n * np.abs(want).max()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gram_and_cross_take_scipy_blas(self, order, monkeypatch):
        # The kernel's products all run in scipy's BLAS, so the gram's one
        # symmetric rank-k update and X'y must too: numpy loads a second
        # OpenBLAS, with its own buffers and threads. The update fills the
        # lower triangle (of the Fortran-order result), the one that sums
        # as numpy's x.T @ x does; the upper one differs in the last bits.
        calls = []

        class CountingBlas:
            def __getattr__(self, name):
                def call(*args, **kwargs):
                    calls.append((name, kwargs.get("lower")))
                    return getattr(blas, name)(*args, **kwargs)
                return call

        monkeypatch.setattr(gaga.linalg, "blas", CountingBlas())
        x = np.array(np.random.default_rng(3).standard_normal((40, 17)), order=order)
        build_gram(RegressionProblem(design=x, response=np.ones(40)))
        assert calls == [("dsyrk", 1), ("dgemv", None)]

    def test_diagonal_gram_stored_as_vector(self):
        v = np.array([2.0, 0.5, 3.0])
        gs = GramSystem(gram=np.diag(v), cross=np.zeros(3), response_sq_norm=0.0)
        assert gs.gram.shape == (3,) and np.array_equal(gs.gram, v)
        assert gs.p == 3 and np.array_equal(gs.diagonal, v)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            RegressionProblem(design=np.array([[np.nan]]), response=np.array([1.0]))

    def test_noise_variance_is_not_a_field(self):
        # Fixed mode fits with unit variance, so a known variance had no effect.
        with pytest.raises(TypeError):
            RegressionProblem(design=np.eye(2), response=np.ones(2), noise_variance=1.0)

    def test_gram_system_converts_sequences(self):
        gs = GramSystem(gram=[[2.0, 1.0], [1.0, 3.0]], cross=[1, 2], response_sq_norm=5.0)
        assert gs.gram.dtype == float and gs.gram.shape == (2, 2)
        assert gs.cross.dtype == float and gs.p == 2

    @pytest.mark.parametrize("gram, cross", [
        (np.ones((2, 3)), np.zeros(2)),  # not square
        (np.ones((2, 2, 2)), np.zeros(2)),
        (np.float64(2.0), np.zeros(1)),
        (np.eye(3), np.zeros(2)),  # cross of the wrong length
        (np.ones(3), np.zeros((3, 1))),
    ])
    def test_gram_system_rejects_malformed_shapes(self, gram, cross):
        with pytest.raises(DimensionError):
            GramSystem(gram=gram, cross=cross, response_sq_norm=1.0)


class TestSpdSolve:
    def test_identity(self):
        sol, d = spd_solve_with_inverse_diagonal(np.eye(2), np.zeros(2), np.array([3.0, 4.0]))
        assert np.array_equal(sol, [3.0, 4.0])
        assert np.array_equal(d, [1.0, 1.0])

    def test_diagonal_penalty(self):
        sol, d = spd_solve_with_inverse_diagonal(
            np.ones(2), np.array([1.0, 3.0]), np.array([4.0, 8.0])
        )
        assert np.array_equal(sol, [2.0, 2.0])
        assert np.array_equal(d, [0.5, 0.25])

    def test_vector_gram_is_diagonal_system(self):
        sigma = np.array([2.0, 5.0, 0.5])
        b = np.array([1.0, 0.0, 3.0])
        rhs = np.array([1.0, -2.0, 7.0])
        sol, d = spd_solve_with_inverse_diagonal(sigma, b, rhs)
        assert np.array_equal(sol, rhs / (sigma + b))
        assert np.array_equal(d, 1.0 / (sigma + b))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_explicit_inverse(self, seed):
        rng = np.random.default_rng(seed)
        g = random_spd(rng, 5)
        b = rng.uniform(0, 2, 5)
        rhs = rng.standard_normal(5)
        sol, d = spd_solve_with_inverse_diagonal(g, b, rhs)
        full_inv = np.linalg.inv(g + np.diag(b))
        assert np.allclose(sol, full_inv @ rhs, atol=1e-10, rtol=1e-10)
        assert np.allclose(d, np.diagonal(full_inv), atol=1e-10, rtol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_bound(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_spd(rng, 20)
        b = rng.uniform(0, 1, 20)
        rhs = rng.standard_normal(20)
        sol, d = spd_solve_with_inverse_diagonal(g, b, rhs)
        resid = np.linalg.norm((g + np.diag(b)) @ sol - rhs)
        assert resid <= 1e-8 * np.linalg.norm(rhs)
        assert np.all(d > 0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_place_factorization_matches_out_of_place(self, order):
        # Up to BLOCK coordinates the kernel factorizes and inverts one
        # Fortran-order copy in place.
        # Its output equals the out-of-place LAPACK sequence on
        # gram + diag(penalty) bit for bit, and the caller's gram is unchanged.
        rng = np.random.default_rng(21)
        g = np.asarray(random_spd(rng, 40), order=order)
        kept = g.copy()
        b = rng.uniform(0, 5, 40)
        b[::3] = 0.0
        rhs = rng.standard_normal(40)
        sol, d = spd_solve_with_inverse_diagonal(g, b, rhs)
        c, _ = lapack.dpotrf(g + np.diag(b), lower=1)
        ref_sol, _ = lapack.dpotrs(c, rhs[:, None], lower=1)
        linv, _ = lapack.dtrtri(c, lower=1)
        assert np.array_equal(sol, ref_sol[:, 0])
        assert np.array_equal(d, np.einsum("ij,ij->j", linv, linv))
        assert np.array_equal(g, kept)

    def test_non_pd_reports_pivot(self):
        g = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(SingularSystem) as exc:
            spd_solve_with_inverse_diagonal(g + 0.5, np.zeros(3), np.ones(3))
        assert exc.value.pivot is not None

    def test_negative_penalty_rejected(self):
        with pytest.raises(InvalidInput):
            spd_solve_with_inverse_diagonal(np.eye(2), np.array([-1.0, 0.0]), np.ones(2))

    @pytest.mark.parametrize("penalty_len, rhs_len", [(2, 3), (3, 4)])
    def test_shape_mismatch_rejected(self, penalty_len, rhs_len):
        # A longer rhs would otherwise be cut to the gram's size without a word.
        with pytest.raises(InvalidInput, match="shape mismatch"):
            spd_solve_with_inverse_diagonal(
                np.eye(3), np.zeros(penalty_len), np.ones(rhs_len))


SIZES = pytest.mark.parametrize("p", [5, 200])  # one LAPACK block; the recursion
EITHER_SOLVE = pytest.mark.parametrize("inverse", [True, False])
KERNEL_ONLY = pytest.mark.parametrize("inverse", [True])  # only the kernel takes a penalty


class TestNonFiniteInput:
    """A NaN anywhere in a system gives a typed error, never a NaN output.
    The checks are O(p): the penalties, the factor's pivots and the output.
    ``inverse`` picks the solve: the kernel, which also returns the inverse
    diagonal, or without it the in-place solve, which takes no penalty."""

    @staticmethod
    def system(p):
        return random_spd(np.random.default_rng(p), p), np.zeros(p), np.ones(p)

    @staticmethod
    def solve(gram, penalty, rhs, inverse):
        if inverse:
            return spd_solve_with_inverse_diagonal(gram, penalty, rhs)
        assert not penalty.any()
        return spd_solve_in_place(gram, rhs)

    @KERNEL_ONLY
    @SIZES
    def test_nan_penalty(self, p, inverse):
        gram, penalty, rhs = self.system(p)
        penalty[3] = np.nan
        with pytest.raises(InvalidInput, match="penalty"):
            self.solve(gram, penalty, rhs, inverse)

    @EITHER_SOLVE
    @SIZES
    def test_nan_rhs(self, p, inverse):
        gram, penalty, rhs = self.system(p)
        rhs[3] = np.nan
        with pytest.raises(InvalidInput, match="non-finite"):
            self.solve(gram, penalty, rhs, inverse)

    @EITHER_SOLVE
    @SIZES
    @pytest.mark.parametrize("i, j", [(3, 1), (3, 3)])
    def test_nan_gram_entry_is_a_failed_pivot(self, p, inverse, i, j):
        gram, penalty, rhs = self.system(p)
        gram[i, j] = gram[j, i] = np.nan
        with pytest.raises(SingularSystem):
            self.solve(gram, penalty, rhs, inverse)

    @KERNEL_ONLY
    @SIZES
    def test_nan_gram_entry_of_a_frozen_coordinate(self, p, inverse):
        # The factorization never reads a frozen coordinate's row.
        gram, penalty, rhs = self.system(p)
        gram[3, 1] = gram[1, 3] = np.nan
        penalty[3] = 2 * FREEZE_RATIO * gram[3, 3]
        with pytest.raises(InvalidInput, match="non-finite"):
            self.solve(gram, penalty, rhs, inverse)

    @EITHER_SOLVE
    @SIZES
    def test_nan_diagonal_system(self, p, inverse):
        gram, penalty, rhs = np.ones(p), np.zeros(p), np.ones(p)
        gram[3] = np.nan
        with pytest.raises(SingularSystem):
            self.solve(gram, penalty, rhs, inverse)


class TestInPlaceSolve:
    """The unpenalized solve of the QR variant's ordering, which overwrites
    one triangle of its gram with the Cholesky factor."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [7, 300])
    def test_factor_overwrites_one_triangle(self, order, p):
        rng = np.random.default_rng(p)
        g = random_spd(rng, p)
        rhs = rng.standard_normal(p)
        gram = np.array(g, order=order)
        sol, diagonal = spd_solve_in_place(gram, rhs)
        assert np.allclose(sol, np.linalg.solve(g, rhs), atol=0, rtol=1e-10)
        assert np.array_equal(diagonal, np.diagonal(g))
        # The C-order view's strict lower triangle is G's; its upper one,
        # with the diagonal, is L', as in the Fortran-order buffer LAPACK wrote.
        rows = gram.T if order == "F" else gram
        lower = np.tril_indices(p, -1)
        assert np.array_equal(rows[lower], g[lower])
        factor = np.triu(rows).T
        assert np.abs(factor @ factor.T - g).max() <= 1e-13 * np.abs(g).max()

    def test_factor_matches_the_kernel_bit_for_bit(self):
        rng = np.random.default_rng(4)
        g = random_spd(rng, 60)
        rhs = rng.standard_normal(60)
        sol, diagonal = spd_solve_in_place(g.copy(), rhs)
        ref, _ = spd_solve_with_inverse_diagonal(g, np.zeros(60), rhs)
        assert np.array_equal(sol, ref)

    def test_diagonal_system_takes_the_closed_form(self):
        gram, rhs = np.array([2.0, 0.5, 4.0]), np.array([1.0, -3.0, 2.0])
        sol, diagonal = spd_solve_in_place(gram, rhs)
        assert np.array_equal(sol, rhs / gram)
        assert diagonal is gram and np.array_equal(gram, [2.0, 0.5, 4.0])

    def test_failed_pivot_names_its_coordinate(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((30, 5))
        x[:, 3] = x[:, 1]
        with pytest.raises(SingularSystem) as exc:
            spd_solve_in_place(x.T @ x, rng.standard_normal(5))
        assert exc.value.pivot == 3


class TestFreezing:
    """A coordinate whose penalty is above FREEZE_RATIO times its own gram
    diagonal leaves the factorization and is solved by its diagonal."""

    @pytest.fixture
    def factorized(self, monkeypatch):
        # The order of each Cholesky factorization the kernel runs.
        sizes = []

        class CountingLapack:
            def __getattr__(self, name):
                return getattr(lapack, name)

            def dpotrf(self, a, *args, **kwargs):
                sizes.append(a.shape[0])
                return lapack.dpotrf(a, *args, **kwargs)

        monkeypatch.setattr(gaga.linalg, "lapack", CountingLapack())
        return sizes

    @staticmethod
    def system(seed=13, n=40, p=6):
        """A gram with unequal diagonal entries, its X'y and its freeze bounds."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, p)) * np.geomspace(0.1, 10.0, p)
        y = x[:, :2] @ np.array([2.0, -1.0]) + rng.standard_normal(n)
        g = x.T @ x
        return g, x.T @ y, FREEZE_RATIO * np.diagonal(g)

    def test_frozen_coordinates_match_explicit_inverse(self, factorized):
        # Leaving out the coupling to a frozen j changes the solution and the
        # inverse diagonal by a relative amount under G_jj / b_j < 1/FREEZE_RATIO.
        g, c, bound = self.system()
        b = np.array([0.5, 1.0, 2.0 * bound[2], 3.0, 1e3 * bound[4], 1e4 * bound[5]])
        sol, d = spd_solve_with_inverse_diagonal(g, b, c)
        assert factorized == [3]
        full_inv = np.linalg.inv(g + np.diag(b))
        assert np.allclose(sol, full_inv @ c, rtol=1e-8, atol=0)
        assert np.allclose(d, np.diagonal(full_inv), rtol=1e-8, atol=0)

    def test_frozen_coordinates_above_block(self, factorized):
        # An active block above BLOCK is compacted in the gram's upper
        # triangle, in either storage order, and the gram is put back as it
        # came.
        rng = np.random.default_rng(17)
        p = 300
        x = rng.standard_normal((p + 50, p)) * np.geomspace(0.1, 10.0, p)
        g = x.T @ x
        b = rng.uniform(0, 2, p)
        b[::3] = 1e3 * FREEZE_RATIO * np.diagonal(g)[::3]
        rhs = rng.standard_normal(p)
        full_inv = np.linalg.inv(g + np.diag(b))
        for order in ("C", "F"):
            gram = np.asarray(g, order=order)
            sol, d = spd_solve_with_inverse_diagonal(gram, b, rhs)
            assert np.array_equal(gram, g)
            assert np.allclose(sol, full_inv @ rhs, rtol=1e-8, atol=0)
            assert np.allclose(d, np.diagonal(full_inv), rtol=1e-8, atol=0)
        assert factorized and max(factorized) <= BLOCK < p - p // 3

    def test_weight_under_the_bound_rejoins_the_factorization(self, factorized):
        # The kernel decides from the penalties of each call, so a weight just
        # under its bound is solved in the factorization again, and the solve
        # is that of the whole system.
        g, c, bound = self.system()
        b = np.array([1.0, 2.0, 3.0, np.nextafter(bound[3], np.inf), 4.0, 5.0])
        spd_solve_with_inverse_diagonal(g, b, c)
        b[3] = np.nextafter(bound[3], 0.0)
        sol, d = spd_solve_with_inverse_diagonal(g, b, c)
        assert factorized == [5, 6]
        l_factor, _ = lapack.dpotrf(g + np.diag(b), lower=1)
        ref_sol, _ = lapack.dpotrs(l_factor, c[:, None], lower=1)
        linv, _ = lapack.dtrtri(l_factor, lower=1)
        assert np.array_equal(sol, ref_sol[:, 0])
        assert np.array_equal(d, np.einsum("ij,ij->j", linv, linv))

    def test_every_coordinate_frozen(self, factorized):
        # A response of pure noise sends every weight past its bound; those
        # iterations factorize nothing.
        rng = np.random.default_rng(14)
        x = rng.standard_normal((30, 4))
        problem = RegressionProblem(design=x, response=1e-3 * rng.standard_normal(30))
        est = gaga_fit(problem, GagaConfig(iterations=50, record_trace=True))
        bound = FREEZE_RATIO * build_gram(problem).diagonal
        # step k + 1 starts from the weights of step k; the final solve from est.tuning
        all_frozen = sum(bool(np.all(s.tuning > bound)) for s in est.trace[:-1])
        all_frozen += bool(np.all(est.tuning > bound))
        assert all_frozen >= 10
        assert len(factorized) == 51 - all_frozen  # 50 steps and the final solve
        assert np.all(np.isfinite(est.coefficients))
        assert not est.support.any()
        last = est.trace[-1]
        assert np.all(np.isfinite(last.beta)) and np.all(last.inv_diag > 0)

    def test_empty_active_set_closed_form(self, factorized):
        g, c, bound = self.system()
        b = 10.0 * bound
        sol, d = spd_solve_with_inverse_diagonal(g, b, c)
        assert factorized == []
        assert np.array_equal(d, 1.0 / (np.diagonal(g) + b))
        assert np.array_equal(sol, c * d)

    def test_final_solve_factorizes_only_the_active_block(self, factorized):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((60, 12))
        problem = RegressionProblem(design=x, response=x[:, :3] @ [3.0, -2.0, 1.5]
                                    + rng.standard_normal(60))
        est = gaga_fit(problem, GagaConfig(iterations=50))
        active = int(np.sum(est.tuning <= FREEZE_RATIO * build_gram(problem).diagonal))
        assert 0 < active < problem.p
        assert factorized[-1] == active

    def test_overflowing_bound_freezes_nothing(self, factorized):
        # FREEZE_RATIO * G_jj overflows to inf, which no penalty exceeds, and
        # no warning is raised for it.
        rng = np.random.default_rng(16)
        g = 1e301 * random_spd(rng, 4) / 20.0
        b = np.array([0.0, 1e300, 1e305, 1e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol, d = spd_solve_with_inverse_diagonal(g, b, np.ones(4))
        assert factorized == [4]
        assert np.all(np.isfinite(sol)) and np.all(d > 0)


def test_overflowing_closed_form_raises_without_a_warning():
    # 1 / 1e-310 overflows; the output check reports it, and numpy must not
    # warn first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="non-finite"):
            spd_solve_with_inverse_diagonal(np.array([1e-310]), np.zeros(1), np.ones(1))


def recursion_leaves(n):
    """The orders of the blocks the recursion factorizes for a block of n:
    it splits at n // 2 until a block is at most BLOCK."""
    if n <= BLOCK:
        return [n]
    return recursion_leaves(n // 2) + recursion_leaves(n - n // 2)


class TestInverseFactorRecursion:
    """Above BLOCK coordinates the kernel builds W = L^-1 by block recursion
    in the caller's gram, and puts the gram back as it came."""

    @pytest.fixture
    def leaves(self, monkeypatch):
        # The order of each Cholesky factorization, read through the kernel's
        # LAPACK, so that a silent fallback to one factorization of the whole
        # block cannot pass these tests: p = 300 must factorize four leaves
        # of 75.
        sizes = []

        class CountingLapack:
            def __getattr__(self, name):
                return getattr(lapack, name)

            def dpotrf(self, a, *args, **kwargs):
                sizes.append(a.shape[0])
                return lapack.dpotrf(a, *args, **kwargs)

        monkeypatch.setattr(gaga.linalg, "lapack", CountingLapack())
        return sizes

    @staticmethod
    def duplicated_column_gram(p, kept, copied):
        rng = np.random.default_rng(p + copied)
        x = rng.standard_normal((p + 40, p))
        x[:, copied] = x[:, kept]
        return x.T @ x

    def test_leaves_of_the_recursion(self):
        assert recursion_leaves(300) == [75] * 4
        assert recursion_leaves(BLOCK + 1) == [BLOCK // 2, BLOCK // 2 + 1]
        assert recursion_leaves(513) == [128, 128, 128, 129 // 2, 129 - 129 // 2]

    @pytest.mark.parametrize("p", [BLOCK + 1, 300, 513])
    def test_matches_explicit_inverse(self, p, leaves):
        # 129, 300 and 513 split unevenly at some level of the recursion.
        rng = np.random.default_rng(p)
        x = rng.standard_normal((p + 50, p))
        g = x.T @ x
        b = rng.uniform(0, 2, p)
        b[::4] = 0.0
        rhs = rng.standard_normal(p)
        sol, d = spd_solve_with_inverse_diagonal(g, b, rhs)
        full_inv = np.linalg.inv(g + np.diag(b))
        assert leaves == recursion_leaves(p)
        assert np.allclose(sol, full_inv @ rhs, atol=0, rtol=1e-10)
        assert np.allclose(d, np.diagonal(full_inv), atol=0, rtol=1e-10)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gram_left_unwritten(self, order, leaves):
        # The recursion writes the block over the gram's upper triangle (of
        # its C-order view) and puts G back bit for bit: after a solve of the
        # whole system, after one whose frozen coordinates make it compact
        # the block in place, and after a failed pivot in the second half of
        # the split, which raises from inside the recursion. Blocks of 300,
        # 200 and 683 end in a partial strip of STRIP rows; a gram of 1024
        # has rows of 4 KB.
        for p, case in itertools.product((300, 1024), ("none frozen", "frozen", "pivot fails")):
            rng = np.random.default_rng(5)
            b, rhs = rng.uniform(0, 5, p), rng.standard_normal(p)
            if case == "pivot fails":
                g = self.duplicated_column_gram(p, 40, 293)
                b[:] = 0.0
            else:
                g = random_spd(rng, p)
            if case == "frozen":
                b[1::3] = 1e3 * FREEZE_RATIO * np.diagonal(g)[1::3]
            gram = np.array(g, order=order)
            leaves.clear()
            if case == "pivot fails":
                with pytest.raises(SingularSystem) as exc:
                    spd_solve_with_inverse_diagonal(gram, b, rhs)
                assert exc.value.pivot == 293
            else:
                sol, d = spd_solve_with_inverse_diagonal(gram, b, rhs)
                full_inv = np.linalg.inv(g + np.diag(b))
                assert np.allclose(sol, full_inv @ rhs, atol=0, rtol=1e-8)
                assert np.allclose(d, np.diagonal(full_inv), atol=0, rtol=1e-8)
            assert np.array_equal(gram, g), (p, case)
            assert leaves == recursion_leaves(p - p // 3 if case == "frozen" else p)

    @pytest.mark.parametrize("layout", ["read-only", "strided"])
    def test_gram_that_cannot_be_written_is_copied(self, layout, leaves):
        # A read-only gram, or one that is neither C- nor Fortran-contiguous,
        # is solved on a copy, and the caller's array is not written.
        p = 300
        rng = np.random.default_rng(6)
        g = random_spd(rng, p)
        b, rhs = rng.uniform(0, 5, p), rng.standard_normal(p)
        if layout == "read-only":
            gram = g.copy()
            gram.setflags(write=False)
        else:
            big = np.zeros((2 * p, 2 * p))
            big[::2, ::2] = g
            gram = big[::2, ::2]
            assert not (gram.flags.c_contiguous or gram.flags.f_contiguous)
        sol, d = spd_solve_with_inverse_diagonal(gram, b, rhs)
        ref_sol, ref_d = spd_solve_with_inverse_diagonal(g, b, rhs)
        assert np.array_equal(sol, ref_sol) and np.array_equal(d, ref_d)
        assert np.array_equal(gram, g)
        if layout == "strided":
            assert not big[1::2].any() and not big[:, 1::2].any()
        assert leaves == 2 * recursion_leaves(p)

    @pytest.mark.parametrize("p, kept, copied", [
        (300, 10, 122), (300, 40, 293), (300, 149, 150), (513, 5, 506), (513, 300, 400)])
    def test_duplicated_column_reports_its_pivot(self, p, kept, copied, leaves):
        # The pivot is that of one Cholesky factorization of the whole system,
        # in the first half of the split or the second.
        g = self.duplicated_column_gram(p, kept, copied)
        for order in ("C", "F"):
            with pytest.raises(SingularSystem) as exc:
                spd_solve_with_inverse_diagonal(
                    np.asarray(g, order=order), np.zeros(p), np.ones(p))
            assert exc.value.pivot == copied
        assert leaves and max(leaves) <= BLOCK

    def test_accuracy_matches_unblocked_kernel(self, monkeypatch, leaves):
        # Column scales over 10^2.85 give cond(X'X) of about 5e6. The recursion
        # is as accurate against inv as one Cholesky factorization of the
        # whole system (the kernel with BLOCK raised to p).
        p = 300
        rng = np.random.default_rng(2)
        x = rng.standard_normal((p + 100, p)) * np.geomspace(1.0, 10 ** 2.85, p)
        g = x.T @ x
        assert 3e6 < np.linalg.cond(g) < 1e7
        rhs = rng.standard_normal(p)
        full_inv = np.linalg.inv(g)
        ref_sol, ref_d = full_inv @ rhs, np.diagonal(full_inv)

        def errors():
            sol, d = spd_solve_with_inverse_diagonal(g, np.zeros(p), rhs)
            return (np.abs(sol - ref_sol).max() / np.abs(ref_sol).max(),
                    np.abs(d - ref_d).max() / ref_d.max())

        blocked = errors()
        assert leaves == recursion_leaves(p)
        monkeypatch.setattr(gaga.linalg, "BLOCK", p)
        unblocked = errors()
        assert leaves == recursion_leaves(p) + [p]
        assert max(unblocked) < 1e-12
        assert blocked[0] <= 1.25 * unblocked[0]
        assert blocked[1] <= 1.25 * unblocked[1]

    def test_solve_alone_skips_the_recursion(self, leaves):
        rng = np.random.default_rng(8)
        g = random_spd(rng, 300)
        rhs = rng.standard_normal(300)
        sol, diagonal = spd_solve_in_place(g.copy(), rhs)
        assert np.array_equal(diagonal, np.diagonal(g)) and leaves == [300]
        assert np.allclose(sol, np.linalg.solve(g, rhs), atol=0, rtol=1e-10)


def test_is_diagonal():
    assert is_diagonal(np.diag([1.0, 2.0]))
    assert not is_diagonal(np.array([[1.0, 1e-300], [0.0, 1.0]]))


def test_inverse_diagonal_matches_solver():
    rng = np.random.default_rng(3)
    g = random_spd(rng, 7)
    b = rng.uniform(0, 1, 7)
    d = inverse_diagonal(g, b)
    assert np.allclose(d, np.diagonal(np.linalg.inv(g + np.diag(b))), rtol=1e-10)


class TestCompiledScipyModules:
    """The package loads scipy's compiled LAPACK and BLAS modules without
    running the ``scipy.linalg`` package, and shares them with it."""

    @staticmethod
    def run(code):
        """stdout of ``code`` in a fresh interpreter on the package in ``src/``."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    def test_fits_never_import_scipy_linalg(self):
        assert self.run(
            "import sys, gaga, gaga.cli\n"
            "from gaga.datagen import gen_highdim\n"
            "problem = gen_highdim(0, 60, 20).problem\n"
            "gaga.gaga_fit(problem); gaga.gaga_qr_fit(problem)\n"
            "print('scipy.linalg' in sys.modules)") == ["False"]

    def test_modules_already_loaded_by_scipy_linalg_are_reused(self):
        assert self.run(
            "import sys, scipy.linalg\n"
            "blas, lapack = (sys.modules[f'scipy.linalg.{m}'] for m in ('_fblas', '_flapack'))\n"
            "import gaga.datagen, gaga.linalg, gaga.qr\n"
            "print(gaga.linalg.blas is blas, gaga.linalg.lapack is lapack,\n"
            "      gaga.datagen.blas is blas, gaga.qr.lapack is lapack)") == ["True"] * 4

    def test_one_copy_of_each_routine(self):
        for routine in ("dpotrf", "dpotrs", "dtrtri", "dtrtrs"):
            assert getattr(gaga.linalg.lapack, routine) is getattr(scipy.linalg.lapack, routine)
        for routine in ("dgemv", "dtrmm", "dsyrk"):
            assert getattr(gaga.linalg.blas, routine) is getattr(scipy.linalg.blas, routine)
        assert gaga.datagen.blas is gaga.linalg.blas
        assert gaga.datagen.lapack is gaga.qr.lapack is gaga.linalg.lapack

    def test_a_loaded_module_is_returned_as_it_is(self, monkeypatch):
        # Loading the file again would hand back the same module object, with
        # its attributes reset from the copy CPython keeps of them.
        marker = object()
        monkeypatch.setattr(gaga.linalg.lapack, "dpotrf", marker)
        assert gaga.linalg._load_extension("_flapack") is gaga.linalg.lapack
        assert gaga.linalg.lapack.dpotrf is marker
        assert gaga.linalg._load_extension("_fblas") is gaga.linalg.blas

    def test_missing_module_names_its_file(self):
        path = Path(scipy.__file__).parent / "linalg" / "_no_such_module"
        with pytest.raises(ImportError, match=re.escape(str(path))):
            gaga.linalg._load_extension("_no_such_module")
