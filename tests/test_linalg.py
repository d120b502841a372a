import warnings

import numpy as np
import pytest
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
import gaga.linalg
from gaga.datagen import gen_model1
from gaga.linalg import (
    BLOCK,
    FREEZE_RATIO,
    inverse_diagonal,
    is_diagonal,
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
        # build_gram does not symmetrize. Stepped and reversed columns give an
        # asymmetric x.T @ x from p ~ 130 unless build_gram copies them first.
        rng = np.random.default_rng(7)
        for n, p in [(3, 2), (7, 5), (40, 17), (300, 64), (129, 130), (600, 333)]:
            base = rng.standard_normal((2 * n, 2 * p))
            x = {"C": base[:n, :p].copy(), "F": np.asfortranarray(base[:n, :p]),
                 "column_block": base[:n, 1:p + 1], "column_step": base[:n, 1::2],
                 "row_stride": base[::2, :p], "reversed": base[:n, p - 1::-1]}[layout]
            g = build_gram(RegressionProblem(design=x, response=np.zeros(n))).gram
            assert np.array_equal(g, g.T)

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


@pytest.mark.parametrize("inverse", [True, False])
@pytest.mark.parametrize("p", [5, 200])  # one LAPACK block; the recursion
class TestNonFiniteInput:
    """A NaN anywhere in a system gives a typed error, never a NaN output.
    The checks are O(p): the penalties, the factor's pivots and the output."""

    @staticmethod
    def system(p):
        return random_spd(np.random.default_rng(p), p), np.zeros(p), np.ones(p)

    def test_nan_penalty(self, p, inverse):
        gram, penalty, rhs = self.system(p)
        penalty[3] = np.nan
        with pytest.raises(InvalidInput, match="penalty"):
            spd_solve_with_inverse_diagonal(gram, penalty, rhs, inverse)

    def test_nan_rhs(self, p, inverse):
        gram, penalty, rhs = self.system(p)
        rhs[3] = np.nan
        with pytest.raises(InvalidInput, match="non-finite"):
            spd_solve_with_inverse_diagonal(gram, penalty, rhs, inverse)

    @pytest.mark.parametrize("i, j", [(3, 1), (3, 3)])
    def test_nan_gram_entry_is_a_failed_pivot(self, p, inverse, i, j):
        gram, penalty, rhs = self.system(p)
        gram[i, j] = gram[j, i] = np.nan
        with pytest.raises(SingularSystem):
            spd_solve_with_inverse_diagonal(gram, penalty, rhs, inverse)

    def test_nan_gram_entry_of_a_frozen_coordinate(self, p, inverse):
        # The factorization never reads a frozen coordinate's row.
        gram, penalty, rhs = self.system(p)
        gram[3, 1] = gram[1, 3] = np.nan
        penalty[3] = 2 * FREEZE_RATIO * gram[3, 3]
        with pytest.raises(InvalidInput, match="non-finite"):
            spd_solve_with_inverse_diagonal(gram, penalty, rhs, inverse)

    def test_nan_diagonal_system(self, p, inverse):
        gram, penalty, rhs = np.ones(p), np.zeros(p), np.ones(p)
        gram[3] = np.nan
        with pytest.raises(SingularSystem):
            spd_solve_with_inverse_diagonal(gram, penalty, rhs, inverse)


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
        # An active block above BLOCK is gathered as three quadrants, from a
        # gram in either storage order, which is read and never written.
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


class TestInverseFactorRecursion:
    """Above BLOCK coordinates the kernel builds W = L^-1 by block recursion."""

    @pytest.fixture
    def dtrmm_calls(self, monkeypatch):
        # Count the recursion's BLAS-3 calls, so a silent fallback to the
        # unblocked path cannot pass these tests.
        calls = []

        class CountingBlas:
            def __getattr__(self, name):
                return getattr(blas, name)

            def dtrmm(self, *args, **kwargs):
                calls.append(args[1].shape)
                return blas.dtrmm(*args, **kwargs)

        monkeypatch.setattr(gaga.linalg, "blas", CountingBlas())
        return calls

    @staticmethod
    def duplicated_column_gram(p, kept, copied):
        rng = np.random.default_rng(p + copied)
        x = rng.standard_normal((p + 40, p))
        x[:, copied] = x[:, kept]
        return x.T @ x

    @pytest.mark.parametrize("p", [BLOCK + 1, 300, 513])
    def test_matches_explicit_inverse(self, p, dtrmm_calls):
        # 129, 300 and 513 split unevenly at some level of the recursion.
        rng = np.random.default_rng(p)
        x = rng.standard_normal((p + 50, p))
        g = x.T @ x
        b = rng.uniform(0, 2, p)
        b[::4] = 0.0
        rhs = rng.standard_normal(p)
        sol, d = spd_solve_with_inverse_diagonal(g, b, rhs)
        full_inv = np.linalg.inv(g + np.diag(b))
        assert dtrmm_calls
        assert np.allclose(sol, full_inv @ rhs, atol=0, rtol=1e-10)
        assert np.allclose(d, np.diagonal(full_inv), atol=0, rtol=1e-10)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_gram_left_unwritten(self, order, dtrmm_calls):
        rng = np.random.default_rng(5)
        g = np.asarray(random_spd(rng, 300), order=order)
        kept = g.copy()
        b, rhs = rng.uniform(0, 5, 300), rng.standard_normal(300)
        sol, d = spd_solve_with_inverse_diagonal(g, b, rhs)
        assert dtrmm_calls
        assert np.array_equal(g, kept)
        full_inv = np.linalg.inv(g + np.diag(b))
        assert np.allclose(d, np.diagonal(full_inv), atol=0, rtol=1e-10)

    @pytest.mark.parametrize("p, kept, copied", [
        (300, 10, 122), (300, 40, 293), (300, 149, 150), (513, 5, 506), (513, 300, 400)])
    def test_duplicated_column_reports_its_pivot(self, p, kept, copied, dtrmm_calls):
        # The pivot is that of one Cholesky factorization of the whole system,
        # in the first half of the split or the second.
        g = self.duplicated_column_gram(p, kept, copied)
        for order in ("C", "F"):
            with pytest.raises(SingularSystem) as exc:
                spd_solve_with_inverse_diagonal(
                    np.asarray(g, order=order), np.zeros(p), np.ones(p))
            assert exc.value.pivot == copied
        assert dtrmm_calls

    def test_accuracy_matches_unblocked_kernel(self, monkeypatch, dtrmm_calls):
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
        assert dtrmm_calls
        monkeypatch.setattr(gaga.linalg, "BLOCK", p)
        calls = len(dtrmm_calls)
        unblocked = errors()
        assert len(dtrmm_calls) == calls
        assert max(unblocked) < 1e-12
        assert blocked[0] <= 1.25 * unblocked[0]
        assert blocked[1] <= 1.25 * unblocked[1]

    def test_solve_alone_skips_the_recursion(self, dtrmm_calls):
        rng = np.random.default_rng(8)
        g = random_spd(rng, 300)
        rhs = rng.standard_normal(300)
        sol, d = spd_solve_with_inverse_diagonal(g, np.zeros(300), rhs, inverse=False)
        assert d is None and not dtrmm_calls
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
