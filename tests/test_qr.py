import numpy as np
import pytest
import scipy.linalg

import gaga.linalg
import oracle
from gaga import (
    GagaConfig,
    GramSystem,
    InvalidInput,
    RankDeficient,
    RegressionProblem,
    gaga_fit,
    gaga_qr_fit,
)
from gaga.datagen import correlated_gaussian_rows, gen_model2
from gaga.metrics import acc
from gaga.linalg import build_gram, spd_solve_in_place
from gaga.qr import _cholesky_qr, _ols_permutation, solve_triangular
from gaga.solver import fit_gram


def orthonormal_problem():
    # exact selection-of-identity columns: gram is exactly the identity
    x = np.eye(8)[:, :4]
    y = np.array([5.0, -4.0, 3.0, 2.0, 0.1, 0.2, 0.3, 0.4])
    return RegressionProblem(design=x, response=y)


def ols_permutation(problem):
    _, _, perm = _ols_permutation(problem)
    return perm


class TestPlanQr:
    """The column plan of the QR variant: the package's ordering by |OLS|,
    and the Householder factors of the permuted design that the oracle
    (``tests/oracle.py``) fits with."""

    def test_identity_permutation_orthonormal(self):
        pr = orthonormal_problem()
        assert np.array_equal(ols_permutation(pr), np.arange(4))
        plan = oracle.plan_qr(pr)
        assert np.array_equal(plan.permutation, np.arange(4))
        assert np.allclose(plan.q_factor, pr.design, atol=1e-12)
        assert np.allclose(plan.r_factor, np.eye(4), atol=1e-12)

    def test_sorting_by_absolute_value(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((30, 3)))
        gamma = np.array([-3.0, 1.0, 2.0])
        pr = RegressionProblem(design=q, response=q @ gamma)
        assert np.array_equal(ols_permutation(pr), [0, 2, 1])
        assert np.allclose(oracle.plan_qr(pr).ols, gamma, atol=1e-10)

    def test_stable_tie_break(self):
        # exact ties need an exact design: identity columns give ols == cross
        x = np.eye(5)[:, :3]
        y = np.array([2.0, -2.0, 1.0, 0.0, 0.0])
        pr = RegressionProblem(design=x, response=y)
        assert np.array_equal(ols_permutation(pr), [0, 1, 2])
        assert np.array_equal(oracle.plan_qr(pr).permutation, [0, 1, 2])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 6))
        y = rng.standard_normal(40)
        pr = RegressionProblem(design=x, response=y)
        plan = oracle.plan_qr(pr)
        assert np.array_equal(plan.permutation, ols_permutation(pr))
        x_new = x[:, plan.permutation]
        assert np.allclose(plan.q_factor @ plan.r_factor, x_new, atol=1e-10)
        assert np.allclose(plan.q_factor.T @ plan.q_factor, np.eye(6), atol=1e-10)
        assert np.all(np.diagonal(plan.r_factor) >= 0)
        r = plan.r_factor
        assert np.array_equal(np.tril(r, -1), np.zeros_like(r))
        ordered = np.abs(plan.ols[plan.permutation])
        assert np.all(np.diff(ordered) <= 1e-12)

    def test_rank_deficient(self):
        x = np.ones((10, 2))  # duplicated column
        with pytest.raises(RankDeficient):
            _ols_permutation(RegressionProblem(design=x, response=np.arange(10.0)))

    def test_permutation_round_trip(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((25, 5))
        y = rng.standard_normal(25)
        perm = ols_permutation(RegressionProblem(design=x, response=y))
        assert np.array_equal(np.sort(perm), np.arange(5))
        v = rng.standard_normal(5)
        out = np.empty(5)
        out[perm] = v[perm]
        assert np.array_equal(out, v)


class TestGagaQrFit:
    def test_bit_identical_on_exact_orthonormal_design(self):
        pr = orthonormal_problem()
        a = gaga_fit(pr, GagaConfig())
        b = gaga_qr_fit(pr, GagaConfig())
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.support, b.support)
        assert np.array_equal(a.tuning, b.tuning)

    def test_more_columns_than_rows_rejected(self):
        rng = np.random.default_rng(8)
        problem = RegressionProblem(design=rng.standard_normal((5, 9)),
                                    response=rng.standard_normal(5))
        with pytest.raises(InvalidInput, match="need p <= n"):
            gaga_qr_fit(problem, GagaConfig())

    @pytest.mark.parametrize("fit", [gaga_fit, gaga_qr_fit])
    def test_trace_is_in_design_column_order(self, fit):
        est = fit(gen_model2(3).problem, GagaConfig(record_trace=True))
        assert np.array_equal(est.trace[-1].tuning, est.tuning * 2.0)

    def test_traced_state_is_in_one_order(self):
        # Each traced weight is the update of the same state's beta and
        # inverse diagonal (fixed variance; the inner clamp is 1e12).
        problem = gen_model2(3).problem
        assert not np.array_equal(ols_permutation(problem), np.arange(problem.p))
        for state in gaga_qr_fit(problem, GagaConfig(record_trace=True)).trace:
            update = np.minimum(1e12, 2.0 / (state.beta * state.beta + state.inv_diag))
            assert np.array_equal(state.tuning, update)

    def test_tail_sparsity_preserved_by_back_substitution(self):
        r = np.array([
            [2.0, 1.0, -1.0, 0.5],
            [0.0, 1.5, 0.3, -0.2],
            [0.0, 0.0, 1.0, 0.7],
            [0.0, 0.0, 0.0, 2.0],
        ])
        theta = np.array([3.0, -1.0, 0.0, 0.0])
        beta = solve_triangular(r, theta)
        assert np.array_equal(beta[2:], [0.0, 0.0])
        assert beta[0] != 0 and beta[1] != 0

    def test_inner_gram_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 6))
        y = rng.standard_normal(50)
        plan = oracle.plan_qr(RegressionProblem(design=x, response=y))
        assert np.abs(plan.q_factor.T @ plan.q_factor - np.eye(6)).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_close_to_plain_fit_on_well_separated_signal(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((200, 10))
        beta = np.zeros(10)
        beta[:3] = [5.0, -4.0, 3.0]
        y = x @ beta + rng.standard_normal(200)
        pr = RegressionProblem(design=x, response=y)
        a = gaga_fit(pr, GagaConfig())
        b = gaga_qr_fit(pr, GagaConfig())
        assert np.array_equal(a.support, b.support)
        assert np.allclose(a.coefficients, b.coefficients, atol=0.2)

    def test_support_recovery_close_to_plain_fit_midsize(self):
        # scaled-down version of the high-dimensional comparison
        from gaga.datagen import gen_consistency, replicate_seed
        diffs = []
        for rep in range(10):
            inst = gen_consistency(replicate_seed(5, rep), n=150)
            a = acc(gaga_fit(inst.problem, GagaConfig()).coefficients, inst.beta_true).acc
            b = acc(gaga_qr_fit(inst.problem, GagaConfig()).coefficients, inst.beta_true).acc
            diffs.append(a - b)
        assert abs(float(np.mean(diffs))) <= 0.1


def equicorrelated_problem(seed, n=200, p=20, rho=0.5, collinear=0.0):
    """Equicorrelated design; with ``collinear`` set, column 1 is column 0
    plus noise of that scale, which makes the design ill-conditioned."""
    rng = np.random.default_rng(seed)
    corr = np.full((p, p), rho)
    np.fill_diagonal(corr, 1.0)
    x = correlated_gaussian_rows(corr, n, rng)
    if collinear:
        x[:, 1] = x[:, 0] + collinear * rng.standard_normal(n)
    beta = np.zeros(p)
    beta[: p // 2] = rng.uniform(0.5, 5.0, p // 2)
    return RegressionProblem(design=x, response=x @ beta + rng.standard_normal(n))


def householder_reference(problem, config):
    """The QR variant computed by the oracle from explicit Householder factors."""
    return oracle.qr_fit(problem, config).coefficients


class TestCholeskyQr:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_householder_reference(self, seed):
        pr = equicorrelated_problem(seed)
        config = GagaConfig()
        got = gaga_qr_fit(pr, config).coefficients
        ref = householder_reference(pr, config)
        assert np.array_equal(got != 0.0, ref != 0.0)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("seed", range(5))
    def test_ill_conditioned_design_normal_equation_accuracy(self, seed):
        # CholeskyQR works from X'X, so it matches Householder QR only to
        # about kappa(X)^2 * eps, not kappa(X) * eps; here kappa(X) ~ 5e4.
        pr = equicorrelated_problem(seed, collinear=1e-4)
        kappa = np.linalg.cond(pr.design)
        assert kappa > 1e4
        config = GagaConfig()
        got = gaga_qr_fit(pr, config).coefficients
        ref = householder_reference(pr, config)
        assert np.array_equal(got != 0.0, ref != 0.0)
        gap = np.abs(got - ref).max() / np.abs(ref).max()
        assert gap <= kappa**2 * np.finfo(float).eps

    @staticmethod
    def duplicated_column_problem():
        rng = np.random.default_rng(4)
        x = rng.standard_normal((30, 4))
        x[:, 2] = x[:, 1]
        return RegressionProblem(design=x, response=rng.standard_normal(30))

    def test_duplicated_column_rank_deficient(self):
        # The least-squares factor fails at the copy, column 2.
        with pytest.raises(RankDeficient) as exc:
            gaga_qr_fit(self.duplicated_column_problem())
        assert exc.value.pivot == 2

    def test_duplicated_column_fails_the_permuted_factor(self):
        # In this order column 2 comes before its copy, column 1.
        gs = build_gram(self.duplicated_column_problem())
        with pytest.raises(RankDeficient) as exc:
            _cholesky_qr(gs, gs.diagonal.copy(), np.array([2, 0, 3, 1]))
        assert exc.value.pivot == 1

    def test_failed_pivot_is_named_by_its_design_column(self):
        # x2 = x0 + x1 + 1e-5 noise, columns scaled and shuffled. The last
        # pivot's squared ratio to its X'X diagonal is 1.6e-10 in the design's
        # own order, which passes the 1e-10 rank rule, and 4.5e-11 in the OLS
        # order [2, 0, 1], which fails it at permuted position 2: column 1.
        rng = np.random.default_rng(898)
        x = rng.standard_normal((30, 3))
        x[:, 2] = x[:, 0] + x[:, 1] + 1e-5 * rng.standard_normal(30)
        x *= 10.0 ** rng.uniform(-2, 2, 3)
        x = x[:, rng.permutation(3)]
        pr = RegressionProblem(design=x, response=rng.standard_normal(30))
        assert ols_permutation(pr).tolist() == [2, 0, 1]
        with pytest.raises(RankDeficient) as exc:
            gaga_qr_fit(pr)
        assert exc.value.pivot == 1


class TestBackMap:
    """The back-substitution is scipy's ``solve_triangular`` for the fit's
    Fortran-order upper R, bit for bit, with its errors."""

    @staticmethod
    def system(p=257):
        rng = np.random.default_rng(p)
        r = np.asfortranarray(np.triu(rng.standard_normal((p, p))))
        r[np.diag_indices(p)] = rng.uniform(1.0, 2.0, p)
        return r, rng.standard_normal(p)

    def test_matches_scipy_bit_for_bit(self):
        r, b = self.system()
        assert np.array_equal(solve_triangular(r, b),
                              scipy.linalg.solve_triangular(r, b, lower=False))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["r", "b"])
    def test_non_finite_entry_rejected(self, value, where):
        r, b = self.system()
        if where == "r":
            r[3, 200] = value
        else:
            b[200] = value
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_triangular(r, b)

    def test_zero_pivot_is_singular(self):
        r, b = self.system()
        r[100, 100] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 100"):
            solve_triangular(r, b)


class TestInPlaceCholeskyQr:
    """The fit factorizes its one p×p gram, gathers P'GP into it and
    factorizes that, all in place."""

    @pytest.fixture
    def factored(self, monkeypatch):
        """Each matrix handed to ``gaga.qr``'s ``dpotrf``, as a copy taken
        before the call and the array itself."""
        real, seen = gaga.qr.lapack, []

        class Recording:
            def __getattr__(self, name):
                return getattr(real, name)

            def dpotrf(self, a, **kwargs):
                seen.append((a.copy(), a))
                return real.dpotrf(a, **kwargs)

        monkeypatch.setattr(gaga.qr, "lapack", Recording())
        return seen

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [257, 512, 513])  # a last strip of one row; rows of 4 KB
    def test_permuted_buffer_is_the_fancy_index_copy(self, factored, order, p):
        rng = np.random.default_rng(p)
        x = rng.standard_normal((p + 20, p))
        g = x.T @ x
        cross = x.T @ rng.standard_normal(p + 20)
        gram = np.array(g, order=order)
        ols, diagonal = spd_solve_in_place(gram, cross)
        perm = np.argsort(-np.abs(ols), kind="stable")
        gs = GramSystem(gram=gram, cross=cross, response_sq_norm=1.0)
        assert gs.gram is gram
        _cholesky_qr(gs, diagonal, perm)
        [(permuted, buffer)] = factored
        assert np.array_equal(permuted, g[np.ix_(perm, perm)])
        assert np.shares_memory(buffer, gram)

    def test_fit_factorizes_the_gram_in_place(self, factored, monkeypatch):
        real, grams = gaga.qr.build_gram, []

        def kept(problem):
            grams.append(real(problem))
            return grams[-1]

        monkeypatch.setattr(gaga.qr, "build_gram", kept)
        problem = equicorrelated_problem(1, p=40)
        gaga_qr_fit(problem, GagaConfig())
        [(permuted, buffer)] = factored
        perm = ols_permutation(problem)
        assert np.array_equal(permuted, build_gram(problem).gram[np.ix_(perm, perm)])
        assert np.shares_memory(buffer, grams[0].gram)

    def test_exactly_diagonal_gram_takes_the_closed_form(self, monkeypatch):
        # Disjoint row supports make X'X exactly diagonal; the scales put the
        # columns out of order.
        rng = np.random.default_rng(6)
        x = np.kron(np.eye(6), np.ones((5, 1))) * rng.standard_normal((30, 6))
        x *= [0.5, 3.0, 1.0, 8.0, 0.1, 2.0]
        problem = RegressionProblem(design=x, response=x @ [2.0, 0, 1.0, 0, 4.0, 0.5]
                                    + 0.1 * rng.standard_normal(30))
        assert build_gram(problem).gram.ndim == 1
        assert not np.array_equal(ols_permutation(problem), np.arange(6))
        est = gaga_qr_fit(problem, GagaConfig())
        # The same fit through the p×p path, with the gram kept as a matrix.
        monkeypatch.setattr(gaga.linalg, "is_diagonal", lambda mat: False)
        assert build_gram(problem).gram.ndim == 2
        dense = gaga_qr_fit(problem, GagaConfig())
        assert np.array_equal(est.coefficients, dense.coefficients)
        assert np.array_equal(est.tuning, dense.tuning)
        assert est.support.any()


class TestDiagonalDecidedOnce:
    @pytest.fixture
    def diag_checks(self, monkeypatch):
        calls = []
        real = gaga.linalg.is_diagonal

        def counting(mat):
            calls.append(mat.shape)
            return real(mat)

        monkeypatch.setattr(gaga.linalg, "is_diagonal", counting)
        return calls

    def test_dense_fit(self, diag_checks):
        est = gaga_fit(equicorrelated_problem(0), GagaConfig())
        assert est.support.any()
        assert len(diag_checks) <= 1

    def test_dense_qr_fit_checks_only_the_design_gram(self, diag_checks):
        # the inner system is built from its diagonal vector, so it needs no check
        est = gaga_qr_fit(equicorrelated_problem(0), GagaConfig())
        assert est.support.any()
        assert diag_checks == [(20, 20)]

    def test_diagonal_fit(self, diag_checks):
        gs = GramSystem(gram=np.diag([2.0, 0.5, 3.0]), cross=np.array([4.0, 0.1, -3.0]),
                        response_sq_norm=30.0)
        est = fit_gram(gs, 50, GagaConfig(variance_mode="estimated"))
        assert est.support.any()
        assert len(diag_checks) <= 1
