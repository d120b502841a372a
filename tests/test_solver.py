import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gaga import (
    DimensionError,
    ESTIMATED,
    FIXED,
    GagaConfig,
    GagaError,
    GramSystem,
    InvalidInput,
    RegressionProblem,
    SignalEstimate,
    SingularSystem,
    build_gram,
    gaga_fit,
    gaga_qr_fit,
    spd_solve_with_inverse_diagonal,
)
import gaga.linalg
from gaga import solver
from gaga.datagen import gen_highdim
from gaga.linalg import FREEZE_RATIO
from gaga.solver import (
    estimate_variance_em,
    fit_gram,
    gaga_step,
    hard_truncate,
    initial_state,
)
from gaga.types import SolverState


def orthonormal_gram(p, cross, ysq):
    return GramSystem(gram=np.eye(p), cross=np.asarray(cross, float),
                      response_sq_norm=float(ysq))


class TestGagaStep:
    def test_zero_response(self):
        gs = orthonormal_gram(2, [0.0, 0.0], 0.0)
        state = gaga_step(initial_state(2), gs, GagaConfig(alpha=2.0), n_obs=4)
        assert np.array_equal(state.beta, [0.0, 0.0])
        assert np.array_equal(state.inv_diag, [1.0, 1.0])
        assert np.array_equal(state.tuning, [2.0, 2.0])
        assert state.iteration == 1

    def test_direct_formula(self):
        # b = 1 on an orthonormal design: beta = cross/2, D_jj = 0.5
        gs = orthonormal_gram(1, [2.0], 10.0)
        state = SolverState(iteration=3, tuning=np.array([1.0]), beta=np.zeros(1),
                            inv_diag=np.ones(1), variance=1.0)
        nxt = gaga_step(state, gs, GagaConfig(alpha=2.0), n_obs=5)
        assert nxt.beta[0] == pytest.approx(1.0)
        assert nxt.inv_diag[0] == pytest.approx(0.5)
        assert nxt.tuning[0] == pytest.approx(4.0 / 3.0)

    def test_matches_scalar_recursion_on_diagonal_gram(self):
        # orthogonal design: the per-coordinate update reduces to
        # b <- alpha*(b+sigma)^2/(b+sigma+z) with z = cross^2/sigma... cross = a'y
        rng = np.random.default_rng(0)
        sigma = rng.uniform(0.5, 5.0, 6)
        ay = rng.standard_normal(6) * np.sqrt(sigma) * 3
        gs = GramSystem(gram=np.diag(sigma), cross=ay, response_sq_norm=50.0)
        config = GagaConfig(alpha=2.0)
        z = ay**2
        b_scalar = np.zeros(6)
        state = initial_state(6)
        clamp = 1e12 * sigma.max()
        for _ in range(30):
            state = gaga_step(state, gs, config, n_obs=100)
            b_scalar = np.minimum(clamp, 2.0 * (b_scalar + sigma) ** 2 / (b_scalar + sigma + z))
            assert np.allclose(state.tuning, b_scalar, rtol=1e-10, atol=0)

    def test_estimated_mode_updates_variance(self):
        gs = orthonormal_gram(2, [0.0, 0.0], 4.0)
        state = gaga_step(initial_state(2), gs, GagaConfig(variance_mode=ESTIMATED),
                          n_obs=4)
        # beta = 0, D = I, tau = 1: (4 + tr(I))/4
        assert state.variance == pytest.approx(1.5)


def dense_system(seed=13, n=40, p=6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x[:, :2] @ np.array([2.0, -1.0]) + rng.standard_normal(n)
    return build_gram(RegressionProblem(design=x, response=y))


def state_with(tuning):
    tuning = np.asarray(tuning, dtype=float)
    return SolverState(iteration=30, tuning=tuning, beta=np.zeros(tuning.size),
                       inv_diag=np.ones(tuning.size), variance=1.0)


def freeze_bound(gs):
    return FREEZE_RATIO * gs.diagonal


class TestActiveSet:
    """A step's solve is one kernel call, which freezes every coordinate whose
    incoming weight is above FREEZE_RATIO * G_jj (tested in test_linalg.py)."""

    @pytest.mark.parametrize("mode", [FIXED, ESTIMATED])
    def test_no_frozen_weight_is_the_full_kernel_solve(self, mode):
        gs = dense_system()
        bound = freeze_bound(gs)
        tuning = [0.0, 1.0, 50.0, 1e3, 0.5 * bound[4], bound[5]]
        nxt = gaga_step(state_with(tuning), gs, GagaConfig(variance_mode=mode), n_obs=40)
        beta, inv_diag = spd_solve_with_inverse_diagonal(gs.gram, tuning, gs.cross)
        assert np.array_equal(nxt.beta, beta)
        assert np.array_equal(nxt.inv_diag, inv_diag)

    def test_active_block_failure_reports_its_coordinate(self):
        # Columns 2 and 3 are equal and coordinate 0 is frozen, so the active
        # block [1, 2, 3] fails at its third pivot: coordinate 3, as in the
        # factorization of the whole system.
        rng = np.random.default_rng(30)
        x = rng.standard_normal((30, 4))
        x[:, 3] = x[:, 2]
        gs = build_gram(RegressionProblem(design=x, response=rng.standard_normal(30)))
        with pytest.raises(SingularSystem) as whole:
            spd_solve_with_inverse_diagonal(gs.gram, np.zeros(4), gs.cross)
        tuning = [1e3 * FREEZE_RATIO * np.max(gs.diagonal), 0.0, 0.0, 0.0]
        with pytest.raises(SingularSystem) as step:
            gaga_step(state_with(tuning), gs, GagaConfig(), n_obs=30)
        assert step.value.pivot == whole.value.pivot == 3


class TestVarianceEstimates:
    def test_em_orthonormal_hand_value(self):
        gs = orthonormal_gram(2, [0.0, 0.0], 4.0)
        state = SolverState(iteration=0, tuning=np.zeros(2), beta=np.zeros(2),
                            inv_diag=np.ones(2), variance=1.0)
        assert estimate_variance_em(state, gs, n=4) == pytest.approx(1.5)

    def test_em_is_residual_plus_posterior_spread(self):
        # noiseless data, unpenalized OLS: residual part is 0 and the trace
        # term contributes exactly tau^2 * p / n
        rng = np.random.default_rng(2)
        x = rng.standard_normal((20, 3))
        beta = rng.standard_normal(3)
        y = x @ beta
        pr = RegressionProblem(design=x, response=y)
        gs = build_gram(pr)
        ols = np.linalg.solve(gs.gram, gs.cross)
        inv_diag = np.diagonal(np.linalg.inv(gs.gram))
        state = SolverState(iteration=0, tuning=np.zeros(3), beta=ols,
                            inv_diag=inv_diag, variance=1.0)
        assert estimate_variance_em(state, gs, n=20) == pytest.approx(3 / 20, rel=1e-9)

    def test_em_matches_explicit_trace_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        pr = RegressionProblem(design=x, response=y)
        gs = build_gram(pr)
        b = rng.uniform(0.1, 2.0, 4)
        dmat = np.linalg.inv(gs.gram + np.diag(b))
        beta = dmat @ gs.cross
        tau = 0.7
        state = SolverState(iteration=0, tuning=b, beta=beta,
                            inv_diag=np.diagonal(dmat), variance=tau)
        oracle = (y @ y - 2 * beta @ gs.cross
                  + np.trace((np.outer(beta, beta) + tau * dmat) @ gs.gram)) / 15
        assert estimate_variance_em(state, gs, n=15) == pytest.approx(oracle, rel=1e-12)


class TestHardTruncate:
    # On an orthonormal design (X'X)^-1_jj = 1 and (X'X + B*)^-1_jj = 1/(1 + b*).

    def test_zero_tuning_keeps_everything(self):
        beta = np.array([0.1, -0.2, 0.0])
        est = hard_truncate(beta, np.zeros(3), 1.0, np.ones(3), np.ones(3))
        assert np.array_equal(est.coefficients, beta)
        # The support is the nonzero coefficients, so a kept exact zero is not in it.
        assert list(est.support) == [True, True, False]

    def test_orthonormal_hand_threshold(self):
        # b* = 3: threshold = 1 - 1/4 = 0.75
        est = hard_truncate(np.array([0.5, 1.0]), np.array([3.0, 3.0]), 1.0,
                            np.ones(2), np.full(2, 0.25))
        assert not est.support[0]  # 0.25 < 0.75
        assert est.support[1]      # 1.0 >= 0.75
        assert est.coefficients[0] == 0.0

    def test_variance_scales_threshold(self):
        # var = 2, b* = 3: threshold = 2 * 0.75 = 1.5
        est = hard_truncate(np.array([1.0, 1.5]), np.array([3.0, 3.0]), 2.0,
                            np.ones(2), np.full(2, 0.25))
        assert list(est.support) == [False, True]

    def test_zero_response_truncates_all(self):
        est = hard_truncate(np.zeros(2), np.array([5.0, 5.0]), 1.0,
                            np.ones(2), np.full(2, 1.0 / 6.0))
        assert not est.support.any()

    def test_singular_gram(self):
        gs = GramSystem(gram=np.zeros((2, 2)), cross=np.zeros(2), response_sq_norm=0.0)
        with pytest.raises(SingularSystem):
            fit_gram(gs, 10, GagaConfig())

    @pytest.mark.parametrize("mode", [FIXED, ESTIMATED])
    def test_unpenalized_inverse_diagonal_is_iteration_one(self, mode):
        # b starts at 0, so iteration 1 solves with X'X itself: its inverse
        # diagonal is the one the truncation needs, bit for bit.
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 5))
        y = x[:, 0] * 2 + rng.standard_normal(40)
        gs = build_gram(RegressionProblem(design=x, response=y))
        est = fit_gram(gs, 40, GagaConfig(variance_mode=mode, record_trace=True))
        zeros = np.zeros(5)
        _, unpenalized = spd_solve_with_inverse_diagonal(gs.gram, zeros, zeros)
        assert gs.gram.ndim == 2
        assert np.array_equal(est.trace[0].inv_diag, unpenalized)

    def test_fit_truncates_with_iteration_one_inverse_diagonal(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 6))
        y = x[:, :2] @ np.array([3.0, -2.0]) + rng.standard_normal(40)
        gs = build_gram(RegressionProblem(design=x, response=y))
        est = fit_gram(gs, 40, GagaConfig(record_trace=True))
        beta, inv_diag = spd_solve_with_inverse_diagonal(gs.gram, est.tuning, gs.cross)
        ref = hard_truncate(beta, est.tuning, 1.0, est.trace[0].inv_diag, inv_diag)
        assert np.array_equal(est.coefficients, ref.coefficients)
        assert np.array_equal(est.support, ref.support)


class TestGagaFit:
    def test_zero_response(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 3))
        pr = RegressionProblem(design=x, response=np.zeros(10))
        est = gaga_fit(pr, GagaConfig())
        assert np.array_equal(est.coefficients, np.zeros(3))
        assert not est.support.any()

    def test_first_iterate_is_ols(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 3))
        y = rng.standard_normal(12)
        pr = RegressionProblem(design=x, response=y)
        est = gaga_fit(pr, GagaConfig(iterations=1, record_trace=True))
        gs = build_gram(pr)
        ols = np.linalg.solve(gs.gram, gs.cross)
        assert np.allclose(est.trace[0].beta, ols, rtol=1e-10)

    def test_trace_holds_solver_states(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 3))
        pr = RegressionProblem(design=x, response=x[:, 0] + rng.standard_normal(12))
        est = gaga_fit(pr, GagaConfig(iterations=4, variance_mode=ESTIMATED,
                                      record_trace=True))
        assert [type(s) for s in est.trace] == [SolverState] * 4
        assert [s.iteration for s in est.trace] == [1, 2, 3, 4]
        last = est.trace[-1]
        assert np.array_equal(last.tuning / 2.0, est.tuning)
        assert last.beta.shape == (3,) and last.variance == est.estimated_variance
        assert last.variance_floored is False

    def test_noiseless_response_floors_the_variance(self):
        # With no residual the EM estimate falls towards 0; the floor
        # 1e-12 (y'y / n + 1) keeps it positive, and the state says so.
        x = np.random.default_rng(0).standard_normal((12, 3))
        y = x @ np.array([1.0, 0.0, 2.0])
        est = gaga_fit(RegressionProblem(design=x, response=y),
                       GagaConfig(variance_mode=ESTIMATED, record_trace=True))
        assert est.trace[-1].variance_floored is True
        assert est.estimated_variance == pytest.approx(1e-12 * (y @ y / 12 + 1.0), rel=1e-12)
        assert list(est.support) == [True, False, True]

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 5))
        y = rng.standard_normal(30)
        pr = RegressionProblem(design=x, response=y)
        a = gaga_fit(pr, GagaConfig(variance_mode=ESTIMATED))
        b = gaga_fit(pr, GagaConfig(variance_mode=ESTIMATED))
        assert np.array_equal(a.coefficients, b.coefficients)
        assert np.array_equal(a.tuning, b.tuning)
        assert a.estimated_variance == b.estimated_variance

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_threads_sharing_one_gram_system(self, order):
        # Above BLOCK a kernel call writes over one triangle and the diagonal
        # of the gram, and a fit reads the gram between its calls. So a fit
        # that finds its gram held by another thread's fit solves in a copy,
        # and each thread's fit is bit for bit its serial one. Three threads
        # that switch often make the fits overlap on any number of cores.
        problem = gen_highdim(0, 400, 300).problem
        built = build_gram(problem)
        gram = built.gram.copy()
        gs = GramSystem(gram=np.array(gram, order=order), cross=built.cross,
                        response_sq_norm=built.response_sq_norm)
        configs = [GagaConfig(alpha=2.0), GagaConfig(alpha=3.0, variance_mode=ESTIMATED),
                   GagaConfig(alpha=2.5, variance_mode=ESTIMATED)]
        serial = [fit_gram(gs, problem.n, c) for c in configs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                with ThreadPoolExecutor(len(configs)) as pool:
                    futures = [pool.submit(fit_gram, gs, problem.n, c) for c in configs]
                    fits = [f.result(timeout=60) for f in futures]
                for got, want in zip(fits, serial):
                    assert np.array_equal(got.coefficients, want.coefficients)
                    assert np.array_equal(got.tuning, want.tuning)
                    assert got.estimated_variance == want.estimated_variance
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(gs.gram, gram)
        assert not gaga.linalg._IN_USE

    def test_monotone_tuning_growth_below_threshold(self):
        # zero signal, z below threshold: tuning strictly increases until clamp
        sigma = np.array([2.0])
        gs = GramSystem(gram=np.diag(sigma), cross=np.array([0.5]), response_sq_norm=1.0)
        est = fit_gram(gs, 100, GagaConfig(iterations=60, record_trace=True))
        b = [rec.tuning[0] for rec in est.trace]
        clamp = 1e12 * 2.0
        below = [v for v in b if v < clamp]
        assert all(x < y for x, y in zip(below, below[1:]))

    def test_fixed_point_agreement_at_k200(self):
        from gaga.fixed_point import ScalarRegime, closed_form_fixed_point
        sigma, z = 1.5, 20.0
        gs = GramSystem(gram=np.diag([sigma]), cross=np.array([np.sqrt(z)]),
                        response_sq_norm=z / sigma + 1)
        est = fit_gram(gs, 100, GagaConfig(iterations=200, record_trace=True))
        b_final = est.trace[-1].tuning[0]
        b_star = closed_form_fixed_point(ScalarRegime.from_params(z, sigma, 2.0))
        assert abs(b_final - b_star) <= 1e-8

    def test_support_implies_zero_outside(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((50, 8))
        y = x[:, 0] * 3 + rng.standard_normal(50)
        est = gaga_fit(RegressionProblem(design=x, response=y), GagaConfig())
        assert np.all(est.coefficients[~est.support] == 0.0)
        assert np.all(est.tuning >= 0)

    def test_p_greater_than_n_raises(self):
        # b starts at 0, so the very first system is the singular X'X itself
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 9))
        y = rng.standard_normal(5)
        with pytest.raises(SingularSystem):
            gaga_fit(RegressionProblem(design=x, response=y), GagaConfig())

    def test_estimated_variance_recovers_noise_scale(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((400, 4))
        beta = np.array([3.0, 0.0, -2.0, 0.0])
        y = x @ beta + 2.0 * rng.standard_normal(400)  # tau^2 = 4
        est = gaga_fit(RegressionProblem(design=x, response=y),
                       GagaConfig(variance_mode=ESTIMATED))
        assert est.estimated_variance == pytest.approx(4.0, rel=0.3)


def huge_scale_problem(scale):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 5))
    y = x @ np.array([1.0, 2.0, 0.0, 0.0, 3.0]) + rng.standard_normal(50)
    return RegressionProblem(design=x * scale, response=y)


class TestWeightClampOverflow:
    """At max diag(X'X) >~ 1e297 the clamp 1e12 * max diag(X'X) is inf, and
    a fit would run its weights to inf (and 0 * inf = nan in the EM step)."""

    @pytest.mark.parametrize("scale", [1e148, 1e150])
    @pytest.mark.parametrize("mode", [FIXED, ESTIMATED])
    def test_plain_fit_raises_typed_error(self, scale, mode):
        with pytest.raises(GagaError, match=r"max diag\(X'X\)"):
            gaga_fit(huge_scale_problem(scale), GagaConfig(variance_mode=mode))

    def test_clamp_names_the_gram_scale(self):
        gs = build_gram(huge_scale_problem(1e150))
        with pytest.raises(InvalidInput, match=r"6\.89e\+301"):
            solver.resolve_tuning_clamp(GagaConfig(), gs)

    @pytest.mark.parametrize("scale", [1e148, 1e150])
    @pytest.mark.parametrize("mode", [FIXED, ESTIMATED])
    def test_qr_fit_unaffected(self, scale, mode):
        # its inner gram is the unit vector, so its clamp is 1e12
        est = gaga_qr_fit(huge_scale_problem(scale), GagaConfig(variance_mode=mode))
        assert np.array_equal(est.support, [True, True, False, False, True])
        assert np.all(np.isfinite(est.tuning)) and np.isfinite(est.estimated_variance)
        unscaled = gaga_qr_fit(huge_scale_problem(1.0), GagaConfig(variance_mode=mode))
        assert np.allclose(est.coefficients * scale, unscaled.coefficients, rtol=1e-12)


class TestConfigValidation:
    def test_alpha_must_exceed_one(self):
        with pytest.raises(InvalidInput):
            GagaConfig(alpha=1.0)

    def test_alpha_must_be_finite(self):
        # An infinite gain sets every weight to 0: an unpenalized fit that
        # truncates nothing.
        with pytest.raises(InvalidInput):
            GagaConfig(alpha=np.inf)

    def test_iterations_positive(self):
        with pytest.raises(InvalidInput):
            GagaConfig(iterations=0)

    @pytest.mark.parametrize("iterations", [2.5, np.nan, "3", None])
    def test_iterations_must_be_an_integer(self, iterations):
        with pytest.raises(InvalidInput, match="iterations must be an integer"):
            GagaConfig(iterations=iterations)

    @pytest.mark.parametrize("alpha", ["3", None, 3 + 0j])
    def test_alpha_must_be_a_real_number(self, alpha):
        with pytest.raises(InvalidInput, match="alpha must be a real number"):
            GagaConfig(alpha=alpha)

    def test_numpy_scalars_accepted(self):
        config = GagaConfig(iterations=np.int64(3), alpha=np.float32(2.5))
        assert gaga_fit(huge_scale_problem(1.0), config).coefficients.shape == (5,)

    def test_bad_mode(self):
        with pytest.raises(InvalidInput):
            GagaConfig(variance_mode="auto")

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_record_trace_must_be_a_bool(self, flag):
        # "false" is truthy, so taken as it is it would record a trace.
        with pytest.raises(InvalidInput, match="record_trace must be a bool"):
            GagaConfig(record_trace=flag)

    def test_numpy_bool_record_trace_accepted(self):
        est = gaga_fit(huge_scale_problem(1.0), GagaConfig(iterations=2, record_trace=np.True_))
        assert len(est.trace) == 2

    @pytest.mark.parametrize("design, response, error", [
        (np.ones(4), np.ones(4), DimensionError),
        (np.ones((4, 2)), np.ones((4, 1)), DimensionError),
        (np.ones((0, 2)), np.ones(0), InvalidInput),
        (np.ones((4, 0)), np.ones(4), InvalidInput),
    ])
    def test_problem_shape_rejected(self, design, response, error):
        with pytest.raises(error):
            RegressionProblem(design=design, response=response)

    def test_response_length_must_match_the_rows(self):
        with pytest.raises(DimensionError, match="response length 3 != row count 4"):
            RegressionProblem(design=np.ones((4, 2)), response=np.ones(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    @pytest.mark.parametrize("field", ["design", "response"])
    def test_non_finite_entry_rejected(self, field, position, value):
        arrays = dict(design=np.arange(15.0).reshape(5, 3), response=np.arange(5.0))
        flat = arrays[field].reshape(-1)
        flat[{"first": 0, "middle": flat.size // 2, "last": -1}[position]] = value
        with pytest.raises(InvalidInput, match="non-finite"):
            RegressionProblem(**arrays)

    @pytest.mark.parametrize("tuning, error", [
        (np.array([1.0, 2.0, 3.0]), DimensionError),
        (np.array([1.0, -2.0]), InvalidInput),
    ])
    def test_estimate_tuning_rejected(self, tuning, error):
        with pytest.raises(error):
            SignalEstimate(coefficients=np.array([1.0, 0.0]), tuning=tuning,
                           estimated_variance=1.0)

    def test_support_is_the_nonzero_coefficients(self):
        est = SignalEstimate(coefficients=np.array([1.0, 0.0, -0.0, -2.0]), tuning=np.zeros(4),
                             estimated_variance=1.0)
        assert list(est.support) == [True, False, False, True]
        with pytest.raises(AttributeError):
            est.support = np.ones(4, dtype=bool)

    @pytest.mark.parametrize("field, value", [
        ("coefficients", np.array([np.nan, 0.0])),
        ("tuning", np.array([1.0, np.inf])),
        ("estimated_variance", np.nan),
    ])
    def test_nonfinite_estimate_rejected(self, field, value):
        fields = dict(coefficients=np.array([1.0, 0.0]), tuning=np.array([1.0, 2.0]),
                      estimated_variance=1.0)
        fields[field] = value
        with pytest.raises(InvalidInput):
            SignalEstimate(**fields)
