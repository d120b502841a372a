import math

import numpy as np
import pytest

from gaga import InvalidAlpha, InvalidInput
from gaga.fixed_point import (
    CONVERGENT,
    DIVERGENT,
    UNDECIDED,
    ScalarRegime,
    asymptotic_tuning_limit,
    classify_trajectory,
    closed_form_fixed_point,
    convergence_threshold,
    map_value,
)


class TestMapValue:
    def test_direct_values(self):
        r = ScalarRegime.from_params(0.0, 1.0, 2.0)
        assert map_value(0.0, r) == 2.0
        r = ScalarRegime.from_params(10.0, 1.0, 2.0)
        assert map_value(0.0, r) == pytest.approx(2.0 / 11.0)

    @pytest.mark.parametrize("z,sigma,alpha", [(0.0, 1.0, 2.0), (10.0, 1.0, 2.0),
                                               (3.0, 0.5, 1.5), (50.0, 4.0, 3.0)])
    def test_strictly_increasing(self, z, sigma, alpha):
        r = ScalarRegime.from_params(z, sigma, alpha)
        xs = np.linspace(0.0, 20.0, 200)
        h = 1e-6
        slopes = [(map_value(x + h, r) - map_value(x, r)) / h for x in xs]
        assert min(slopes) > 0


class TestThreshold:
    def test_alpha2_sigma1(self):
        assert convergence_threshold(2.0, 1.0) == pytest.approx(3 + 2 * math.sqrt(2))

    def test_scales_linearly_in_sigma(self):
        assert convergence_threshold(2.0, 10.0) == pytest.approx(10 * (3 + 2 * math.sqrt(2)))

    def test_discriminant_vanishes_at_threshold(self):
        alpha, sigma = 2.0, 1.0
        z = convergence_threshold(alpha, sigma)
        disc = (z - (2 * alpha - 1) * sigma) ** 2 - 4 * alpha * (alpha - 1) * sigma**2
        assert abs(disc) <= 1e-9 * z * z

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            convergence_threshold(1.0, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_invalid_sigma(self, sigma):
        with pytest.raises(InvalidInput):
            convergence_threshold(2.0, sigma)


class TestClosedForm:
    def test_is_fixed_point(self):
        r = ScalarRegime.from_params(10.0, 1.0, 2.0)
        b = closed_form_fixed_point(r)
        assert b == pytest.approx((7 - math.sqrt(41)) / 2)
        assert map_value(b, r) == pytest.approx(b, rel=1e-12)
        # independent oracle: iterate the map from 0 until fixed
        x = 0.0
        for _ in range(10_000):
            nxt = map_value(x, r)
            if abs(nxt - x) < 1e-13:
                break
            x = nxt
        assert b == pytest.approx(x, abs=1e-10)

    def test_negative_z_rejected(self):
        with pytest.raises(InvalidInput):
            ScalarRegime.from_params(-1.0, 1.0, 2.0)

    @pytest.mark.parametrize("z", [1e4, 1e6, 1e8, 1e10])
    def test_matches_the_converged_iterate_for_large_z(self, z):
        # The root near alpha sigma^2 / z is a difference of two numbers near z
        # in the textbook form, which kept 2.1e-9 of its digits at z = 1e4 and
        # returned 0.0 at 1e10, where the map converges to 2.0e-10.
        r = ScalarRegime.from_params(z, 1.0, 2.0)
        label, traj = classify_trajectory(r, 1000)
        assert label == CONVERGENT
        assert closed_form_fixed_point(r) == pytest.approx(traj[-1], rel=1e-12, abs=0)

    def test_largest_z_keeps_its_root(self):
        r = ScalarRegime.from_params(1e308, 1.0, 2.0)
        assert closed_form_fixed_point(r) == pytest.approx(2e-308, rel=1e-12, abs=0)

    def test_boundary_value(self):
        alpha, sigma = 2.0, 1.0
        z = convergence_threshold(alpha, sigma)
        r = ScalarRegime.from_params(z, sigma, alpha)
        assert closed_form_fixed_point(r) == pytest.approx(math.sqrt(alpha / (alpha - 1)) * sigma)

    def test_below_threshold_absent(self):
        r = ScalarRegime.from_params(5.0, 1.0, 2.0)
        assert closed_form_fixed_point(r) is None
        assert classify_trajectory(r, 500)[0] == DIVERGENT


class TestClassify:
    def test_max_iter_below_one_rejected(self):
        with pytest.raises(InvalidInput):
            classify_trajectory(ScalarRegime.from_params(10.0, 1.0, 2.0), 0)

    def test_convergent(self):
        r = ScalarRegime.from_params(10.0, 1.0, 2.0)
        label, traj = classify_trajectory(r, 500)
        assert label == CONVERGENT
        assert traj[-1] == pytest.approx(0.298437881, abs=1e-6)

    def test_zero_z_diverges_geometrically(self):
        r = ScalarRegime.from_params(0.0, 1.0, 2.0)
        label, traj = classify_trajectory(r, 500)
        assert label == DIVERGENT
        # recursion is b <- 2(1+b) when z=0, sigma=1, alpha=2
        for prev, nxt in zip(traj, traj[1:]):
            assert nxt == pytest.approx(2 * (1 + prev))

    def test_trajectory_strictly_increasing(self):
        for z in (0.0, 2.0, 10.0, 100.0):
            r = ScalarRegime.from_params(z, 1.0, 2.0)
            _, traj = classify_trajectory(r, 200)
            diffs = np.diff(traj)
            assert np.all(diffs > 0)

    def test_boundary_sweep(self):
        alpha, sigma = 2.0, 1.0
        thr = convergence_threshold(alpha, sigma)
        above = classify_trajectory(ScalarRegime.from_params(thr * (1 + 1e-6), sigma, alpha), 10_000)[0]
        below = classify_trajectory(ScalarRegime.from_params(thr * (1 - 1e-6), sigma, alpha), 10_000)[0]
        assert above in (CONVERGENT, UNDECIDED)
        assert below in (DIVERGENT, UNDECIDED)
        assert (above, below) != (CONVERGENT, CONVERGENT)

    def test_threshold_dichotomy_sampled(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sigma = rng.uniform(0.5, 5.0)
            alpha = rng.uniform(1.2, 4.0)
            thr = convergence_threshold(alpha, sigma)
            z = rng.uniform(0, 3 * thr)
            if abs(z - thr) <= 1e-6 * thr:
                continue
            label, _ = classify_trajectory(ScalarRegime.from_params(z, sigma, alpha), 50_000)
            if label == CONVERGENT:
                assert z >= thr * (1 - 1e-9)
            elif label == DIVERGENT:
                assert z <= thr * (1 + 1e-9)

    def test_closed_form_iteration_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sigma = rng.uniform(0.5, 5.0)
            alpha = rng.uniform(1.5, 3.0)
            thr = convergence_threshold(alpha, sigma)
            z = thr * rng.uniform(1.05, 5.0)
            r = ScalarRegime.from_params(z, sigma, alpha)
            label, traj = classify_trajectory(r, 50_000)
            assert label == CONVERGENT
            assert traj[-1] == pytest.approx(closed_form_fixed_point(r), abs=1e-8)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInput:
    """Every input of the oracle gives a finite output or a typed error."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["z", "sigma"])
    def test_regime_rejects_non_finite(self, name, value):
        params = {"z": 10.0, "sigma": 1.0, "alpha": 2.0, name: value}
        with pytest.raises(InvalidInput, match=f"{name} must be"):
            ScalarRegime.from_params(**params)

    @pytest.mark.parametrize("alpha", NON_FINITE)
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(InvalidAlpha):
            convergence_threshold(alpha, 1.0)
        with pytest.raises(InvalidAlpha):
            ScalarRegime.from_params(10.0, 1.0, alpha)
        with pytest.raises(InvalidAlpha):
            asymptotic_tuning_limit(1.0, alpha)

    @pytest.mark.parametrize("sigma", [math.inf, -math.inf])
    def test_infinite_sigma_threshold(self, sigma):
        # Named as a bad sigma, not as the overflow it would also cause.
        with pytest.raises(InvalidInput, match="sigma must be"):
            convergence_threshold(2.0, sigma)

    @pytest.mark.parametrize("beta_star", NON_FINITE)
    def test_non_finite_coefficient(self, beta_star):
        with pytest.raises(InvalidInput):
            asymptotic_tuning_limit(beta_star, 2.0)

    @pytest.mark.parametrize("beta_star", [1e-200, -1e-170, 5e-324, 1e-154])
    def test_underflowing_square(self, beta_star):
        # beta_star^2 is 0.0 in floating point, so alpha / beta_star^2 would
        # divide by zero, or (at 1e-154) a subnormal that the division
        # overflows to inf.
        with pytest.raises(InvalidInput, match="underflows"):
            asymptotic_tuning_limit(beta_star, 2.0)

    @pytest.mark.parametrize("alpha, sigma", [(2.0, 1e308), (2.0, 4e307), (1e200, 1.0)])
    def test_overflowing_threshold(self, alpha, sigma):
        # Finite inputs whose threshold ((2a - 1) + 2 sqrt(a(a - 1))) sigma,
        # or a(a - 1) on the way, is above the largest double.
        with pytest.raises(InvalidInput, match="overflows"):
            convergence_threshold(alpha, sigma)
        with pytest.raises(InvalidInput, match="overflows"):
            ScalarRegime.from_params(10.0, sigma, alpha)

    def test_large_regime_converges_without_overflow(self):
        # (x + sigma)^2 overflows at sigma = 1e200, but the step does not
        # square it: z is above the threshold (9.9e200), so the iterates
        # converge, to the closed form.
        r = ScalarRegime.from_params(1e300, 1e200, 3.0)
        label, traj = classify_trajectory(r, 100)
        assert label == CONVERGENT
        assert all(math.isfinite(b) for b in traj)
        assert traj[-1] == pytest.approx(closed_form_fixed_point(r), rel=1e-12)

    def test_large_regime_diverges(self):
        # z = 0 is below the threshold (5.8e305), so the iterates grow until
        # they overflow. 1e3 thresholds is above the largest double, so the
        # escape test divides b by 1e3 rather than multiply the threshold.
        label, traj = classify_trajectory(ScalarRegime.from_params(0.0, 1e305, 2.0), 100)
        assert label == DIVERGENT
        assert len(traj) < 101

    def test_small_coefficient_keeps_a_finite_limit(self):
        assert asymptotic_tuning_limit(1e-150, 2.0) == pytest.approx(2e300, rel=1e-15)


class TestAsymptoticLimit:
    def test_values(self):
        assert asymptotic_tuning_limit(2.0, 2.0) == 0.5
        assert asymptotic_tuning_limit(1.0, 2.0) == 2.0

    def test_zero_coefficient_rejected(self):
        with pytest.raises(InvalidInput):
            asymptotic_tuning_limit(0.0, 2.0)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            asymptotic_tuning_limit(1.0, 1.0)


def test_threshold_event_frequency_trends_with_sample_size():
    # z = (a'y)^2 with a'y ~ N(sigma*beta, sigma), sigma = n*sigma_star;
    # frequency of {z < threshold} should rise toward 1 for beta=0 and fall
    # toward 0 for beta != 0 as n grows, with alpha = max(2, sqrt(log n)).
    rng = np.random.default_rng(42)
    reps = 2000
    freqs_zero, freqs_nonzero = [], []
    for n in (100, 1000, 10_000):
        alpha = max(2.0, math.sqrt(math.log(n)))
        sigma = n * 1.0
        thr = convergence_threshold(alpha, sigma)
        for beta, sink in ((0.0, freqs_zero), (1.0, freqs_nonzero)):
            draws = sigma * beta + math.sqrt(sigma) * rng.standard_normal(reps)
            sink.append(float(np.mean(draws**2 < thr)))
    assert freqs_zero[0] <= freqs_zero[1] <= freqs_zero[2]
    assert freqs_nonzero[0] >= freqs_nonzero[1] >= freqs_nonzero[2]
    assert freqs_zero[-1] > 0.9
    assert freqs_nonzero[-1] < 0.1
