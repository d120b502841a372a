"""The selection floor that the scalar theory predicts for the matrix solver.

In the scalar recursion of ``gaga.fixed_point`` a coordinate's weight
converges, so the coordinate is kept, when z/sigma reaches
``convergence_threshold(alpha, 1)`` = (2a-1) + 2 sqrt(a(a-1)). A zero
coefficient's z/sigma is chi-squared with one degree of freedom under fixed
unit variance, so at a fixed alpha each zero coordinate is kept with
probability P(chi2_1 > t(alpha)), whatever n is: selection has a
false-positive floor set by alpha. These tests check that the plain fit on
correlated AR(rho) designs meets that floor, and that it misses none of the
large coefficients: with the variance fixed at the true 1, and with noise of
sd 2 and the variance estimated, where z is measured against the estimate.
A fit that keeps sigma^2 at 1 there keeps about 23% of the zero coordinates.
"""

import math

import numpy as np
import pytest

from gaga import ESTIMATED, GagaConfig, RegressionProblem, gaga_fit
from gaga.datagen import correlated_gaussian_rows, stream_rng
from gaga.fixed_point import convergence_threshold

ALPHA = 2.0
BETA = np.array([3.0, 1.5, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0])
N = 200
RHOS = (0.0, 0.5)
SEEDS = 1000  # per rho
ESTIMATED_SEEDS = 250  # per rho, with noise sd 2 and the variance estimated
SE_BOUND = 4.0


def _fit_supports(rho, seeds=SEEDS, noise_sd=1.0, config=GagaConfig(alpha=ALPHA)):
    """The fitted support of each seed's AR(rho) problem, one row per seed.
    The default config fixes the variance at the true one."""
    p = BETA.size
    corr = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    supports = []
    for seed in range(seeds):
        x = correlated_gaussian_rows(corr, N, stream_rng(seed, "design"))
        y = x @ BETA + noise_sd * stream_rng(seed, "noise").standard_normal(N)
        supports.append(gaga_fit(RegressionProblem(design=x, response=y), config).support)
    return np.array(supports)


@pytest.fixture(scope="module")
def supports():
    return np.concatenate([_fit_supports(rho) for rho in RHOS])


@pytest.fixture(scope="module")
def estimated_supports():
    config = GagaConfig(alpha=ALPHA, variance_mode=ESTIMATED)
    return np.concatenate([_fit_supports(rho, ESTIMATED_SEEDS, 2.0, config) for rho in RHOS])


def _assert_at_the_floor(supports):
    kept_zeros = supports[:, BETA == 0]
    trials = kept_zeros.size
    predicted = math.erfc(math.sqrt(convergence_threshold(ALPHA, 1.0) / 2))  # P(chi2_1 > t)
    assert predicted == pytest.approx(0.01577, abs=1e-5)
    rate = kept_zeros.mean()
    z = (rate - predicted) / math.sqrt(predicted * (1 - predicted) / trials)
    assert abs(z) <= SE_BOUND, f"false-positive rate {rate:.5f}, predicted {predicted:.5f}, z={z:.2f}"


def test_false_positive_rate_matches_the_scalar_floor(supports):
    _assert_at_the_floor(supports)


def test_no_false_negatives(supports):
    assert supports[:, BETA != 0].all()


def test_false_positive_floor_under_estimated_variance(estimated_supports):
    _assert_at_the_floor(estimated_supports)


def test_no_false_negatives_under_estimated_variance(estimated_supports):
    assert estimated_supports[:, BETA != 0].all()
