import numpy as np
import pytest

from gaga import InvalidCorrelation, InvalidSize
from gaga.datagen import (
    _open_uniform,
    correlated_gaussian_rows,
    gen_consistency,
    gen_highdim,
    gen_model1,
    gen_model2,
    gen_orthogonal,
    replicate_seed,
    stream_rng,
)


class TestCorrelatedRows:
    def test_identity_correlation_uncorrelated(self):
        x = correlated_gaussian_rows(np.eye(3), 10_000, stream_rng(0, "design"))
        corr = np.corrcoef(x, rowvar=False)
        off = corr - np.diag(np.diagonal(corr))
        assert np.abs(off).max() < 0.1

    def test_equicorrelation_half(self):
        c = np.array([[1.0, 0.5], [0.5, 1.0]])
        x = correlated_gaussian_rows(c, 10_000, stream_rng(1, "design"))
        corr = np.corrcoef(x, rowvar=False)
        assert abs(corr[0, 1] - 0.5) < 0.05

    def test_deterministic(self):
        a = correlated_gaussian_rows(np.eye(2), 50, stream_rng(3, "design"))
        b = correlated_gaussian_rows(np.eye(2), 50, stream_rng(3, "design"))
        assert np.array_equal(a, b)

    def test_non_pd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(InvalidCorrelation):
            correlated_gaussian_rows(bad, 10, stream_rng(0, "design"))

    @pytest.mark.parametrize("bad", [
        [[np.nan, 0.5], [0.5, 1.0]],
        [[1.0, np.nan], [np.nan, 1.0]],
        [[1.0, np.nan], [0.5, 1.0]],
        [[1.0, 0.5], [np.nan, 1.0]],
        [[np.inf, 0.0], [0.0, 1.0]],
        [[1.0, -np.inf], [-np.inf, 1.0]],
    ], ids=["nan diagonal", "nan off-diagonal", "nan upper", "nan lower",
            "inf diagonal", "-inf off-diagonal"])
    def test_non_finite_rejected(self, bad):
        # The factorization reads one triangle only, so a NaN in the other
        # would pass it unseen.
        with pytest.raises(InvalidCorrelation):
            correlated_gaussian_rows(np.array(bad), 10, stream_rng(0, "design"))

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.ones(3), np.ones((2, 2, 2))],
                             ids=["rectangular", "vector", "stack"])
    def test_non_square_rejected(self, bad):
        with pytest.raises(InvalidCorrelation):
            correlated_gaussian_rows(bad, 10, stream_rng(0, "design"))

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidSize):
            correlated_gaussian_rows(np.eye(2), -1, stream_rng(0, "design"))

    @pytest.mark.parametrize("p, n", [(0, 5), (3, 0), (0, 0)])
    def test_empty_design(self, p, n):
        x = correlated_gaussian_rows(np.eye(p), n, stream_rng(0, "design"))
        assert x.shape == (n, p)

    def test_matches_textbook_product(self):
        # The normals times the transposed Cholesky factor, as numpy spells
        # it; the triangular product sums the same terms in another order.
        n, p = 1000, 500
        corr = np.where(np.eye(p, dtype=bool), 1.0, 0.5)
        z = stream_rng(2, "design").standard_normal((n, p))
        expected = z @ np.linalg.cholesky(corr).T
        got = correlated_gaussian_rows(corr, n, stream_rng(2, "design"))
        assert got.flags.c_contiguous
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


class TestModel1:
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_shape_and_sparsity(self, seed):
        inst = gen_model1(seed)
        assert inst.problem.design.shape == (100, 8)
        assert np.array_equal(np.flatnonzero(inst.beta_true == 0), [2, 3, 5, 6, 7])
        nz = inst.beta_true[[0, 1, 4]]
        assert np.all((nz > 0) & (nz < 1))

    def test_seeds_give_different_draws(self):
        assert not np.array_equal(gen_model1(0).beta_true, gen_model1(1).beta_true)

    def test_bit_identical_regeneration(self):
        a, b = gen_model1(7), gen_model1(7)
        assert np.array_equal(a.problem.design, b.problem.design)
        assert np.array_equal(a.problem.response, b.problem.response)
        assert np.array_equal(a.beta_true, b.beta_true)

    def test_ar_correlation_structure(self):
        # empirical column correlations approach 0.5^|i-j| for large n;
        # pool many instances sharing the correlation model
        xs = np.vstack([gen_model1(s).problem.design for s in range(100)])
        corr = np.corrcoef(xs, rowvar=False)
        assert abs(corr[0, 1] - 0.5) < 0.05
        assert abs(corr[0, 2] - 0.25) < 0.05


class TestModel2:
    def test_block_pattern(self):
        inst = gen_model2(3)
        b = inst.beta_true
        assert inst.problem.design.shape == (100, 40)
        assert np.array_equal(b[:10], np.zeros(10))
        assert np.array_equal(b[20:30], np.zeros(10))
        assert len(set(b[10:20])) == 1
        assert len(set(b[30:40])) == 1
        assert 0 < b[10] < 1
        assert 10 < b[30] < 100


class TestHighDim:
    def test_dimensions_and_zero_count(self):
        inst = gen_highdim(0)
        assert inst.problem.design.shape == (1000, 500)
        assert int(np.sum(inst.beta_true == 0)) == 250
        nz = inst.beta_true[inst.beta_true != 0]
        assert np.all((nz > 0) & (nz < 5))

    @pytest.mark.parametrize("n, p", [(60, 21), (300, 40)])
    def test_other_size(self, n, p):
        inst = gen_highdim(5, n, p)
        assert inst.problem.design.shape == (n, p)
        assert int(np.sum(inst.beta_true == 0)) == p // 2
        corr = np.full((p, p), 0.5)
        np.fill_diagonal(corr, 1.0)
        expected = correlated_gaussian_rows(corr, n, stream_rng(5, "design"))
        assert np.array_equal(inst.problem.design, expected)

    def test_zero_positions_resampled(self):
        z0 = np.flatnonzero(gen_highdim(0).beta_true == 0)
        z1 = np.flatnonzero(gen_highdim(1).beta_true == 0)
        assert not np.array_equal(z0, z1)


class TestConsistency:
    @pytest.mark.parametrize("n", [30, 150])
    def test_dimensions(self, n):
        inst = gen_consistency(0, n)
        assert inst.problem.design.shape == (n, 8)
        assert int(np.sum(inst.beta_true == 0)) == 5

    def test_same_seed_same_pattern_across_n(self):
        a = gen_consistency(4, 30)
        b = gen_consistency(4, 150)
        assert np.array_equal(a.beta_true, b.beta_true)

    def test_too_small_n(self):
        with pytest.raises(InvalidSize):
            gen_consistency(0, 7)


class TestOrthogonal:
    def test_gram_structure(self):
        sigma_star = np.array([1.0, 2.0, 0.5])
        inst = gen_orthogonal(0, 100, 3, np.array([1.0, 0.0, -2.0]), sigma_star)
        g = inst.problem.design.T @ inst.problem.design
        off = g - np.diag(np.diagonal(g))
        assert np.abs(off).max() <= 1e-10 * np.abs(g).max()
        assert np.allclose(np.diagonal(g), 100 * sigma_star, rtol=1e-10)

    def test_square_case(self):
        inst = gen_orthogonal(1, 4, 4, np.zeros(4), np.ones(4))
        g = inst.problem.design.T @ inst.problem.design
        assert np.allclose(g, 4 * np.eye(4), atol=1e-10)

    def test_n_less_than_p(self):
        with pytest.raises(InvalidSize):
            gen_orthogonal(0, 2, 3, np.zeros(3), np.ones(3))


class TestOpenUniform:
    """A draw of exactly the lower endpoint (probability 2^-53) is redrawn."""

    class Stub:
        """Hands out the given draws in order, one array per ``uniform`` call."""

        def __init__(self, *draws):
            self.draws = list(draws)

        def uniform(self, low, high, size=None):
            return np.asarray(self.draws.pop(0), dtype=float)

    def test_endpoint_redrawn(self):
        rng = self.Stub([0.0, 0.3, 0.0], [0.9, 0.8, 0.0], [0.7, 0.6, 0.5])
        assert np.array_equal(_open_uniform(rng, 0.0, 1.0, size=3), [0.9, 0.3, 0.5])

    def test_scalar_endpoint_redrawn(self):
        assert _open_uniform(self.Stub(10.0, 42.0), 10.0, 100.0) == 42.0


class TestStreamsAndSeeds:
    def test_replicate_seed_pure_function(self):
        assert replicate_seed(5, 3) == replicate_seed(5, 3)
        assert replicate_seed(5, 3) != replicate_seed(5, 4)
        assert replicate_seed(6, 3) != replicate_seed(5, 3)

    def test_streams_independent(self):
        a = stream_rng(0, "design").standard_normal(5)
        b = stream_rng(0, "noise").standard_normal(5)
        assert not np.array_equal(a, b)

