"""Reproducible synthetic designs for the simulation protocol and the
orthogonal-design theory suites.

All randomness flows through counter-based Philox generators keyed by
(seed, stream). Separate named streams feed the design rows, the coefficient
draws, the support positions and the noise, so changing one draw never shifts
the others. Per-replicate seeds come from
``numpy.random.SeedSequence([base_seed, replicate]).generate_state(1)``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import InvalidCorrelation, InvalidInput, InvalidSize
from .types import RegressionProblem

MODEL1 = "model1"
MODEL2 = "model2"
HIGHDIM = "highdim"
CONSISTENCY = "consistency"

_STREAMS = {"design": 0, "coefficients": 1, "noise": 2, "support": 3}


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Philox generator for one named substream of a seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_STREAMS[stream],))
    return np.random.Generator(np.random.Philox(ss))


def replicate_seed(base_seed: int, replicate: int) -> int:
    """Derived per-replicate seed, a pure function of (base_seed, replicate)."""
    return int(np.random.SeedSequence([int(base_seed), int(replicate)]).generate_state(1)[0])


@dataclass(frozen=True)
class GeneratedInstance:
    problem: RegressionProblem
    beta_true: np.ndarray
    model_tag: str
    seed: int


def _open_uniform(rng, low, high, size=None):
    # Redraw exact endpoint hits so a "nonzero" coefficient can never be 0.
    v = rng.uniform(low, high, size=size)
    while np.any(v == low):
        mask = v == low
        v = np.where(mask, rng.uniform(low, high, size=np.shape(v)), v)
    return v


def correlated_gaussian_rows(correlation, n: int, rng) -> np.ndarray:
    """n i.i.d. zero-mean Gaussian rows with the given correlation matrix,
    which is left as it is."""
    return _rows(np.array(correlation, dtype=float, order="C"), n, rng)


def _rows(correlation, n, rng):
    """``correlated_gaussian_rows`` of a C-order float matrix, which is
    overwritten by its Cholesky factor L. Holds one n x p output and L: the
    normals z are drawn straight into the output x, whose transpose is the
    Fortran-order z', and ``dtrmm`` overwrites that with L z', so x becomes
    z L'."""
    if correlation.ndim != 2 or correlation.shape[0] != correlation.shape[1]:
        raise InvalidCorrelation(f"correlation matrix must be square, not {correlation.shape}")
    if not np.isfinite(correlation).all():
        raise InvalidCorrelation("correlation matrix has a non-finite entry")
    if n < 0:
        raise InvalidSize(f"need n >= 0, got {n}")
    chol, info = lapack.dpotrf(correlation.T, lower=1, clean=1, overwrite_a=1)
    # A factor entry that overflowed leaves a NaN pivot, which LAPACK passes.
    if info != 0 or not np.isfinite(np.diagonal(chol)).all():
        raise InvalidCorrelation("correlation matrix is not positive definite")
    x = rng.standard_normal((n, correlation.shape[0]))
    return blas.dtrmm(1.0, chol, x.T, lower=1, overwrite_b=1).T


def _assemble(seed, model_tag, x, beta):
    noise = stream_rng(seed, "noise").standard_normal(x.shape[0])
    y = x @ beta + noise
    return GeneratedInstance(
        problem=RegressionProblem(design=x, response=y),
        beta_true=beta,
        model_tag=model_tag,
        seed=int(seed),
    )


def gen_model1(seed: int) -> GeneratedInstance:
    """n=100, p=8, AR(0.5) predictor correlation, three U(0,1) nonzeros at
    positions 1, 2 and 5 (1-based)."""
    n, p, rho = 100, 8, 0.5
    corr = rho ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    x = correlated_gaussian_rows(corr, n, stream_rng(seed, "design"))
    vals = _open_uniform(stream_rng(seed, "coefficients"), 0.0, 1.0, size=3)
    beta = np.zeros(p)
    beta[[0, 1, 4]] = vals
    return _assemble(seed, MODEL1, x, beta)


def _equicorrelation(p: int) -> np.ndarray:
    return np.where(np.eye(p, dtype=bool), 1.0, 0.5)


def gen_model2(seed: int) -> GeneratedInstance:
    """n=100, p=40, equicorrelation 0.5; four blocks of 10:
    zeros, U(0,1) repeated, zeros, U(10,100) repeated."""
    n, p = 100, 40
    x = _rows(_equicorrelation(p), n, stream_rng(seed, "design"))
    crng = stream_rng(seed, "coefficients")
    b1 = float(_open_uniform(crng, 0.0, 1.0))
    b2 = float(_open_uniform(crng, 10.0, 100.0))
    beta = np.concatenate([np.zeros(10), np.full(10, b1), np.zeros(10), np.full(10, b2)])
    return _assemble(seed, MODEL2, x, beta)


def gen_highdim(seed: int, n: int = 1000, p: int = 500) -> GeneratedInstance:
    """Equicorrelation 0.5; p // 2 randomly placed zeros, the rest U(0,5)."""
    x = _rows(_equicorrelation(p), n, stream_rng(seed, "design"))
    zero_pos = stream_rng(seed, "support").choice(p, size=p // 2, replace=False)
    beta = _open_uniform(stream_rng(seed, "coefficients"), 0.0, 5.0, size=p)
    beta[zero_pos] = 0.0
    return _assemble(seed, HIGHDIM, x, beta)


def gen_consistency(seed: int, n: int) -> GeneratedInstance:
    """p=8 i.i.d. standard-normal predictors, three U(0,1) nonzeros at random
    positions. The coefficient pattern depends only on the seed, so the same
    seed with different n reuses the pattern on fresh rows."""
    p, nonzeros = 8, 3
    if n < p:
        raise InvalidSize(f"need n >= {p}, got {n}")
    pos = stream_rng(seed, "support").choice(p, size=nonzeros, replace=False)
    vals = _open_uniform(stream_rng(seed, "coefficients"), 0.0, 1.0, size=nonzeros)
    beta = np.zeros(p)
    beta[pos] = vals
    x = stream_rng(seed, "design").standard_normal((n, p))
    return _assemble(seed, CONSISTENCY, x, beta)


# Experiment models: name -> (generator name, parameters after the seed). The
# generator is looked up on this module at each call, so that a wrapper
# installed here (the benchmark's per-layer tracer) sees every instance.
MODELS = {
    MODEL1: ("gen_model1", ()),
    MODEL2: ("gen_model2", ()),
    HIGHDIM: ("gen_highdim", ()),
    CONSISTENCY: ("gen_consistency", ("n",)),
}


def gen_orthogonal(seed: int, n: int, p: int, beta_true, sigma_star) -> GeneratedInstance:
    """Exactly column-orthogonal design with column squared norms n*sigma_star_j."""
    beta_true = np.asarray(beta_true, dtype=float)
    sigma_star = np.asarray(sigma_star, dtype=float)
    if n < p:
        raise InvalidSize(f"need n >= p, got n={n}, p={p}")
    if beta_true.shape != (p,) or sigma_star.shape != (p,):
        raise InvalidInput("beta_true/sigma_star must have length p")
    if np.any(sigma_star <= 0):
        raise InvalidInput("sigma_star must be positive")
    g = stream_rng(seed, "design").standard_normal((n, p))
    q, r = np.linalg.qr(g, mode="reduced")
    q *= np.where(np.diagonal(r) < 0, -1.0, 1.0)
    q *= np.sqrt(n * sigma_star)
    return _assemble(seed, "orthogonal", q, beta_true)

