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

from .errors import InvalidCorrelation, InvalidInput, InvalidSize
from .linalg import blas, lapack
from .types import RegressionProblem, integral

MODEL1 = "model1"
MODEL2 = "model2"
HIGHDIM = "highdim"
CONSISTENCY = "consistency"

_STREAMS = {"design": 0, "coefficients": 1, "noise": 2, "support": 3}


def _seed(value, name) -> int:
    """``value`` as an int, or ``InvalidInput`` when it is not a non-negative
    integer (``SeedSequence`` takes no negative entropy)."""
    value = integral(value, name)
    if value < 0:
        raise InvalidInput(f"{name} must be non-negative, got {value}")
    return value


def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Philox generator for one named substream of a seed."""
    ss = np.random.SeedSequence(entropy=_seed(seed, "seed"), spawn_key=(_STREAMS[stream],))
    return np.random.Generator(np.random.Philox(ss))


def replicate_seed(base_seed: int, replicate: int) -> int:
    """Derived per-replicate seed, a pure function of (base_seed, replicate)."""
    entropy = [_seed(base_seed, "base_seed"), _seed(replicate, "replicate")]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


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
    which is left as it is and is read in place: a non-finite entry raises
    ``InvalidCorrelation``. An equicorrelation matrix (unit diagonal, every
    other entry equal) takes the closed form of ``_equicorrelated_rows``;
    any other is factored by ``_cholesky_rows``."""
    correlation = np.asarray(correlation, dtype=float)
    if correlation.ndim != 2 or correlation.shape[0] != correlation.shape[1]:
        raise InvalidCorrelation(f"correlation matrix must be square, not {correlation.shape}")
    # NaN and +-inf carry through min and max, which need no p x p temporary.
    if correlation.size and not (np.isfinite(correlation.min())
                                 and np.isfinite(correlation.max())):
        raise InvalidCorrelation("correlation matrix has a non-finite entry")
    p = correlation.shape[0]
    if p >= 2 and _is_equicorrelation(correlation):
        return _equicorrelated_rows(correlation[0, 1], p, n, rng)
    return _cholesky_rows(np.array(correlation, order="C"), n, rng)


def _check_rows(n):
    if integral(n, "n") < 0:
        raise InvalidSize(f"need n >= 0, got {n}")


def _is_equicorrelation(c) -> bool:
    """Whether the p x p matrix c (p >= 2) has a unit diagonal and every
    off-diagonal entry equal. Reads a C- or Fortran-contiguous c in place:
    after its first entry, its memory in rows of p + 1 starts each row with
    p off-diagonal entries and ends it with a diagonal one."""
    p = c.shape[0]
    diagonal = np.diagonal(c)
    if diagonal.min() != 1.0 or diagonal.max() != 1.0:
        return False
    off = np.ravel(c, order="A")[1:].reshape(p - 1, p + 1)[:, :p]
    return off.min() == off.max()


def _equicorrelated_rows(rho, p, n, rng):
    """``correlated_gaussian_rows`` of the equicorrelation matrix
    (1 - rho) I + rho 11' in O(np) time, holding the n x p output and one
    block of 2^15 running sums. Column j of its Cholesky factor L is c_j
    below the diagonal. With m_j = 1 + j rho, ``dpotrf``'s recursion
    s_(j+1) = s_j + c_j^2 solves to L_jj^2 = 1 - s_j = (1 - rho) m_j / m_(j-1)
    and c_j = (rho - s_j) / L_jj = rho (1 - rho) / (m_(j-1) L_jj), which do
    not cancel as s_j nears rho: they stay within a few ulps of the exact
    factor where the recursion loses digits (rho near 1). Row i of z L' is
    the running sum x_ij = L_jj z_ij + sum_(k<j) c_k z_ik. The normals are
    drawn into the output a block of rows at a time, the same draws as one
    ``standard_normal((n, p))``."""
    _check_rows(n)
    m = 1.0 + np.arange(-1, p) * rho  # m_(j-1) for j = 0..p, so m[0] = 1 - rho
    if not (rho < 1 and m[-1] > 0):
        raise InvalidCorrelation("correlation matrix is not positive definite")
    diag = np.sqrt((1 - rho) * m[1:] / m[:-1])
    below = rho * (1 - rho) / m[:-1] / diag
    below[p - 1:] = 0.0  # L has no c_(p-1); a large one would cost the last column digits
    diag -= below  # x_ij = (L_jj - c_j) z_ij + sum_(k<=j) c_k z_ik
    x = np.empty((n, p))
    rows = max(1, 2 ** 15 // max(p, 1))  # a block of sums that stays in cache
    buffer = np.empty((min(n, rows), p))
    for start in range(0, n, rows):
        block = x[start:start + rows]
        sums = buffer[:block.shape[0]]
        rng.standard_normal(out=block)
        np.cumsum(np.multiply(block, below, out=sums), axis=1, out=sums)
        block *= diag
        block += sums
    return x


def _cholesky_rows(correlation, n, rng):
    """``correlated_gaussian_rows`` of any square, finite C-order float
    matrix, which is overwritten by its Cholesky factor L. Holds one n x p
    output and L: the normals z are drawn straight into the output x, whose
    transpose is the Fortran-order z', and ``dtrmm`` overwrites that with
    L z', so x becomes z L'."""
    _check_rows(n)
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
        seed=seed,
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


def gen_model2(seed: int) -> GeneratedInstance:
    """n=100, p=40, equicorrelation 0.5; four blocks of 10:
    zeros, U(0,1) repeated, zeros, U(10,100) repeated."""
    n, p = 100, 40
    x = _equicorrelated_rows(0.5, p, n, stream_rng(seed, "design"))
    crng = stream_rng(seed, "coefficients")
    b1 = float(_open_uniform(crng, 0.0, 1.0))
    b2 = float(_open_uniform(crng, 10.0, 100.0))
    beta = np.concatenate([np.zeros(10), np.full(10, b1), np.zeros(10), np.full(10, b2)])
    return _assemble(seed, MODEL2, x, beta)


def gen_highdim(seed: int, n: int = 1000, p: int = 500) -> GeneratedInstance:
    """Equicorrelation 0.5; p // 2 randomly placed zeros, the rest U(0,5)."""
    if integral(p, "p") < 0:
        raise InvalidSize(f"need p >= 0, got {p}")
    x = _equicorrelated_rows(0.5, p, n, stream_rng(seed, "design"))
    zero_pos = stream_rng(seed, "support").choice(p, size=p // 2, replace=False)
    beta = _open_uniform(stream_rng(seed, "coefficients"), 0.0, 5.0, size=p)
    beta[zero_pos] = 0.0
    return _assemble(seed, HIGHDIM, x, beta)


def gen_consistency(seed: int, n: int) -> GeneratedInstance:
    """p=8 i.i.d. standard-normal predictors, three U(0,1) nonzeros at random
    positions. The coefficient pattern depends only on the seed, so the same
    seed with different n reuses the pattern on fresh rows."""
    p, nonzeros = 8, 3
    if integral(n, "n") < p:
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
    """Column-orthogonal design with column squared norms n*sigma_star_j, up to
    roundoff: X'X is not exactly diagonal, so fits on it factorize."""
    beta_true = np.asarray(beta_true, dtype=float)
    sigma_star = np.asarray(sigma_star, dtype=float)
    if integral(p, "p") < 0 or integral(n, "n") < p:
        raise InvalidSize(f"need p >= 0 and n >= p, got n={n}, p={p}")
    if beta_true.shape != (p,) or sigma_star.shape != (p,):
        raise InvalidInput("beta_true/sigma_star must have length p")
    if not (sigma_star > 0).all():
        raise InvalidInput("sigma_star must be positive")
    g = stream_rng(seed, "design").standard_normal((n, p))
    q, r = np.linalg.qr(g, mode="reduced")
    q *= np.where(np.diagonal(r) < 0, -1.0, 1.0)
    q *= np.sqrt(n * sigma_star)
    return _assemble(seed, "orthogonal", q, beta_true)

