"""Exact resource counts of one fit, read through the benchmark's own tracer,
and the memory peak of one generated design.

Fit timings drift by about ten percent from run to run, so a small regression
in the work a fit does cannot be caught by timing. Call counts are exact: these
tests assert them as bounds. A change that lowers a count lowers its bound
here; a bound is never raised to let a change pass. A fit path that bypasses
the traced kernel fails the kernel-call equalities.
"""

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gaga.cli  # with it, every module the tracer targets is loaded
import gaga.linalg
import gaga.qr
import gaga.solver
from gaga import GagaConfig, RegressionProblem
from gaga.datagen import correlated_gaussian_rows, gen_highdim, stream_rng

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
K = 50


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problem(n=60, p=20):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, p))
    beta = np.zeros(p)
    beta[: p // 4] = rng.uniform(1.0, 3.0, p // 4)
    return RegressionProblem(design=x, response=x @ beta + rng.standard_normal(n))


def _traced(fit):
    """The tracer after one fit of ``_problem`` with K iterations."""
    problem = _problem()
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        est = fit(problem, GagaConfig(iterations=K))
    finally:
        tracer.uninstall()
    assert est.support.any()
    assert not tracer.absent
    return tracer


def test_plain_fit_counts():
    tracer = _traced(gaga.solver.gaga_fit)
    calls = tracer.calls
    assert calls["linalg.kernel"] == K + 1  # K iterations and the final solve
    assert calls["linalg.lapack.dpotrf"] <= K + 1
    assert calls["linalg.lapack.dtrtri"] <= K + 1
    assert calls["linalg.diag_check"] == 1
    # Textbook LAPACK flops: K + 1 full p x p solves would cost 312,800.
    # Coordinates whose weight diverged leave the factorization, in the
    # iterations and in the final solve.
    p = _problem().p
    full_system = (K + 1) * (2 * p ** 3 / 3 + 2 * p * p)
    assert tracer.count["linalg_flop"] <= 170_202 < full_system


def _peak_per_gram(problem):
    """tracemalloc's peak during one fit, in units of a p x p float array.
    tracemalloc sees numpy's allocations; a warm-up fit keeps one-time
    allocations out of the peak."""
    gaga.solver.gaga_fit(problem, GagaConfig(iterations=K))
    tracemalloc.start()
    try:
        gaga.solver.gaga_fit(problem, GagaConfig(iterations=K))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * problem.p ** 2)


def test_plain_fit_peak_memory():
    # About 4.39 p x p: a 60x20 fit is mostly small arrays, the gram and the
    # kernel's one gather of the active block, which it factorizes in place.
    assert _peak_per_gram(_problem()) <= 4.4


def test_plain_fit_peak_memory_above_block():
    # About 1.82 p x p at p = 256, where p x p arrays dominate: the gram, the
    # kernel's three quadrants of the active block, each gathered once from
    # the gram, and the smaller copies of its recursion. The unblocked
    # kernel's peak was 2.57.
    problem = _problem(n=400, p=256)
    assert problem.p > gaga.linalg.BLOCK
    assert _peak_per_gram(problem) <= 1.82


def test_correlated_design_peak_memory():
    # About 1.0002 of n*p + p*p floats at 2000 x 300: the n x p output, into
    # which the normals are drawn and which the triangular product
    # overwrites, and the p x p Cholesky factor. Normals in an array of their
    # own and a product out of place read 1.87.
    n, p = 2000, 300
    corr = np.where(np.eye(p, dtype=bool), 1.0, 0.5)
    correlated_gaussian_rows(corr, n, stream_rng(0, "design"))  # warm-up
    rng = stream_rng(0, "design")
    tracemalloc.start()
    try:
        correlated_gaussian_rows(corr, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * (n * p + p * p)


def test_highdim_design_peak_memory():
    # About 1.0002 of n*p + p*p floats at 2000 x 300, as for a caller-held
    # matrix above: the generator factors its own equicorrelation matrix in
    # place, so it is gone before the normals are drawn. Kept beside its
    # factor's copy, it read 1.13.
    n, p = 2000, 300
    gen_highdim(0, n, p)  # warm-up
    tracemalloc.start()
    try:
        gen_highdim(0, n, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * (n * p + p * p)


def test_qr_fit_counts():
    calls = _traced(gaga.qr.gaga_qr_fit).calls
    assert calls["linalg.kernel"] == K + 2  # the OLS ordering, K iterations, final
    assert calls["linalg.lapack.dpotrf"] <= 1
    assert calls["linalg.lapack.dtrtri"] == 0
    assert calls["qr.lapack.dpotrf"] <= 1


@pytest.mark.parametrize("module, name", [("gaga.solver", "gaga_fit"),
                                          ("gaga.qr", "gaga_qr_fit")])
def test_per_layer_record_has_no_null(module, name):
    """The benchmark's per-layer record of a traced fit holds a finite number
    for every metric; a null there costs the run its result line. A metric
    reads null when its symbol is gone, and also when a fit makes no call it
    can see: ``linalg.gflops`` needs a LAPACK call through ``gaga.linalg``
    (the QR variant's one is its least-squares ordering), and
    ``solver.clamped_frac`` needs the fit called through its wrapper, so the
    fit is looked up after ``install()``."""
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        tracer.enter("datagen.generate")
        problem = _problem()
        tracer.exit()
        fit = getattr(sys.modules[module], name)
        tracer.enter("op")
        fit(problem, GagaConfig(iterations=K))
        tracer.exit()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1, tracer.total["datagen.generate"], 1, 0,
                             overhead_frac=0.0, blas_thread_speedup=1.0,
                             op_s=tracer.total["op"])
    assert [k for k, v in metrics.items() if v is None] == []
    json.dumps(metrics, allow_nan=False)
