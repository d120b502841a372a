"""Exact resource counts of one fit, read through the benchmark's own tracer.

Fit timings drift by about ten percent from run to run, so a small regression
in the work a fit does cannot be caught by timing. Call counts are exact: these
tests assert them as bounds. A change that lowers a count lowers its bound
here; a bound is never raised to let a change pass. A fit path that bypasses
the traced kernel fails the kernel-call equalities.
"""

import importlib.util
from pathlib import Path

import numpy as np

import gaga.cli  # with it, every module the tracer targets is loaded
import gaga.qr
import gaga.solver
from gaga import GagaConfig, RegressionProblem

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


def _traced_calls(fit):
    """Span call counts of one fit of ``_problem`` with K iterations."""
    problem = _problem()
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        est = fit(problem, GagaConfig(iterations=K))
    finally:
        tracer.uninstall()
    assert est.support.any()
    assert not tracer.absent
    return tracer.calls


def test_plain_fit_counts():
    calls = _traced_calls(gaga.solver.gaga_fit)
    assert calls["linalg.kernel"] == K + 1  # K iterations and the final solve
    assert calls["linalg.lapack.dpotrf"] <= K + 1
    assert calls["linalg.lapack.dtrtri"] <= K + 1
    assert calls["linalg.diag_check"] == 1


def test_qr_fit_counts():
    calls = _traced_calls(gaga.qr.gaga_qr_fit)
    assert calls["linalg.kernel"] == K + 2  # the OLS ordering, K iterations, final
    assert calls["linalg.lapack.dpotrf"] <= 1
    assert calls["linalg.lapack.dtrtri"] == 0
    assert calls["qr.lapack.dpotrf"] <= 1
