"""Experiment runner: replicate loops over the simulated designs, metric
aggregation, empirical theory validation on orthogonal designs, and timing
benchmarks. The runners return rows; ``write_rows`` writes them as flat CSV,
and ``read_matrix`` reads the package's CSV input.
"""

import csv
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import datagen
from .datagen import GeneratedInstance, replicate_seed
from .errors import GagaError, InvalidInput
from .metrics import acc
from .qr import gaga_qr_fit
from .solver import gaga_fit
from .types import GagaConfig

CSV_COLUMNS = [
    "model_tag", "seed", "replicate", "estimator",
    "err", "acc", "tp", "tn", "fp", "fn", "wall_ms", "status",
]


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance
# ---------------------------------------------------------------------------

def ks_distance(sample) -> float:
    """One-sample KS distance of a sample against the standard normal."""
    # Imported here: loading scipy.special costs ~4 MB of resident memory,
    # which every experiment run would otherwise pay.
    from scipy.special import ndtr

    xs = np.sort(np.asarray(sample, dtype=float))
    n = xs.shape[0]
    if n == 0:
        raise InvalidInput("empty sample")
    cdf = ndtr(xs)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GagaEstimator:
    """A fit function under a CSV name; ``fit=None`` is ``gaga_fit``, looked
    up at each call."""

    config: GagaConfig = field(default_factory=GagaConfig)
    name: str = "gaga"
    fit: Optional[Callable] = None

    def coefficients(self, instance: GeneratedInstance, replicate: int):
        return (self.fit or gaga_fit)(instance.problem, self.config).coefficients


class ExternalEstimates:
    """Externally produced estimates, one coefficient row per replicate.

    The file is read by ``read_matrix``: rows ``replicate,b1,...,bp``, with an
    optional header and '#' comment lines anywhere. A comment may declare
    ``snap=<tol>`` to zero out entries with |v| <= tol.
    """

    def __init__(self, path, name="external"):
        self.name = name
        data, comments = read_matrix(path)
        snap = 0.0
        for text in comments:
            if "snap=" in text:
                snap = float(text.split("snap=", 1)[1].split(",")[0].strip())
        replicates, vals = data[:, 0], data[:, 1:]
        if np.any(replicates % 1 != 0):
            raise InvalidInput(f"{path}: replicate numbers must be integers")
        reps, counts = np.unique(replicates, return_counts=True)
        if np.any(counts > 1):
            raise InvalidInput(f"{path}: replicate {int(reps[counts > 1][0])} is repeated")
        vals[np.abs(vals) <= snap] = 0.0
        self._rows = {int(r): v for r, v in zip(replicates, vals)}

    def coefficients(self, instance: GeneratedInstance, replicate: int):
        if replicate not in self._rows:
            raise InvalidInput(f"no external estimate for replicate {replicate}")
        return self._rows[replicate]


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    model: str
    replicates: int
    estimators: tuple
    base_seed: int = 0
    model_params: dict = field(default_factory=dict)
    sample_sizes: Optional[tuple] = None
    record_timing: bool = False

    def __post_init__(self):
        if self.replicates < 1:
            raise InvalidInput("replicates must be >= 1")
        if not self.estimators:
            raise InvalidInput("need at least one estimator")
        names = [estimator.name for estimator in self.estimators]
        if len(set(names)) < len(names):
            raise InvalidInput(f"estimator names must differ, got {','.join(names)}")


def generate_instance(model: str, seed: int, **params) -> GeneratedInstance:
    """One instance of a ``datagen.MODELS`` model, given exactly the
    parameters that model takes."""
    if model not in datagen.MODELS:
        raise InvalidInput(f"unknown model {model!r}")
    generator, needs = datagen.MODELS[model]
    if set(params) != set(needs):
        raise InvalidInput(f"model {model!r} needs {','.join(needs) or 'no parameter'}, "
                           f"got {','.join(sorted(params)) or 'none'}")
    return getattr(datagen, generator)(seed, **params)


def _run_replicate(spec: ExperimentSpec, replicate: int):
    seed = replicate_seed(spec.base_seed, replicate)
    instance = generate_instance(spec.model, seed, **spec.model_params)
    rows = []
    for estimator in spec.estimators:
        row = dict.fromkeys(CSV_COLUMNS, "")
        row.update(model_tag=instance.model_tag, seed=seed, replicate=replicate,
                   estimator=estimator.name, status="ok")
        try:
            start = time.perf_counter()
            coef = estimator.coefficients(instance, replicate)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            report = acc(coef, instance.beta_true)
        except (GagaError, np.linalg.LinAlgError) as exc:
            row["status"] = type(exc).__name__
        else:
            row.update(
                err=report.err, acc=report.acc,
                tp=report.true_positives, tn=report.true_negatives,
                fp=report.false_positives, fn=report.false_negatives,
            )
            if spec.record_timing:
                row["wall_ms"] = elapsed_ms
        rows.append(row)
    return rows


def _summary_rows(spec: ExperimentSpec, data_rows):
    columns = ["err", "acc", "tp", "tn", "fp", "fn"] + (["wall_ms"] if spec.record_timing else [])
    out = []
    for estimator in spec.estimators:
        ok = [r for r in data_rows
              if r["estimator"] == estimator.name and r["status"] == "ok"]
        for kind, stat in (("mean", statistics.fmean), ("std", statistics.pstdev)):
            row = dict.fromkeys(CSV_COLUMNS, "")
            row.update(model_tag=spec.model, replicate=kind,
                       estimator=estimator.name, status="summary")
            if ok:
                for col in columns:
                    row[col] = stat([float(r[col]) for r in ok])
            out.append(row)
    return out


def read_matrix(path):
    """The numeric rows of a CSV file as a 2-D array, and its comment lines.

    A line whose first non-blank character is '#' is a comment wherever it
    appears, and blank lines are skipped. The first remaining line is a
    header, and is skipped, unless every field of it parses as a number.
    """
    lines, comments = [], []
    for line in Path(path).read_text().splitlines():
        if line.lstrip().startswith("#"):
            comments.append(line)
        elif line.strip():
            lines.append(line)
    try:
        [float(v) for v in lines[0].split(",")]
    except (IndexError, ValueError):
        lines = lines[1:]  # a header row, or no line at all
    if not lines:
        raise InvalidInput(f"{path} has no data rows")
    return np.loadtxt(lines, delimiter=",", ndmin=2), comments


def write_rows(path, rows, columns=CSV_COLUMNS):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k, "")) for k in columns})


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


def run_experiment(spec: ExperimentSpec):
    """The rows of every (replicate, estimator) cell, then the per-estimator
    summary rows (columns ``CSV_COLUMNS``)."""
    rows = [row for r in range(spec.replicates) for row in _run_replicate(spec, r)]
    rows.extend(_summary_rows(spec, rows))
    return rows


SWEEP_COLUMNS = ["sample_size", "estimator", "mean_err", "mean_acc", "replicates"]


def run_consistency_sweep(spec: ExperimentSpec):
    """One averaged (err, acc) row per (sample size, estimator) (columns
    ``SWEEP_COLUMNS``): ``spec.model`` is run with n set to each sample size."""
    if not spec.sample_sizes:
        raise InvalidInput("sweep needs sample_sizes")
    if "n" in spec.model_params:
        raise InvalidInput("a sweep sets n from sample_sizes; remove n from the config")
    out = []
    for n in spec.sample_sizes:
        sub = replace(spec, model_params={**spec.model_params, "n": int(n)},
                      record_timing=False)
        rows = run_experiment(sub)
        for row in rows:
            if row["status"] == "summary" and row["replicate"] == "mean":
                out.append({
                    "sample_size": int(n), "estimator": row["estimator"],
                    "mean_err": row["err"], "mean_acc": row["acc"],
                    "replicates": spec.replicates,
                })
    return out


# ---------------------------------------------------------------------------
# Theory validation on orthogonal designs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremValidationReport:
    truncation_rate_zero_coef: float
    retention_rate_nonzero_coef: float
    normality_statistic: float
    tuning_limit_error: float
    sample_size: int
    replicates: int
    zero_positions: int
    zero_truncated: int
    nonzero_positions: int
    nonzero_retained: int


def validate_theorems(n, replicates, beta_star, sigma_star, config=GagaConfig(),
                      base_seed=0) -> TheoremValidationReport:
    """Empirical rates on exactly orthogonal designs: how often zero
    coefficients are truncated, how often nonzero ones survive, the KS
    distance of the standardized nonzero-coordinate errors from N(0,1), and
    the median gap between the final tuning weight and its large-sample limit."""
    if replicates < 1:
        raise InvalidInput(f"replicates must be >= 1, got {replicates}")
    beta_star = np.asarray(beta_star, dtype=float)
    sigma_star = np.asarray(sigma_star, dtype=float)
    p = beta_star.shape[0]
    zero_mask = beta_star == 0.0
    nonzero_mask = ~zero_mask
    zero_truncated = 0
    nonzero_retained = 0
    standardized = []
    tuning_errors = []
    for rep in range(replicates):
        seed = replicate_seed(base_seed, rep)
        inst = datagen.gen_orthogonal(seed, n, p, beta_star, sigma_star)
        est = gaga_fit(inst.problem, config)
        zero_truncated += int(np.sum(~est.support[zero_mask]))
        nonzero_retained += int(np.sum(est.support[nonzero_mask]))
        diffs = est.coefficients[nonzero_mask] - beta_star[nonzero_mask]
        standardized.extend(
            math.sqrt(n) * math.sqrt(s) * d
            for s, d in zip(sigma_star[nonzero_mask], diffs)
        )
        limits = 1.0 / beta_star[nonzero_mask] ** 2
        tuning_errors.extend(np.abs(est.tuning[nonzero_mask] - limits))
    zero_total = int(np.sum(zero_mask)) * replicates
    nonzero_total = int(np.sum(nonzero_mask)) * replicates
    # A rate over an empty class of coefficients was not measured: nan, not 0.
    return TheoremValidationReport(
        truncation_rate_zero_coef=(zero_truncated / zero_total) if zero_total else math.nan,
        retention_rate_nonzero_coef=(nonzero_retained / nonzero_total) if nonzero_total else math.nan,
        normality_statistic=ks_distance(standardized) if standardized else math.nan,
        tuning_limit_error=float(np.median(tuning_errors)) if tuning_errors else math.nan,
        sample_size=int(n),
        replicates=int(replicates),
        zero_positions=zero_total,
        zero_truncated=zero_truncated,
        nonzero_positions=nonzero_total,
        nonzero_retained=nonzero_retained,
    )


# ---------------------------------------------------------------------------
# Timing benchmark
# ---------------------------------------------------------------------------

BENCH_COLUMNS = ["p", "n", "estimator", "mean_s", "median_s", "repeats"]


def benchmark_timing(dimensions, n, repeats, config=GagaConfig(), base_seed=0):
    """Mean/median wall-clock per fit for the plain and QR solvers on
    ``datagen.gen_highdim(seed, n, p)`` at each p (columns ``BENCH_COLUMNS``)."""
    if repeats < 1:
        raise InvalidInput(f"repeats must be >= 1, got {repeats}")
    rows = []
    for p in dimensions:
        if p > n:
            raise InvalidInput(f"need p <= n, got p={p}, n={n}")
        times = {"gaga": [], "gaga_qr": []}
        for rep in range(repeats):
            problem = datagen.gen_highdim(replicate_seed(base_seed, rep), n, p).problem
            for name, fit in (("gaga", gaga_fit), ("gaga_qr", gaga_qr_fit)):
                start = time.perf_counter()
                fit(problem, config)
                times[name].append(time.perf_counter() - start)
        for name in ("gaga", "gaga_qr"):
            rows.append({
                "p": int(p), "n": int(n), "estimator": name,
                "mean_s": statistics.fmean(times[name]),
                "median_s": statistics.median(times[name]),
                "repeats": int(repeats),
            })
    return rows
