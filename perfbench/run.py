#!/usr/bin/env python3
"""Benchmark of the gaga package, driven from outside the program.

    python3 perfbench/run.py --workload {dense_plain,dense_qr,replicates} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
./src and from nowhere else, so a directory without the sources fails with a
nonzero exit. Each run is a closed loop, one caller in one process, with the
BLAS thread count fixed at one before numpy loads. Inputs are
made from --seed through public ``gaga.datagen`` functions; the program only
receives the generated inputs. ``gaga.fixed_point`` (the scalar oracle of the
tests) is on no workload's path and is not measured.

With --trace 0 the run measures the end-to-end metrics for --seconds. With
--trace 1 it measures the per-layer metrics of ``layers.py``: half of
--seconds with the tracer installed, half without (for the tracing overhead),
then input 0 in a child process at min(2, usable cores) BLAS threads (for
the thread speed-up).

Every operation's output is checked (see NOTES.md). The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the lines before it
give the environment and each metric by name and unit. The exit code is 1
when any check failed, 2 when the package cannot be loaded.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

sys.dont_write_bytecode = True  # leave no __pycache__ behind in the checkout

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

WORKLOADS = ("dense_plain", "dense_qr", "replicates")
DENSE_P = {"dense_plain": 1000, "dense_qr": 2000}
DENSE_N = 4000
ROUNDS = 3          # set-up rounds per run; each makes one input and runs it once
MODEL = "highdim"   # the `gaga experiment` model of the replicates workload
REPLICATES = 4      # per invocation, two estimators each
DEFAULT_SEED = 0    # the seed whose outputs are kept in reference/
COEF_TOL = 1e-8     # |coef - reference| <= COEF_TOL * max(1, max |reference|)
ERR_TOL = 1e-8      # relative tolerance on a replicate row's err
PROBE_OPS = 2       # operations on input 0 in the multi-thread rerun
# One BLAS thread: on a 2-core shared host, five seeds of dense_qr spread 7%
# (IQR/median) at two threads against 3% at one. The traced run reruns input 0
# at min(2, usable cores) threads to give the thread speed-up.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "fits_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "mean_acc": "ratio",
    "mean_err": "l2",
    "ok_frac": "ratio",
}


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the multi-thread child of a traced run.
    ap.add_argument("--blas-threads", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_gaga():
    sys.path.insert(0, str(SRC))
    import gaga
    import gaga.cli
    import gaga.datagen
    import gaga.harness
    import gaga.linalg
    import gaga.metrics
    import gaga.qr
    import gaga.solver
    if Path(gaga.__file__).resolve().parent != SRC / "gaga":
        raise ImportError(f"gaga was loaded from {gaga.__file__}, not from {SRC}")
    return gaga


# ---------------------------------------------------------------------------
# Workloads. generate(i) makes input i, call(i) runs one operation on it and
# returns the program's output, check(i, out) raises CheckFailed or returns
# the number of fits the operation made.
# ---------------------------------------------------------------------------

def dense_instance(datagen, seed, n, p):
    """The criterion-8 design: equicorrelation 0.5, half of beta zero at random
    positions, the rest U(0, 5), unit noise."""
    import numpy as np
    corr = np.full((p, p), 0.5)
    np.fill_diagonal(corr, 1.0)
    x = datagen.correlated_gaussian_rows(corr, n, datagen.stream_rng(seed, "design"))
    beta = np.zeros(p)
    nonzero = datagen.stream_rng(seed, "support").choice(p, size=p // 2, replace=False)
    beta[nonzero] = datagen.stream_rng(seed, "coefficients").uniform(0.0, 5.0, size=p // 2)
    y = x @ beta + datagen.stream_rng(seed, "noise").standard_normal(n)
    return x, y, beta


class Dense:
    """gaga_fit (dense_plain) or gaga_qr_fit (dense_qr) on a pool of inputs."""

    def __init__(self, gaga, name, seed, tracer, reference):
        import numpy as np
        self.np, self.gaga, self.seed, self.tracer = np, gaga, seed, tracer
        self.p = DENSE_P[name]
        self.qr = name == "dense_qr"
        self.config = gaga.GagaConfig(iterations=50, alpha=2.0)  # fixed variance
        self.problems, self.truth, self.first = [], [], []
        self.reference = None
        if reference:
            with np.load(REFERENCE / f"{name}.npz") as ref:
                self.reference = {k: ref[k] for k in ref.files}

    @property
    def inputs(self):
        return len(self.problems)

    def generate(self, i):
        if self.tracer:
            self.tracer.enter("datagen.generate")
        try:
            seed = self.gaga.datagen.replicate_seed(self.seed, i)
            x, y, beta = dense_instance(self.gaga.datagen, seed, DENSE_N, self.p)
            problem = self.gaga.RegressionProblem(design=x, response=y)
        finally:
            if self.tracer:
                self.tracer.exit()
        self.problems.append(problem)
        self.truth.append(beta)
        self.first.append(None)

    def call(self, i):
        fit = self.gaga.qr.gaga_qr_fit if self.qr else self.gaga.solver.gaga_fit
        return fit(self.problems[i], self.config)

    def check(self, i, est):
        np = self.np
        coef = np.asarray(est.coefficients, dtype=float)
        support = np.asarray(est.support, dtype=bool)
        if coef.shape != (self.p,) or support.shape != (self.p,):
            raise CheckFailed(f"output shape {coef.shape}, expected ({self.p},)")
        if not np.all(np.isfinite(coef)):
            raise CheckFailed("non-finite coefficient")
        if np.any(coef[~support] != 0.0):
            raise CheckFailed("nonzero coefficient off the support")
        if self.first[i] is None:
            self.first[i] = (coef, support)
            if self.reference is not None and f"coef{i}" in self.reference:
                self._compare(coef, support, self.reference[f"coef{i}"],
                              self.reference[f"support{i}"], "reference")
        else:
            self._compare(coef, support, *self.first[i], "first run of this input")
        return 1

    def _compare(self, coef, support, ref_coef, ref_support, what):
        np = self.np
        if not np.array_equal(support, ref_support):
            raise CheckFailed(f"support differs from the {what} at "
                              f"{int(np.sum(support != ref_support))} positions")
        gap = float(np.max(np.abs(coef - ref_coef), initial=0.0))
        if gap > COEF_TOL * max(1.0, float(np.max(np.abs(ref_coef), initial=0.0))):
            raise CheckFailed(f"coefficients differ from the {what} by {gap:.3e}")

    def quality(self):
        """Mean support accuracy and Euclidean error over the distinct inputs."""
        np = self.np
        accs, errs = [], []
        for first, beta in zip(self.first, self.truth):
            if first is not None:
                coef = first[0]
                accs.append(float(np.mean((coef != 0.0) == (beta != 0.0))))
                errs.append(float(np.linalg.norm(coef - beta)))
        return accs, errs

    def datagen_check(self):
        """Input 0 must equal the harness's own criterion-8 generator bit for
        bit while that generator exists."""
        np = self.np
        highdim_like = getattr(self.gaga.harness, "_highdim_like", None)
        if highdim_like is None:
            return "skipped (harness._highdim_like is gone)"
        seed = self.gaga.datagen.replicate_seed(self.seed, 0)
        theirs = highdim_like(seed, DENSE_N, self.p)
        ours = self.problems[0]
        if not (np.array_equal(theirs.design, ours.design)
                and np.array_equal(theirs.response, ours.response)):
            raise CheckFailed("inputs differ from harness._highdim_like")
        return "bit-identical to harness._highdim_like"


class Replicates:
    """In-process `gaga experiment` invocations on the highdim model (n=1000,
    p=500), estimators gaga and gaga_qr, estimated variance, 4 replicates.
    Input i is the config with base seed replicate_seed(seed, i); every
    input costs the same."""

    fits_per_invocation = 2 * REPLICATES

    def __init__(self, gaga, seed, work, reference):
        self.gaga, self.seed, self.work = gaga, seed, work
        self.first = []
        self.reference = reference

    @property
    def inputs(self):
        return len(self.first)

    def generate(self, i):
        """Write config i (the harness makes the data itself)."""
        base_seed = self.gaga.datagen.replicate_seed(self.seed, i)
        (self.work / f"input{i}.cfg").write_text(
            f"model = {MODEL}\nestimators = gaga,gaga_qr\n"
            f"variance_mode = estimated\nreplicates = {REPLICATES}\n"
            f"base_seed = {base_seed}\n")
        self.first.append(None)

    def call(self, i):
        csv_path = self.work / f"input{i}.csv"
        if csv_path.exists():
            csv_path.unlink()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.gaga.cli.main(["experiment", "--config",
                                       str(self.work / f"input{i}.cfg"),
                                       "--out", str(csv_path)])
        return code, err.getvalue(), csv_path

    def check(self, i, result):
        code, err, csv_path = result
        if code != 0 or "error kind=" in err:
            raise CheckFailed(f"gaga experiment exited {code}: {err.strip()[:200]}")
        data = csv_path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        fits = [r for r in rows if r["status"] != "summary"]
        if len(fits) != self.fits_per_invocation or len(rows) != len(fits) + 4:
            raise CheckFailed(f"{len(fits)} fit rows and {len(rows)} rows")
        for r in fits:
            if r["status"] != "ok":
                raise CheckFailed(f"replicate {r['replicate']}: status {r['status']}")
            tp, tn, fp, fn = (int(r[k]) for k in ("tp", "tn", "fp", "fn"))
            e, a = float(r["err"]), float(r["acc"])
            if not (math.isfinite(e) and e >= 0.0 and a == (tp + tn) / (tp + tn + fp + fn)):
                raise CheckFailed(f"replicate {r['replicate']}: inconsistent row")
        if self.first[i] is None:
            self.first[i] = (data, fits)
            if self.reference:
                self._compare_reference(i, fits)
        elif data != self.first[i][0]:
            raise CheckFailed(f"input {i}: CSV differs from its first invocation")
        return len(fits)

    def _compare_reference(self, i, fits):
        with open(REFERENCE / f"replicates_input{i}.csv", newline="") as fh:
            ref = [r for r in csv.DictReader(fh) if r["status"] != "summary"]
        if len(ref) != len(fits):
            raise CheckFailed(f"input {i}: {len(fits)} rows, reference has {len(ref)}")
        for r, q in zip(fits, ref):
            same = all(r[k] == q[k] for k in ("replicate", "estimator", "seed", "status",
                                                 "tp", "tn", "fp", "fn"))
            e, qe = float(r["err"]), float(q["err"])
            if not same or abs(e - qe) > ERR_TOL * max(1.0, qe):
                raise CheckFailed(f"input {i} replicate {r['replicate']} {r['estimator']}: "
                                  f"differs from the reference")

    def quality(self):
        rows = [r for first in self.first if first is not None for r in first[1]]
        return [float(r["acc"]) for r in rows], [float(r["err"]) for r in rows]

    def datagen_check(self):
        return "not applicable (the harness generates its own inputs)"


def make_workload(gaga, name, seed, work, tracer, reference):
    if name == "replicates":
        return Replicates(gaga, seed, work, reference)
    return Dense(gaga, name, seed, tracer, reference)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class Runner:
    """Runs and checks operations, and counts attempts and failures."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, i):
        """One checked operation on input i; returns (wall s, CPU s, fits)."""
        self.attempted += 1
        tracer = self.tracer
        start, cpu = perf_counter(), process_time()
        try:
            if tracer:
                tracer.enter("op")
                try:
                    out = self.workload.call(i)
                finally:
                    tracer.exit()
            else:
                out = self.workload.call(i)
            elapsed, cpu = perf_counter() - start, process_time() - cpu
            return elapsed, cpu, self.workload.check(i, out)
        except Exception as exc:  # every failure is counted and reported
            self.failed += 1
            self.failures.append(f"input {i}: {type(exc).__name__}: {exc}")
            return perf_counter() - start, process_time() - cpu, 0

    def setup(self, rounds):
        """Make inputs 0..rounds-1 and run each once; returns each round's time."""
        times = []
        for i in range(rounds):
            start = perf_counter()
            self.workload.generate(i)
            self.op(i)
            times.append(perf_counter() - start)
        return times

    def loop(self, seconds):
        """Closed loop over the inputs, from input 0, for `seconds`; returns
        (wall time per op, CPU time per op, fits, wall time of the loop)."""
        times, cpus, fits, k = [], [], 0, 0
        start = perf_counter()
        deadline = start + seconds
        while True:
            dt, cpu, n = self.op(k % self.workload.inputs)
            times.append(dt)
            cpus.append(cpu)
            fits += n
            k += 1
            if perf_counter() >= deadline:
                return times, cpus, fits, perf_counter() - start


def tail_percentile(times):
    """(percentile, value) for the highest of 75/90/95/99/99.9 with at least
    ten samples beyond it, or None."""
    n = len(times)
    best = None
    for q in (75, 90, 95, 99, 99.9):
        if n * (1 - q / 100) >= 10:
            best = (q, statistics.quantiles(times, n=1000, method="inclusive")[int(q * 10) - 1])
    return best


def environment(threads):
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {}
    for lib in (numpy, scipy):
        try:
            info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[lib.__name__] = f"{info.get('name')} {info.get('version')}"
        except Exception:  # the build record is informational only
            blas[lib.__name__] = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def multi_thread_probe(args, threads):
    """Child-process run of input 0 at `threads` BLAS threads; returns its op times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--blas-threads", str(threads), "--probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise CheckFailed(f"multi-thread rerun failed: {done.stderr.strip()[-300:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["op_s"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = parse_args(argv)
    threads = args.blas_threads or BLAS_THREADS
    for var in BLAS_ENV:
        os.environ[var] = str(threads)

    start = perf_counter()
    try:
        gaga = import_gaga()
    except ImportError as exc:
        print(f"perfbench: cannot load gaga from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - start
    import layers

    tracer = layers.Tracer() if args.trace and not args.probe else None
    if tracer:
        tracer.install()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        workload = make_workload(gaga, args.workload, args.seed, Path(work), tracer,
                                 reference=args.seed == DEFAULT_SEED)
        runner = Runner(workload, tracer)

        if args.probe:
            runner.setup(1)
            times = [runner.op(0)[0] for _ in range(PROBE_OPS)]
            if runner.failed:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            print(json.dumps({"op_s": times}))
            return 0

        rounds = runner.setup(ROUNDS)
        setup_s = import_s + statistics.median(rounds)
        try:
            datagen_note = workload.datagen_check()
        except CheckFailed as exc:
            runner.failed += 1
            runner.failures.append(str(exc))
            datagen_note = f"FAILED: {exc}"

        if tracer:
            metrics, units, detail = traced_run(args, runner, tracer, layers)
        else:
            metrics, units, detail = untraced_run(args, runner, setup_s)

    env = environment(threads)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}: set-up rounds {[round(t, 4) for t in rounds]} s, "
          f"import {import_s:.4f} s; inputs {datagen_note}")
    for line in detail:
        print(line)
    for line in runner.failures:
        print(f"FAILED {line}")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {units[name]}")
    correct = runner.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def untraced_run(args, runner, setup_s):
    times, cpus, fits, wall = runner.loop(args.seconds)
    accs, errs = runner.workload.quality()
    metrics = {
        "fits_per_s": fits / wall,
        "op_p50_s": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "mean_acc": statistics.fmean(accs) if accs else None,
        "mean_err": statistics.fmean(errs) if errs else None,
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    tail = tail_percentile(times)
    detail = [
        f"timed loop: {len(times)} operations, {fits} fits in {wall:.3f} s; "
        f"op p50 {metrics['op_p50_s']:.4f} s over {len(times)} samples, "
        + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
           "no percentile above p50 has 10 samples beyond it"),
        "op times (s): " + " ".join(f"{t:.3f}" for t in times)
        + f"; process CPU time / wall time {sum(cpus) / sum(times):.3f}",
        f"failed_frac {runner.failed / runner.attempted:.6g} "
        f"({runner.failed} of {runner.attempted} operations, set-up included)",
    ]
    return metrics, END_TO_END, detail


def traced_run(args, runner, tracer, layers):
    gen_s = tracer.total["datagen.generate"]
    gen_n = tracer.calls["datagen.generate"]
    tracer.reset()
    half = args.seconds / 2.0
    _, _, traced_fits, traced_wall = runner.loop(half)
    loop_gen_n = tracer.calls["datagen.generate"]
    gen_s += tracer.total["datagen.generate"]
    gen_n += loop_gen_n
    op_s = tracer.total["op"]
    tracer.uninstall()
    runner.tracer = None
    times, _, fits, wall = runner.loop(half)
    overhead = 1.0 - (traced_fits / traced_wall) / (fits / wall) if fits else None

    # The untraced loop starts at input 0, so every inputs-th op ran input 0.
    speedup, threads = None, min(2, len(os.sched_getaffinity(0)))
    try:
        many = multi_thread_probe(args, threads)
        speedup = statistics.median(times[::runner.workload.inputs]) / statistics.median(many)
    except (CheckFailed, subprocess.SubprocessError, ValueError, KeyError) as exc:
        runner.failed += 1
        runner.failures.append(str(exc))

    metrics = tracer.metrics(traced_fits, gen_s, gen_n, loop_gen_n, overhead, speedup, op_s) \
        if traced_fits else dict.fromkeys(layers.PER_LAYER)
    detail = [f"traced loop: {traced_fits} fits in {traced_wall:.3f} s; "
              f"untraced loop: {fits} fits in {wall:.3f} s; "
              f"thread speed-up: input 0 at 1 vs {threads} BLAS threads"]
    if tracer.absent:
        detail.append("absent symbols (their metrics are null): " + ", ".join(sorted(tracer.absent)))
    errors = {k: v for k, v in tracer.count.items() if k.startswith("hook_error.")}
    if errors:
        detail.append(f"trace hooks that could not read a call: {errors}")
    return metrics, layers.PER_LAYER, detail


if __name__ == "__main__":
    sys.exit(main())
