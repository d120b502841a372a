"""Outside-in per-layer trace of the gaga package.

The tracer wraps public functions of the gaga modules, and the LAPACK entry
points the package reaches through the ``lapack`` attribute of ``gaga.linalg``
and ``gaga.qr``. Nothing inside the package is edited: a wrapper is installed
by rebinding every ``gaga.*`` module attribute that refers to the original
object, and ``uninstall`` puts the originals back. A target the package no
longer defines is recorded as absent, and every metric built on it is reported
as ``None`` (JSON ``null``); the tracer never raises because a symbol is gone.

Each wrapper records a span: total time, self time (the part of its interval
that no child span covers) and a call count. Spans are kept as running sums in
memory. Counts that come from array sizes (flop, bytes) are computed, not
measured; their units end in ``-calc``.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute) -> span name.
TARGETS = {
    ("gaga.datagen", "gen_highdim"): "datagen.generate",
    ("gaga.linalg", "build_gram"): "linalg.build_gram",
    ("gaga.linalg", "spd_solve_with_inverse_diagonal"): "linalg.kernel",
    ("gaga.linalg", "is_diagonal"): "linalg.diag_check",
    ("gaga.linalg", "inverse_diagonal"): "linalg.inverse_diagonal",
    ("gaga.solver", "gaga_fit"): "solver.fit",
    ("gaga.solver", "fit_gram"): "solver.fit_gram",
    ("gaga.solver", "gaga_step"): "solver.step",
    ("gaga.solver", "estimate_variance_em"): "solver.variance_em",
    ("gaga.solver", "hard_truncate"): "solver.truncate",
    ("gaga.solver", "resolve_tuning_clamp"): "solver.resolve_clamp",
    ("gaga.qr", "gaga_qr_fit"): "qr.fit",
    ("gaga.qr", "_ols_permutation"): "qr.ols_order",
    ("gaga.qr", "solve_triangular"): "qr.backmap",
    ("gaga.metrics", "acc"): "metrics.score",
    ("gaga.harness", "run_experiment"): "harness.run",
    ("gaga.harness", "write_rows"): "harness.csv_write",
    ("gaga.cli", "main"): "cli.main",
}

# Module whose ``lapack`` attribute is wrapped -> span prefix of its calls.
LAPACK_OWNERS = {"gaga.linalg": "linalg.lapack", "gaga.qr": "qr.lapack"}

# fit_gram is the inner fit of the QR variant; inside the plain fit it is
# bookkeeping around the steps, so it records no span there.
CONTEXT_SPANS = {"solver.fit_gram": ("qr.fit", "qr.inner_fit")}

# Spans that only capture a value and record no time.
VALUE_ONLY = {"solver.resolve_clamp"}

# Per-layer metrics, in output order: name -> unit. Times and counts are per
# fit of the traced loop unless the unit says otherwise.
PER_LAYER = {
    "datagen.generate_s": "s/instance",
    "datagen.instances": "count/fit",
    "linalg.build_gram_s": "s/fit",
    "linalg.build_gram_calls": "count/fit",
    "linalg.kernel_s": "s/fit",
    "linalg.kernel_calls": "count/fit",
    "linalg.kernel_self_s": "s/fit",
    "linalg.factorizations": "count/fit",
    "linalg.dpotrf_s": "s/fit",
    "linalg.dtrtri_s": "s/fit",
    "linalg.dpotrs_s": "s/fit",
    "linalg.gflop": "GFLOP/fit-calc",
    "linalg.gflops": "GFLOP/s-calc",
    "linalg.diag_check_s": "s/fit",
    "linalg.diag_check_bytes": "B/fit-calc",
    "linalg.diagonal_calls": "count/fit",
    "linalg.inverse_diagonal_calls": "count/fit",
    "linalg.blas_thread_speedup": "ratio",
    "solver.iterations": "count/fit",
    "solver.step_self_s": "s/fit",
    "solver.variance_em_s": "s/fit",
    "solver.truncate_s": "s/fit",
    "solver.clamped_frac": "ratio",
    "qr.fit_s": "s/fit",
    "qr.ols_order_s": "s/fit",
    "qr.factorize_s": "s/fit",
    "qr.inner_fit_s": "s/fit",
    "qr.backmap_s": "s/fit",
    "qr.self_s": "s/fit",
    "metrics.score_s": "s/fit",
    "harness.self_s": "s/fit",
    "harness.csv_write_s": "s/fit",
    "harness.rows": "count/fit",
    "harness.failed_rows": "count/fit",
    "cli.self_s": "s/fit",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.fits": "count",
}


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _lapack_flop(routine, args, kwargs):
    """Textbook flop count of one call, from the array sizes."""
    n = _arg(args, kwargs, 0, "a" if routine == "dpotrf" else "c").shape[0]
    if routine in ("dpotrf", "dtrtri"):
        return n ** 3 / 3.0
    if routine == "dpotrs":
        b = _arg(args, kwargs, 1, "b")
        return 2.0 * n * n * (b.shape[1] if b.ndim == 2 else 1)
    return 0.0


class _LapackProxy:
    """Stands in for ``scipy.linalg.lapack`` inside one gaga module."""

    def __init__(self, tracer, real, prefix):
        self._tracer = tracer
        self._real = real
        self._prefix = prefix

    def __getattr__(self, name):
        fn = getattr(self._real, name)
        if callable(fn):
            fn = self._tracer.wrap(fn, f"{self._prefix}.{name}")
        setattr(self, name, fn)  # later lookups skip __getattr__
        return fn


class Tracer:
    """Span recorder; install() wraps the package, uninstall() restores it."""

    def __init__(self):
        self.absent = set()
        self._patches = []
        self._stack = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.reset()

    def reset(self):
        for table in (self._stack, self.total, self.self_time, self.calls, self.count):
            table.clear()
        self.covered = 0.0
        self._clamp = None

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self):
        stack = self._stack
        name, start, child = stack.pop()
        dur = perf_counter() - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if stack:
            stack[-1][2] += dur
            # A child of the span the operation entered (depth 2 under "op").
            if len(stack) == 2:
                self.covered += dur

    def wrap(self, fn, name):
        """``fn`` recording a span called ``name``, plus the counters its
        hook reads from the call (see ``_hook``). The span bookkeeping of
        ``exit`` is inlined: the replicates workload makes ~150 wrapped calls
        per fit on small problems."""
        tracer, stack = self, self._stack
        total, self_time, calls = self.total, self.self_time, self.calls
        hook = self._hook(name)
        context = CONTEXT_SPANS.get(name)
        value_only = name in VALUE_ONLY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if context is not None:
                span = context[1] if any(f[0] == context[0] for f in stack) else None
            if span is None or value_only:
                result = fn(*args, **kwargs)
            else:
                frame = [span, perf_counter(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = perf_counter() - frame[1]
                    total[span] += dur
                    self_time[span] += dur - frame[2]
                    calls[span] += 1
                    if stack:
                        stack[-1][2] += dur
                        if len(stack) == 2:
                            tracer.covered += dur
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    tracer.count[f"hook_error.{name}"] += 1
            return result

        return wrapper

    # -- counters read from a call's arguments and result --------------------

    def _hook(self, name):
        count = self.count
        if name.startswith("linalg.lapack."):
            routine = name.rsplit(".", 1)[1]

            def flop(args, kwargs, result):
                count["linalg_flop"] += _lapack_flop(routine, args, kwargs)
            return flop
        if name == "linalg.diag_check":
            def diag_bytes(args, kwargs, result):
                count["diag_check_bytes"] += 8.0 * _arg(args, kwargs, 0, "mat").size
            return diag_bytes
        if name == "solver.resolve_clamp":
            def clamp(args, kwargs, result):
                self._clamp = float(result)
            return clamp
        if name in ("solver.fit", "qr.fit"):
            return lambda args, kwargs, result: self._count_clamped(
                _arg(args, kwargs, 1, "config"), result)
        if name == "harness.csv_write":
            def rows(args, kwargs, result):
                written = list(_arg(args, kwargs, 1, "rows"))
                count["csv_rows"] += len(written)
                count["csv_failed_rows"] += sum(
                    1 for r in written if r.get("status") not in ("ok", "summary"))
            return rows
        return None

    def _count_clamped(self, config, result):
        if self._clamp is None:
            return
        alpha = getattr(config, "alpha", None) or 2.0  # GagaConfig's default
        weights = np.asarray(result.tuning) * alpha
        self.count["clamped"] += float(np.sum(weights >= self._clamp * (1.0 - 1e-9)))
        self.count["weights"] += weights.size
        self._clamp = None

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gaga" or n.startswith("gaga."))]
        wrappers = {}
        for (mod_name, attr), name in TARGETS.items():
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.absent.add(f"{mod_name}.{attr}")
                continue
            wrappers[id(original)] = (original, self.wrap(original, name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])
        for mod_name, prefix in LAPACK_OWNERS.items():
            module = sys.modules.get(mod_name)
            real = getattr(module, "lapack", None)
            if real is None:
                self.absent.add(f"{mod_name}.lapack")
                continue
            self._patch(module, "lapack", _LapackProxy(self, real, prefix))

    def _patch(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- metrics -------------------------------------------------------------

    def has(self, *symbols):
        return not any(s in self.absent for s in symbols)

    def metrics(self, fits, datagen_s, datagen_instances, loop_instances,
                overhead_frac, blas_thread_speedup, op_s):
        """Per-layer metrics of a traced loop of ``fits`` fits lasting ``op_s``
        seconds of operation time; ``None`` where a symbol is absent."""
        t, st, c = self.total, self.self_time, self.calls

        def per_fit(value, *symbols):
            return value / fits if self.has(*symbols) else None

        lapack = ("gaga.linalg.lapack",)
        kernel = ("gaga.linalg.spd_solve_with_inverse_diagonal",)
        lapack_s = sum(t[f"linalg.lapack.{r}"] for r in ("dpotrf", "dtrtri", "dpotrs"))
        flop = self.count["linalg_flop"]
        harness = ("gaga.harness.run_experiment", "gaga.harness.write_rows")
        out = {
            "datagen.generate_s": datagen_s / datagen_instances if datagen_instances else None,
            "datagen.instances": loop_instances / fits,
            "linalg.build_gram_s": per_fit(t["linalg.build_gram"], "gaga.linalg.build_gram"),
            "linalg.build_gram_calls": per_fit(c["linalg.build_gram"], "gaga.linalg.build_gram"),
            "linalg.kernel_s": per_fit(t["linalg.kernel"], *kernel),
            "linalg.kernel_calls": per_fit(c["linalg.kernel"], *kernel),
            "linalg.kernel_self_s": per_fit(st["linalg.kernel"], *kernel, *lapack),
            "linalg.factorizations": per_fit(c["linalg.lapack.dpotrf"], *lapack),
            "linalg.dpotrf_s": per_fit(t["linalg.lapack.dpotrf"], *lapack),
            "linalg.dtrtri_s": per_fit(t["linalg.lapack.dtrtri"], *lapack),
            "linalg.dpotrs_s": per_fit(t["linalg.lapack.dpotrs"], *lapack),
            "linalg.gflop": per_fit(flop / 1e9, *lapack),
            "linalg.gflops": (flop / 1e9 / lapack_s
                              if self.has(*lapack) and lapack_s > 0 else None),
            "linalg.diag_check_s": per_fit(t["linalg.diag_check"], "gaga.linalg.is_diagonal"),
            "linalg.diag_check_bytes": per_fit(self.count["diag_check_bytes"],
                                               "gaga.linalg.is_diagonal"),
            "linalg.diagonal_calls": per_fit(
                c["linalg.kernel"] - c["linalg.lapack.dpotrf"], *kernel, *lapack),
            "linalg.inverse_diagonal_calls": per_fit(c["linalg.inverse_diagonal"],
                                                     "gaga.linalg.inverse_diagonal"),
            "linalg.blas_thread_speedup": blas_thread_speedup,
            "solver.iterations": per_fit(c["solver.step"], "gaga.solver.gaga_step"),
            "solver.step_self_s": per_fit(st["solver.step"], "gaga.solver.gaga_step"),
            "solver.variance_em_s": per_fit(t["solver.variance_em"],
                                            "gaga.solver.estimate_variance_em"),
            "solver.truncate_s": per_fit(t["solver.truncate"], "gaga.solver.hard_truncate"),
            "solver.clamped_frac": (self.count["clamped"] / self.count["weights"]
                                    if self.count["weights"] else None),
            "qr.fit_s": per_fit(t["qr.fit"], "gaga.qr.gaga_qr_fit"),
            "qr.ols_order_s": per_fit(t["qr.ols_order"], "gaga.qr._ols_permutation"),
            "qr.factorize_s": per_fit(
                sum(v for k, v in t.items() if k.startswith("qr.lapack.")), "gaga.qr.lapack"),
            "qr.inner_fit_s": per_fit(t["qr.inner_fit"], "gaga.solver.fit_gram"),
            "qr.backmap_s": per_fit(t["qr.backmap"], "gaga.qr.solve_triangular"),
            "qr.self_s": per_fit(st["qr.fit"], "gaga.qr.gaga_qr_fit"),
            "metrics.score_s": per_fit(t["metrics.score"], "gaga.metrics.acc"),
            "harness.self_s": per_fit(st["harness.run"], *harness),
            "harness.csv_write_s": per_fit(t["harness.csv_write"], *harness),
            "harness.rows": per_fit(self.count["csv_rows"], *harness),
            "harness.failed_rows": per_fit(self.count["csv_failed_rows"], *harness),
            "cli.self_s": per_fit(st["cli.main"], "gaga.cli.main"),
            "trace.overhead_frac": overhead_frac,
            "trace.coverage_frac": self.covered / op_s if op_s > 0 else None,
            "trace.fits": fits,
        }
        assert list(out) == list(PER_LAYER)
        return out
