"""Command-line experiment runner.

Subcommands: fit, experiment, sweep, validate, bench. Experiment/sweep configs
are plain ``key = value`` files (see README for the key list); command-line
flags override config values. Errors exit nonzero with a single
machine-readable ``error kind=... detail=...`` line on stderr.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import datagen, harness
from .errors import GagaError, InvalidInput
from .harness import ExperimentSpec, ExternalEstimates, GagaEstimator
from .qr import gaga_qr_fit
from .solver import gaga_fit
from .types import GagaConfig, RegressionProblem


# The CLI's own default; the library's defaults live in GagaConfig,
# ExperimentSpec, validate_theorems and benchmark_timing.
REPLICATES = 100


def _record_timing(value):
    value = value.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise InvalidInput(f"record_timing must be true or false, got {value!r}")
    return value in ("1", "true", "yes")


# The keys of the README's config table: key -> (parser of a config value,
# dest of the flag that overrides it or None).
_KEYS = {
    "model": (str, None),
    "estimators": (lambda v: [name.strip() for name in v.split(",")], None),
    "alpha": (float, "alpha"),
    "iterations": (int, "iterations"),
    "variance_mode": (str, "variance_mode"),
    "replicates": (int, "replicates"),
    "base_seed": (int, "seed"),
    "n": (int, None),
    "sample_sizes": (lambda v: tuple(int(n) for n in v.split(",")) if v else None, None),
    "record_timing": (_record_timing, None),
    "out": (str, "out"),
}


def _settings(args, path=None):
    """The value of each key that the config file at ``path`` or a flag sets,
    parsed once; a flag overrides the file. A key set by neither is left out,
    so the callee's default applies."""
    raw = {}
    for line in Path(path).read_text().splitlines() if path else ():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInput(f"bad config line: {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise InvalidInput(f"repeated config key: {key}")
        raw[key] = value
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise InvalidInput(f"unknown config key(s): {', '.join(unknown)}")
    settings = {key: _KEYS[key][0](value) for key, value in raw.items()}
    for key, (_, flag) in _KEYS.items():
        if flag and getattr(args, flag, None) is not None:
            settings[key] = getattr(args, flag)
    return settings


def _only(settings, *keys):
    return {key: settings[key] for key in keys if key in settings}


def _config(settings):
    return GagaConfig(**_only(settings, "alpha", "iterations", "variance_mode"))


def _estimators(names, config):
    out = []
    for name in names:
        if name == "gaga":
            out.append(GagaEstimator(config=config))
        elif name == "gaga_qr":
            out.append(GagaEstimator(config=config, name=name, fit=gaga_qr_fit))
        elif name.startswith("external:"):
            out.append(ExternalEstimates(name.split(":", 1)[1], name=name))
        else:
            raise InvalidInput(f"unknown estimator {name!r}")
    return tuple(out)


FIT_COLUMNS = ["index", "coefficient", "support"]


def _cmd_fit(args):
    data = harness.read_matrix(args.design)[0]
    if args.response:
        x, y = data, harness.read_matrix(args.response)[0].ravel()
    else:
        x, y = data[:, :-1], data[:, -1]
    problem = RegressionProblem(design=x, response=y)
    fit = gaga_qr_fit if args.qr else gaga_fit
    est = fit(problem, _config(_settings(args)))
    rows = [{"index": j + 1, "coefficient": c, "support": int(s)}
            for j, (c, s) in enumerate(zip(est.coefficients, est.support))]
    harness.write_rows(args.out, rows, FIT_COLUMNS)
    return 0


# A config-file command: its default model, its runner in ``gaga.harness``
# (looked up at each call, so a wrapper installed there sees it) and the
# runner's CSV columns.
_RUNS = {"experiment": (datagen.MODEL1, "run_experiment", harness.CSV_COLUMNS),
         "sweep": (datagen.CONSISTENCY, "run_consistency_sweep", harness.SWEEP_COLUMNS)}


def _cmd_experiment(args):
    """``gaga experiment`` or ``gaga sweep``: the runner rejects the spec
    fields it does not read."""
    model, runner, columns = _RUNS[args.command]
    settings = {"model": model, "estimators": ["gaga"], "replicates": REPLICATES,
                **_settings(args, args.config)}
    if not settings.get("out"):
        raise InvalidInput("no output path (set --out or out= in the config)")
    spec = ExperimentSpec(
        estimators=_estimators(settings["estimators"], _config(settings)),
        model_params=_only(settings, "n"),
        **_only(settings, "model", "replicates", "base_seed", "sample_sizes", "record_timing"))
    harness.write_rows(settings["out"], getattr(harness, runner)(spec), columns)
    return 0


def _cmd_validate(args):
    beta = np.array([float(v) for v in args.beta_star.split(",")])
    sigma = np.array([float(v) for v in args.sigma_star.split(",")])
    settings = {"replicates": REPLICATES, **_settings(args)}
    report = harness.validate_theorems(
        n=args.n, beta_star=beta, sigma_star=sigma, config=_config(settings),
        **_only(settings, "replicates", "base_seed"))
    row = dataclasses.asdict(report)
    if args.out:
        harness.write_rows(args.out, [row], columns=list(row))
    for key, value in row.items():
        print(f"{key}={value}")
    return 0


def _cmd_bench(args):
    dims = [int(v) for v in args.dimensions.split(",")]
    settings = _settings(args)
    rows = harness.benchmark_timing(dims, n=args.n, repeats=args.repeats,
                                    config=_config(settings), **_only(settings, "base_seed"))
    if args.out:
        harness.write_rows(args.out, rows, harness.BENCH_COLUMNS)
    for row in rows:
        print(f"p={row['p']} estimator={row['estimator']} mean_s={row['mean_s']:.4f}")
    return 0


def _add_solver_flags(sub, seed=True):
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--iterations", type=int, default=None)
    sub.add_argument("--variance-mode", choices=["fixed", "estimated"],
                     dest="variance_mode", default=None)
    if seed:
        sub.add_argument("--seed", type=int, default=None)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``InvalidInput``, so it takes the one-line
    error path of every other bad input (subparsers share this class)."""

    def error(self, message):
        raise InvalidInput(message)


def build_parser():
    parser = _Parser(prog="gaga", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", help="fit a single problem from CSV")
    p_fit.add_argument("--design", required=True)
    p_fit.add_argument("--response", default=None,
                       help="response CSV; omitted = last design column")
    p_fit.add_argument("--qr", action="store_true", help="use the QR variant")
    p_fit.add_argument("--out", required=True)
    _add_solver_flags(p_fit, seed=False)
    p_fit.set_defaults(func=_cmd_fit)

    for name in _RUNS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", required=True)
        sub.add_argument("--replicates", type=int, default=None)
        sub.add_argument("--out", default=None)
        _add_solver_flags(sub)
        sub.set_defaults(func=_cmd_experiment)

    p_val = subs.add_parser("validate", help="empirical theory checks")
    p_val.add_argument("--n", type=int, required=True)
    p_val.add_argument("--replicates", type=int, default=None)
    p_val.add_argument("--beta-star", dest="beta_star", required=True)
    p_val.add_argument("--sigma-star", dest="sigma_star", required=True)
    p_val.add_argument("--out", default=None)
    _add_solver_flags(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_bench = subs.add_parser("bench", help="timing comparison")
    p_bench.add_argument("--dimensions", required=True)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--repeats", type=int, default=10)
    p_bench.add_argument("--out", default=None)
    _add_solver_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (GagaError, OSError, ValueError) as exc:
        # A ValueError here comes from parsing the user's input (a malformed
        # number in a flag, a config value or an input file).
        kind = "InvalidInput" if isinstance(exc, ValueError) else type(exc).__name__
        print(f'error kind={kind} detail="{exc}"', file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
