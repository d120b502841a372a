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


def _parse_config_file(path):
    cfg = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidInput(f"bad config line: {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    unknown = sorted(set(cfg) - _CONFIG_KEYS)
    if unknown:
        raise InvalidInput(f"unknown config key(s): {', '.join(unknown)}")
    return cfg


# The CLI's own default; the library's defaults live in GagaConfig,
# ExperimentSpec, validate_theorems and benchmark_timing.
REPLICATES = 100


def _record_timing(value):
    value = value.lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise InvalidInput(f"record_timing must be true or false, got {value!r}")
    return value in ("1", "true", "yes")


# (keyword, parser of a config value, flag dest or None)
_SOLVER = (("alpha", float, "alpha"), ("iterations", int, "iterations"),
           ("variance_mode", str, "variance_mode"))
_REPLICATES = ("replicates", int, "replicates")
_SEED = ("base_seed", int, "seed")
_TIMING = ("record_timing", _record_timing, None)
# The keys of the README's config table.
_CONFIG_KEYS = {"model", "estimators", "n", "sample_sizes", "out",
               *(key for key, _, _ in (*_SOLVER, _REPLICATES, _SEED, _TIMING))}


def _given(args, cfg, *fields):
    """The keyword arguments that a flag or, failing that, a config line sets.
    A value set by neither is left out, so the callee's default applies."""
    out = {}
    for key, parse, dest in fields:
        value = getattr(args, dest) if dest else None
        if value is None and key in cfg:
            value = parse(cfg[key])
        if value is not None:
            out[key] = value
    return out


def _solver_config(args, cfg=None):
    return GagaConfig(**_given(args, cfg or {}, *_SOLVER))


def _estimators(names, config):
    out = []
    for name in names:
        name = name.strip()
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
    est = fit(problem, _solver_config(args))
    rows = [{"index": j + 1, "coefficient": c, "support": int(s)}
            for j, (c, s) in enumerate(zip(est.coefficients, est.support))]
    harness.write_rows(args.out, rows, FIT_COLUMNS)
    return 0


def _experiment_spec(args, model):
    """The spec of a config file's experiment (``model`` unless the file
    names one), and its output path."""
    cfg = _parse_config_file(args.config)
    sizes = cfg.get("sample_sizes")
    out = args.out or cfg.get("out")
    if not out:
        raise InvalidInput("no output path (set --out or out= in the config)")
    spec = ExperimentSpec(
        model=cfg.get("model", model),
        estimators=_estimators(cfg.get("estimators", "gaga").split(","),
                               _solver_config(args, cfg)),
        model_params={"n": int(cfg["n"])} if "n" in cfg else {},
        sample_sizes=tuple(int(s) for s in sizes.split(",")) if sizes else None,
        **{"replicates": REPLICATES, **_given(args, cfg, _REPLICATES, _SEED, _TIMING)},
    )
    return spec, out


def _cmd_experiment(args):
    spec, out = _experiment_spec(args, datagen.MODEL1)
    harness.write_rows(out, harness.run_experiment(spec), harness.CSV_COLUMNS)
    return 0


def _cmd_sweep(args):
    spec, out = _experiment_spec(args, datagen.CONSISTENCY)
    harness.write_rows(out, harness.run_consistency_sweep(spec), harness.SWEEP_COLUMNS)
    return 0


def _cmd_validate(args):
    beta = np.array([float(v) for v in args.beta_star.split(",")])
    sigma = np.array([float(v) for v in args.sigma_star.split(",")])
    report = harness.validate_theorems(
        n=args.n,
        beta_star=beta,
        sigma_star=sigma,
        config=_solver_config(args),
        **{"replicates": REPLICATES, **_given(args, {}, _REPLICATES, _SEED)},
    )
    row = dataclasses.asdict(report)
    if args.out:
        harness.write_rows(args.out, [row], columns=list(row))
    for key, value in row.items():
        print(f"{key}={value}")
    return 0


def _cmd_bench(args):
    dims = [int(v) for v in args.dimensions.split(",")]
    rows = harness.benchmark_timing(
        dims, n=args.n, repeats=args.repeats,
        config=_solver_config(args),
        **_given(args, {}, _SEED),
    )
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

    for name, func in (("experiment", _cmd_experiment), ("sweep", _cmd_sweep)):
        sub = subs.add_parser(name)
        sub.add_argument("--config", required=True)
        sub.add_argument("--replicates", type=int, default=None)
        sub.add_argument("--out", default=None)
        _add_solver_flags(sub)
        sub.set_defaults(func=func)

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
