"""Command-line experiment runner.

Subcommands: fit, experiment, sweep, validate, bench. Experiment/sweep configs
are plain ``key = value`` files (see README for the key list); command-line
flags override config values. Errors exit nonzero with a single
machine-readable ``error kind=... detail=...`` line on stderr.
"""

import argparse
import csv
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


def _load_matrix(path):
    lines = Path(path).read_text().splitlines()
    try:
        [float(v) for v in lines[0].strip().split(",")]
    except (IndexError, ValueError):
        lines = lines[1:]  # a header row, or no line at all
    if not any(line.strip() for line in lines):
        raise InvalidInput(f"{path} has no data rows")
    return np.loadtxt(lines, delimiter=",", ndmin=2)


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
            out.append(ExternalEstimates(name.split(":", 1)[1]))
        else:
            raise InvalidInput(f"unknown estimator {name!r}")
    return tuple(out)


def _cmd_fit(args):
    data = _load_matrix(args.design)
    if args.response:
        y = _load_matrix(args.response).ravel()
        x = data
    else:
        x, y = data[:, :-1], data[:, -1]
    problem = RegressionProblem(design=x, response=y)
    config = _solver_config(args)
    fit = gaga_qr_fit if args.qr else gaga_fit
    est = fit(problem, config)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "coefficient", "support"])
        for j, (c, s) in enumerate(zip(est.coefficients, est.support)):
            writer.writerow([j + 1, repr(float(c)), int(s)])
    return 0


def _experiment_spec(args, cfg, need_sizes=False):
    config = _solver_config(args, cfg)
    est_names = cfg.get("estimators", "gaga").split(",")
    model = cfg.get("model", datagen.MODEL1)
    model_params = {}
    if model == datagen.CONSISTENCY and "n" in cfg:
        model_params["n"] = int(cfg["n"])
    sizes = None
    raw_sizes = cfg.get("sample_sizes")
    if raw_sizes:
        sizes = tuple(int(s) for s in raw_sizes.split(","))
    if need_sizes and not sizes:
        raise InvalidInput("sweep needs sample_sizes in the config")
    out = args.out or cfg.get("out")
    if not out:
        raise InvalidInput("no output path (set --out or out= in the config)")
    return ExperimentSpec(
        model=model,
        estimators=_estimators(est_names, config),
        model_params=model_params,
        sample_sizes=sizes,
        output_path=out,
        **{"replicates": REPLICATES, **_given(args, cfg, _REPLICATES, _SEED, _TIMING)},
    )


def _cmd_experiment(args):
    spec = _experiment_spec(args, _parse_config_file(args.config))
    harness.run_experiment(spec)
    return 0


def _cmd_sweep(args):
    spec = _experiment_spec(args, _parse_config_file(args.config), need_sizes=True)
    harness.run_consistency_sweep(spec)
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
        output_path=args.out,
        **_given(args, {}, _SEED),
    )
    for row in rows:
        print(f"p={row['p']} estimator={row['estimator']} mean_s={row['mean_s']:.4f}")
    return 0


def _add_solver_flags(sub):
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--iterations", type=int, default=None)
    sub.add_argument("--variance-mode", choices=["fixed", "estimated"],
                     dest="variance_mode", default=None)
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
    _add_solver_flags(p_fit)
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
