#!/usr/bin/env python3
"""Equivalence class of the fits of the working tree against a revision.

    python3 tools/equiv.py --against REV

REV's ``src/`` is exported with ``git archive`` into a ``.perfbench-equiv-*``
directory at the repository root (gitignored, and removed afterwards). One
fixed list of fits then runs in each tree, in a subprocess of its own at one
BLAS thread, since fits at one and at two OpenBLAS threads differ in the last
bits. The list: ``gaga_fit`` and ``gaga_qr_fit``, fixed and estimated
variance, on the first 20 replicate seeds of ``model1`` and ``model2``, the
first 3 of ``highdim``, the criterion-8 inputs
``gen_highdim(replicate_seed(0, 0), 4000, p)`` at p = 500, 1000 and 2000,
and one design whose X'X is exactly diagonal, on which ``gaga_qr_fit`` takes
its closed-form ordering.
Each tree also runs three CLI commands in process: a ``gaga experiment`` of
10 ``model1`` replicates with ``gaga,gaga_qr`` in estimated variance (no
timing column), and ``gaga fit`` and ``gaga fit --qr`` on one ``model2``
instance, which the first tree saves as a CSV and both trees read. It takes
about 15 s per tree on two cores.

The result is two lines. The first is the class of the inputs, since a
generator change makes the two trees fit different designs:

- ``designs: bit-identical``: every design and response is equal;
- ``designs differ``: with the worst relative gap, max |new - REV's| over
  max |REV's| of a design or a response, and the input where it occurs.

The second is the class of the fits and then the CLI outputs:

- ``bit-identical``: every coefficient, tuning weight and variance is equal;
- ``support identical``: with the worst gap of the coefficients, of the
  tuning weights and of the estimated variance, each relative to
  max(1, max |REV's values|), and the fit where it occurs;
- ``support changed``: with the first fit whose support (or error) differs.
  The exit code is then 1; it is 2 when a tree cannot be exported or run.
- ``CLI CSVs byte-identical``, or the commands whose CSVs differ. A
  difference there, or in the inputs, does not change the exit code.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = {"model1": 20, "model2": 20, "highdim": 3}
CRITERION_8 = (500, 1000, 2000)
EXPERIMENT_CONFIG = "model = model1\nreplicates = 10\nestimators = gaga,gaga_qr\n" \
                    "variance_mode = estimated\n"
CLI_COMMANDS = {"experiment": ["experiment", "--config", "{config}"],
                "fit": ["fit", "--design", "{instance}"],
                "fit --qr": ["fit", "--design", "{instance}", "--qr"]}
# The saved arrays of a fit whose gaps a support-identical change reports.
GAPS = {"coefficients": "coefficient", "tuning": "tuning", "variance": "variance"}
ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def inputs():
    """(name, problem) of each input, in the order they are fitted."""
    from gaga import datagen

    for model, count in SEEDS.items():
        for r in range(count):
            instance = getattr(datagen, f"gen_{model}")(datagen.replicate_seed(0, r))
            yield f"{model} replicate {r}", instance.problem
    for p in CRITERION_8:
        instance = datagen.gen_highdim(datagen.replicate_seed(0, 0), 4000, p)
        yield f"criterion 8 p={p}", instance.problem
    yield "exactly diagonal X'X", exactly_diagonal()


def exactly_diagonal(p=8, rows=5):
    """Columns with disjoint row supports, so X'X is exactly diagonal, and
    scales that put them out of order; every other coefficient is 2."""
    from gaga import RegressionProblem, datagen

    x = np.kron(np.eye(p), np.ones((rows, 1)))
    x *= datagen.stream_rng(0, "design").standard_normal(x.shape) * np.geomspace(0.1, 10.0, p)
    y = x @ np.resize([2.0, 0.0], p) + datagen.stream_rng(0, "noise").standard_normal(p * rows)
    return RegressionProblem(design=x, response=y)


def run_cli(out, instance):
    """Write the CSV of each of ``CLI_COMMANDS`` under ``out``; the ``model2``
    instance is saved at ``instance`` unless it is there already."""
    from gaga import cli, datagen

    if not instance.exists():
        problem = datagen.gen_model2(datagen.replicate_seed(0, 0)).problem
        np.savetxt(instance, np.column_stack([problem.design, problem.response]),
                   delimiter=",", fmt="%.17g")
    config = out / "experiment.cfg"
    config.write_text(EXPERIMENT_CONFIG)
    for name, argv in CLI_COMMANDS.items():
        argv = [arg.format(config=config, instance=instance) for arg in argv]
        if cli.main([*argv, "--out", str(out / cli_csv(name))]):
            raise SystemExit(f"gaga {name} failed")


def cli_csv(name):
    return name.replace(" --", "_") + ".csv"


def run_fits(out):
    """Fit every case in this process. The results and the inputs' names go
    to ``out/fits.npz``, and input i's design and response to
    ``out/design{i}.npy`` and ``out/response{i}.npy``."""
    import gaga

    src = Path(os.environ["PYTHONPATH"])
    if Path(gaga.__file__).resolve().parent != (src / "gaga").resolve():
        raise SystemExit(f"imported gaga from {gaga.__file__}, not from {src}")
    results, names = {}, []
    for i, (name, problem) in enumerate(inputs()):
        names.append(name)
        np.save(out / f"design{i}.npy", problem.design)
        np.save(out / f"response{i}.npy", problem.response)
        for fit in (gaga.gaga_fit, gaga.gaga_qr_fit):
            for mode in (gaga.FIXED, gaga.ESTIMATED):
                key = f"{name}, {fit.__name__}, {mode}"
                try:
                    est = fit(problem, gaga.GagaConfig(variance_mode=mode))
                except gaga.GagaError as exc:
                    results[key + "|error"] = np.array(type(exc).__name__)
                    continue
                results[key + "|coefficients"] = est.coefficients
                results[key + "|tuning"] = est.tuning
                results[key + "|variance"] = np.array(est.estimated_variance)
    np.savez(out / "fits.npz", inputs=np.array(names), **results)


def outputs_of(src, out):
    """The fits and the CLI CSVs of the tree whose package is under ``src``,
    run in a subprocess that writes them to the directory ``out``."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    proc = subprocess.run([sys.executable, __file__, "--outputs-to", str(out)],
                          env=env, cwd=out)
    if proc.returncode:
        raise SystemExit(2)
    with np.load(out / "fits.npz") as data:
        fits = {key: data[key] for key in data.files}
    return fits, {name: (out / cli_csv(name)).read_bytes() for name in CLI_COMMANDS}


def fit_keys(results):
    """Each fit's key, in the order the fits ran."""
    return list(dict.fromkeys(key.split("|")[0] for key in results if "|" in key))


def compare_inputs(base_dir, new_dir, names):
    """The line of the inputs' class, read from each tree's ``.npy`` files."""
    worst, worst_at = 0.0, None
    for i, name in enumerate(names):
        for part in ("design", "response"):
            a, b = (np.load(d / f"{part}{i}.npy", mmap_mode="r") for d in (base_dir, new_dir))
            if a.shape != b.shape:
                return f"designs differ: {part} shapes {a.shape} and {b.shape} at {name}"
            if np.array_equal(a, b):
                continue
            gap = np.max(np.abs(a - b)) / np.max(np.abs(a))
            if worst_at is None or gap > worst:
                worst, worst_at = gap, f"{name} ({part})"
    if worst_at is None:
        return "designs: bit-identical"
    return f"designs differ: worst relative gap {worst:.3g} at {worst_at}"


def compare(base, new):
    """The result line and the exit code of ``new`` against ``base``."""
    keys = fit_keys(base)
    if keys != fit_keys(new):
        return "support changed: the two trees ran different fits", 1
    identical, worst = True, {}
    for key in keys:
        a = {k.split("|")[1]: v for k, v in base.items() if k.startswith(key + "|")}
        b = {k.split("|")[1]: v for k, v in new.items() if k.startswith(key + "|")}
        errors = [str(fits.get("error", "a fit")) for fits in (a, b)]
        if errors[0] != errors[1]:
            return f"support changed: first at {key} ({errors[0]} against {errors[1]})", 1
        if "error" in a:
            continue
        if not np.array_equal(a["coefficients"] != 0, b["coefficients"] != 0):
            return f"support changed: first at {key}", 1
        identical &= all(np.array_equal(a[k], b[k]) for k in a)
        for part in GAPS:
            gap = np.max(np.abs(a[part] - b[part])) / max(1.0, np.max(np.abs(a[part])))
            if gap > worst.get(part, (0.0,))[0]:
                worst[part] = (gap, key)
    if identical:
        return f"bit-identical: coefficients, tuning and variance of all {len(keys)} fits", 0
    gaps = [f"{name} gap {worst[part][0]:.3g} at {worst[part][1]}" if part in worst
            else f"{name} gap 0" for part, name in GAPS.items()]
    return (f"support identical on all {len(keys)} fits; worst relative " + "; ".join(gaps)), 0


def export(rev, tree):
    """REV's ``src/`` under ``tree``, by ``git archive``."""
    archive = subprocess.Popen(["git", "archive", rev, "src"], cwd=ROOT, stdout=subprocess.PIPE)
    extract = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or extract.returncode:
        raise SystemExit(2)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", help="the revision to compare with, e.g. HEAD~1")
    # The worker mode, in which each tree's subprocess runs.
    parser.add_argument("--outputs-to", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.outputs_to:
        run_fits(args.outputs_to)
        run_cli(args.outputs_to, args.outputs_to.parent / "model2.csv")
        return 0
    if not args.against:
        parser.error("--against REV is required")
    rev = subprocess.run(["git", "rev-parse", "--short", "--verify", args.against + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True)
    if rev.returncode:
        parser.error(f"unknown revision {args.against!r}")
    tree = Path(tempfile.mkdtemp(prefix=".perfbench-equiv-", dir=ROOT))
    try:
        export(args.against, tree)
        print(f"equiv: {args.against} ({rev.stdout.strip()}) against the working tree, "
              f"{' '.join(f'{k}=1' for k in ONE_THREAD)}", flush=True)
        base, base_csvs = outputs_of(tree / "src", tree / "base")
        new, new_csvs = outputs_of(ROOT / "src", tree / "new")
        if np.array_equal(base["inputs"], new["inputs"]):
            print(compare_inputs(tree / "base", tree / "new", base["inputs"]), flush=True)
        else:
            print("designs differ: the two trees made different inputs")
    finally:
        shutil.rmtree(tree)
    line, code = compare(base, new)
    differ = [name for name in CLI_COMMANDS if base_csvs[name] != new_csvs[name]]
    print(f"{line}; CLI CSVs " + (f"differ: {', '.join(differ)}" if differ
                                  else f"byte-identical: {', '.join(CLI_COMMANDS)}"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
