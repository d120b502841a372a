#!/usr/bin/env python3
"""Equivalence class of the fits of the working tree against a revision.

    python3 tools/equiv.py --against REV

REV's ``src/`` is exported with ``git archive`` into a ``.perfbench-equiv-*``
directory at the repository root (gitignored, and removed afterwards). One
fixed list of fits then runs in each tree, in a subprocess of its own at one
BLAS thread, since fits at one and at two OpenBLAS threads differ in the last
bits. The list: ``gaga_fit`` and ``gaga_qr_fit``, fixed and estimated
variance, on the first 20 replicate seeds of ``model1`` and ``model2``, the
first 3 of ``highdim``, and the criterion-8 inputs
``gen_highdim(replicate_seed(0, 0), 4000, p)`` at p = 500, 1000 and 2000. It
takes about 15 s per tree on two cores.

The result is one line:

- ``bit-identical``: every coefficient, tuning weight and variance is equal;
- ``support identical``: with the worst coefficient gap, relative to
  max(1, max |REV's coefficients|), and the fit where it occurs;
- ``support changed``: with the first fit whose support (or error) differs.
  The exit code is then 1; it is 2 when a tree cannot be exported or run.
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


def run_fits(path):
    """Fit every case in this process and save the results to ``path``."""
    import gaga

    src = Path(os.environ["PYTHONPATH"])
    if Path(gaga.__file__).resolve().parent != (src / "gaga").resolve():
        raise SystemExit(f"imported gaga from {gaga.__file__}, not from {src}")
    results = {}
    for name, problem in inputs():
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
    np.savez(path, **results)


def fits_of(src, out):
    """The fits of the tree whose package is under ``src``, run in a
    subprocess that saves them to ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    proc = subprocess.run([sys.executable, __file__, "--fits-to", str(out)],
                          env=env, cwd=out.parent)
    if proc.returncode:
        raise SystemExit(2)
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def fit_keys(results):
    """Each fit's key, in the order the fits ran."""
    return list(dict.fromkeys(key.split("|")[0] for key in results))


def compare(base, new):
    """The result line and the exit code of ``new`` against ``base``."""
    keys = fit_keys(base)
    if keys != fit_keys(new):
        return "support changed: the two trees ran different fits", 1
    identical, worst, worst_at = True, 0.0, None
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
        gap = (np.max(np.abs(a["coefficients"] - b["coefficients"]))
               / max(1.0, np.max(np.abs(a["coefficients"]))))
        if gap > worst:
            worst, worst_at = gap, key
    if identical:
        return f"bit-identical: coefficients, tuning and variance of all {len(keys)} fits", 0
    return (f"support identical on all {len(keys)} fits; worst relative coefficient gap "
            f"{worst:.3g}" + (f" at {worst_at}" if worst_at else "")), 0


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
    parser.add_argument("--fits-to", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.fits_to:
        run_fits(args.fits_to)
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
        base = fits_of(tree / "src", tree / "base.npz")
        new = fits_of(ROOT / "src", tree / "new.npz")
    finally:
        shutil.rmtree(tree)
    line, code = compare(base, new)
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
