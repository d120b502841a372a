#!/usr/bin/env python3
"""Paired benchmark runs of the working tree against a revision.

    python3 tools/ab.py --against REV --workload W --seed S --pairs N [--out FILE]

REV's ``src/`` is exported with ``git archive`` into a ``.perfbench-ab-*``
directory at the repository root (gitignored, and removed afterwards), and a
copy of the working tree's ``perfbench/`` is put beside it, so both sides run
the same benchmark code, each on its own package. Each of the N pairs runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in each
tree, where T is ``BENCHMARK.json``'s ``run_seconds``, each run a process of
its own at one BLAS thread. Which tree runs first
alternates from pair to pair. A run that exits nonzero or prints
``"correct": false`` ends the tool with exit code 1.

For every end-to-end metric that ``BENCHMARK.json`` declares it prints each
side's median and quartiles, in how many of the N pairs the working tree is
better in that metric's ``better`` direction (and in how many the two are
equal), and the median of the pairs' working-tree/REV ratios with a 95%
bootstrap interval. ``--out`` writes the same as JSON, with every run's
metric values and ``run.py``'s ``env`` line.
"""

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from equiv import ONE_THREAD, ROOT, export as export_src  # noqa: E402

BOOTSTRAP = 10_000
SIDES = ("base", "change")


def benchmark():
    """(name, unit, better) of each end-to-end metric of ``BENCHMARK.json``,
    and its run length in seconds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
            spec["run_seconds"])


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def ratio(new, base):
    """new / base, read as 1 when both are zero."""
    if base == 0:
        return 1.0 if new == 0 else float("inf")
    return new / base


def summarize(metrics, base_runs, change_runs, seed=0):
    """The summary of each metric in ``metrics`` ((name, unit, better)
    triples) over paired runs: ``base_runs[i]`` and ``change_runs[i]`` are
    pair i's ``{name: value}`` records. A metric that either side ever reads
    as null gets only its values. The bootstrap resamples the pairs with a
    generator seeded by ``seed``."""
    pairs = len(base_runs)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, pairs, size=(BOOTSTRAP, pairs))
    summary = {}
    for name, unit, better in metrics:
        base = [run.get(name) for run in base_runs]
        change = [run.get(name) for run in change_runs]
        entry = {"unit": unit, "better": better}
        if None in base or None in change:
            summary[name] = {**entry, "base": base, "change": change}
            continue
        sign = 1 if better == "higher" else -1
        ratios = np.array([ratio(c, b) for b, c in zip(base, change)])
        medians = np.median(ratios[picks], axis=1)
        low, high = np.percentile(medians, [2.5, 97.5])
        summary[name] = {
            **entry,
            "base": quartiles(base),
            "change": quartiles(change),
            "wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            "ties": sum(c == b for b, c in zip(base, change)),
            "pairs": pairs,
            "ratio": {"median": float(np.median(ratios)),
                      "ci95": [float(low), float(high)]},
        }
    return summary


def table(summary):
    """The printed lines of ``summary``."""
    lines = [f"{'metric':12s} {'REV median [q1, q3]':>30s} {'change median [q1, q3]':>30s} "
             f"{'wins (ties)':>12s}  change/REV [95% CI]"]
    for name, s in summary.items():
        if "wins" not in s:
            lines.append(f"{name:12s} has a null value: REV {s['base']}, change {s['change']}")
            continue
        sides = [f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
                 for q in (s["base"], s["change"])]
        r = s["ratio"]
        lines.append(f"{name:12s} {sides[0]:>30s} {sides[1]:>30s} "
                     f"{s['wins']:>5d}/{s['pairs']} ({s['ties']})  "
                     f"{r['median']:.4f} [{r['ci95'][0]:.4f}, {r['ci95'][1]:.4f}] "
                     f"({s['better']} is better)")
    return lines


def run(tree, args, seconds):
    """One ``run.py`` run in ``tree``: its metric values and its env record."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"ab: run.py failed in {tree} (exit code {proc.returncode})")
    env_line = next((line for line in lines if line.startswith("env ")), "env {}")
    return ({k: v["value"] for k, v in result["metrics"].items()},
            json.loads(env_line[len("env "):]))


def export(rev, tree):
    """REV's ``src/`` under ``tree``, by ``git archive``, and a copy of the
    working tree's ``perfbench/``."""
    export_src(rev, tree)
    shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench-*"))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the summary and every run as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    rev = subprocess.run(["git", "rev-parse", "--short", "--verify", args.against + "^{commit}"],
                         cwd=ROOT, capture_output=True, text=True)
    if rev.returncode:
        parser.error(f"unknown revision {args.against!r}")
    rev = rev.stdout.strip()
    metrics, seconds = benchmark()
    print(f"ab: {args.against} ({rev}) against the working tree; {args.workload} seed "
          f"{args.seed}, {args.pairs} pairs of {seconds:g} s, "
          f"{' '.join(f'{k}=1' for k in ONE_THREAD)}", flush=True)
    runs = []
    tree = Path(tempfile.mkdtemp(prefix=".perfbench-ab-", dir=ROOT))
    try:
        export(args.against, tree)
        trees = {"base": tree, "change": ROOT}
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            done = {}
            for side in order:
                values, env = run(trees[side], args, seconds)
                done[side] = values
                runs.append({"pair": pair, "side": side, "first": side == order[0],
                             "metrics": values, "env": env})
            print(f"pair {pair + 1}: " + ", ".join(
                f"{name} {done['base'][name]:.6g} -> {done['change'][name]:.6g}"
                for name in ("op_p50_s", "peak_rss_mb") if name in done["base"]), flush=True)
    finally:
        shutil.rmtree(tree)
    summary = summarize(metrics, [r["metrics"] for r in runs if r["side"] == "base"],
                        [r["metrics"] for r in runs if r["side"] == "change"])
    print("\n".join(table(summary)))
    if args.out:
        record = {"tool": "tools/ab.py", "against": args.against, "rev": rev,
                  "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
                  "seconds": seconds, "date": datetime.date.today().isoformat(),
                  "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
