#!/usr/bin/env python3
"""Write the reference outputs that run.py checks the default seed against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout, at the commit whose outputs are the
reference. It writes reference/dense_plain.npz and reference/dense_qr.npz
(support and coefficients of every set-up input) and
reference/replicates_input<i>.csv (the `gaga experiment` output of each
config). Regenerate them only when a change is meant to alter the outputs,
and say so in the change.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main():
    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    gaga = run.import_gaga()
    import numpy as np

    run.REFERENCE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
        for name in run.WORKLOADS:
            workload = run.make_workload(gaga, name, run.DEFAULT_SEED, Path(work),
                                         tracer=None, reference=False)
            runner = run.Runner(workload)
            runner.setup(run.ROUNDS)
            if runner.failed:
                sys.exit("\n".join(runner.failures))
            if name == "replicates":
                for i in range(run.ROUNDS):
                    shutil.copyfile(Path(work) / f"input{i}.csv",
                                    run.REFERENCE / f"replicates_input{i}.csv")
            else:
                arrays = {}
                for i, (coef, support) in enumerate(workload.first):
                    arrays[f"coef{i}"] = coef
                    arrays[f"support{i}"] = support
                np.savez_compressed(run.REFERENCE / f"{name}.npz", **arrays)
            print(f"wrote the {name} reference")


if __name__ == "__main__":
    main()
