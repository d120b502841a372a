#!/usr/bin/env python3
"""Mutation check of the test suite: does each listed test still catch the
defect it was written against?

    python tests/mutants.py [NAME ...]

Each mutant in ``MUTANTS`` is one exact text edit of a file under ``src/``,
with the tests that must fail while it is applied. The script copies
``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml`` into a temporary
directory (the checkout is never written), runs every named test once on the
unmutated copy, and then, for each mutant, applies its edit to the copy and
runs only its tests. A mutant is killed when each of its tests fails.

A mutant marked ``survives`` records a known gap: the named tests do not see
it, and the run says so without failing. The exit code is 1 when a mutant
that should be killed survives, when a mutant's old text is not found exactly
once (the catalogue has gone stale), or when a named test fails on the
unmutated copy. Names on the command line run only those mutants. Not part
of tier-1: the whole catalogue takes about a minute and a half on two cores.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids or prefixes of them
    survives: bool = False


WEIGHT_UPDATE = "config.alpha / (beta * beta / state.variance + inv_diag)"
ORACLE = "tests/test_oracle.py::test_plain_fit_matches_oracle"
RECURSION = "tests/test_linalg.py::TestInverseFactorRecursion"
SELECTION_FLOOR = ("tests/test_selection_theory.py::"
                   "test_false_positive_rate_matches_the_scalar_floor")
ESTIMATED_FLOOR = ("tests/test_selection_theory.py::"
                   "test_false_positive_floor_under_estimated_variance")
FREEZING = "tests/test_linalg.py::TestFreezing"
QR_PIVOT = "tests/test_qr.py::TestCholeskyQr::test_failed_pivot_is_named_by_its_design_column"
NON_FINITE = "tests/test_linalg.py::TestNonFiniteInput"
VALIDATION = "tests/test_solver.py::TestConfigValidation"

MUTANTS = (
    Mutant("frozen coupling dropped", "src/gaga/linalg.py",
           "sol[dead] = (rhs[dead] - matvec(gram, sol)[dead]) * inv_diag[dead]",
           "sol[dead] = rhs[dead] * inv_diag[dead]",
           (FREEZING + "::test_frozen_coordinates_match_explicit_inverse",)),
    Mutant("no freezing", "src/gaga/linalg.py",
           "frozen = (penalty_diag > FREEZE_RATIO * gram_diag) & (gram_diag > 0)",
           "frozen = np.zeros(p, dtype=bool)",
           ("tests/test_counts.py::test_plain_fit_counts",
            FREEZING + "::test_final_solve_factorizes_only_the_active_block")),
    Mutant("global freeze bound", "src/gaga/linalg.py",
           "penalty_diag > FREEZE_RATIO * gram_diag",
           "penalty_diag > FREEZE_RATIO * np.max(gram_diag)",
           ("tests/test_properties.py::test_plain_fit_scaling_gap_is_roundoff_on_fixed_seeds",)),
    Mutant("nonpositive diagonal frozen", "src/gaga/linalg.py",
           " & (gram_diag > 0)", "",
           ("tests/test_linalg.py::TestSpdSolve::test_non_pd_reports_pivot",)),
    Mutant("active block gathered from the leading coordinates", "src/gaga/linalg.py",
           "gram, active, penalty_diag, rhs, inverse)",
           "gram, np.arange(active.size), penalty_diag, rhs, inverse)",
           (FREEZING + "::test_frozen_coordinates_match_explicit_inverse",
            FREEZING + "::test_frozen_coordinates_above_block")),
    # The one rank check judges both fits' factors, so both tests see it.
    Mutant("failed pivot reported by its position in the factor", "src/gaga/linalg.py",
           "raise SingularSystem(pivot=int(index[bad[0]]))",
           "raise SingularSystem(pivot=int(bad[0]))",
           ("tests/test_solver.py::TestActiveSet::test_active_block_failure_reports_its_coordinate",
            QR_PIVOT)),
    Mutant("QR pivot reported by its permuted position", "src/gaga/qr.py",
           "check_rank(np.diagonal(r) ** 2, gram_system.diagonal[perm], perm)",
           "check_rank(np.diagonal(r) ** 2, gram_system.diagonal[perm], np.arange(perm.size))",
           (QR_PIVOT,)),
    # The selection floor's false-positive rate is 0.0167 (z = +0.75) as the
    # code stands, 0.0067 (z = -7.3) at 1.25 alpha and 0.0123 (z = -2.8) at
    # 1.1 alpha. Theory puts 1.1 alpha at about -4.7 standard errors, at the
    # edge of what 10,000 zero coordinates resolve, so it is a known survivor.
    Mutant("weight update at 1.25 alpha", "src/gaga/solver.py",
           WEIGHT_UPDATE, "1.25 * " + WEIGHT_UPDATE, (SELECTION_FLOOR,)),
    Mutant("weight update at 1.1 alpha", "src/gaga/solver.py",
           WEIGHT_UPDATE, "1.1 * " + WEIGHT_UPDATE, (SELECTION_FLOOR,), survives=True),
    # With fixed variance sigma^2 is 1, so only an estimated-mode test sees it.
    Mutant("alpha + 1e-6 in the weight update", "src/gaga/solver.py",
           WEIGHT_UPDATE, "(config.alpha + 1e-6)" + WEIGHT_UPDATE[len("config.alpha"):],
           (ORACLE + "[fixed]", ORACLE + "[estimated]")),
    Mutant("sigma^2 dropped from the weight update", "src/gaga/solver.py",
           WEIGHT_UPDATE, "config.alpha / (beta * beta + inv_diag)",
           (ORACLE + "[estimated]", ESTIMATED_FLOOR)),
    Mutant("sigma^2 dropped, fixed-mode oracle", "src/gaga/solver.py",
           WEIGHT_UPDATE, "config.alpha / (beta * beta + inv_diag)",
           (ORACLE + "[fixed]",), survives=True),
    Mutant("rank rule against the largest diagonal of the factor", "src/gaga/linalg.py",
           "pivot_sq > 1e-10 * gram_diag",
           "pivot_sq > 1e-10 * np.max(gram_diag)",
           ("tests/test_properties.py::test_plain_fit_is_equivariant_under_column_scaling",
            "tests/test_properties.py::test_qr_fit_runs_on_scaled_designs")),
    Mutant("caller's gram written in place", "src/gaga/linalg.py",
           'return np.array(rows[c[0]:c[-1] + 1, r[0]:r[-1] + 1], order="C").T',
           "return rows[c[0]:c[-1] + 1, r[0]:r[-1] + 1].T",
           ("tests/test_linalg.py::TestSpdSolve::test_in_place_factorization_matches_out_of_place",)),
    Mutant("no block recursion", "src/gaga/linalg.py",
           "BLOCK = 128", "BLOCK = 10**9",
           (RECURSION + "::test_matches_explicit_inverse",
            "tests/test_counts.py::test_plain_fit_peak_memory_above_block")),
    Mutant("W21 scaled by -0.999999", "src/gaga/linalg.py",
           "w21 = blas.dtrmm(-1.0, w22, m, lower=1, overwrite_b=1)",
           "w21 = blas.dtrmm(-0.999999, w22, m, lower=1, overwrite_b=1)",
           (RECURSION + "::test_matches_explicit_inverse",
            RECURSION + "::test_accuracy_matches_unblocked_kernel")),
    Mutant("QR ordering outside the kernel", "src/gaga/qr.py",
           "ols, _ = spd_solve_with_inverse_diagonal(\n"
           "            gs.gram, np.zeros(problem.p), gs.cross, inverse=False)",
           "ols = np.linalg.solve(gs.gram, gs.cross)",
           ("tests/test_counts.py::test_qr_fit_counts",
            "tests/test_counts.py::test_per_layer_record_has_no_null[gaga.qr-gaga_qr_fit]")),
    Mutant("design multiplied out of place", "src/gaga/datagen.py",
           "blas.dtrmm(1.0, chol, x.T, lower=1, overwrite_b=1)",
           "blas.dtrmm(1.0, chol, x.T, lower=1, overwrite_b=0)",
           ("tests/test_counts.py::test_correlated_design_peak_memory",)),
    Mutant("non-finite correlation accepted", "src/gaga/datagen.py",
           "if not np.isfinite(correlation).all():", "if False:",
           ("tests/test_datagen.py::TestCorrelatedRows::test_non_finite_rejected",)),
    Mutant("overflowing factor accepted", "src/gaga/datagen.py",
           " or not np.isfinite(np.diagonal(chol)).all()", "",
           ("tests/test_properties.py::"
            "test_every_correlation_gives_finite_rows_or_a_typed_error",)),
    Mutant("kernel shape check dropped", "src/gaga/linalg.py",
           "if penalty_diag.shape != (p,) or rhs.shape != (p,):", "if False:",
           ("tests/test_linalg.py::TestSpdSolve::test_shape_mismatch_rejected",)),
    Mutant("NaN penalty accepted", "src/gaga/linalg.py",
           "if not (penalty_diag >= 0).all():", "if np.any(penalty_diag < 0):",
           (NON_FINITE + "::test_nan_penalty",)),
    Mutant("NaN pivot passes the rank rule", "src/gaga/linalg.py",
           "np.flatnonzero(~(pivot_sq > 1e-10 * gram_diag))",
           "np.flatnonzero(pivot_sq <= 1e-10 * gram_diag)",
           (NON_FINITE + "::test_nan_diagonal_system",)),
    Mutant("non-finite solution returned", "src/gaga/linalg.py",
           "if not (np.isfinite(sol).all() and (not inverse or np.isfinite(inv_diag).all())):",
           "if False:",
           (NON_FINITE + "::test_nan_rhs",
            NON_FINITE + "::test_nan_gram_entry_of_a_frozen_coordinate",
            "tests/test_properties.py::test_kernel_gives_finite_output_or_a_typed_error")),
    Mutant("one-dimensional design accepted", "src/gaga/types.py",
           "if x.ndim != 2:", "if False:", (VALIDATION + "::test_problem_shape_rejected",)),
    Mutant("two-dimensional response accepted", "src/gaga/types.py",
           "if arr.ndim != 1:", "if False:", (VALIDATION + "::test_problem_shape_rejected",)),
    Mutant("empty problem accepted", "src/gaga/types.py",
           "if n < 1 or p < 1:", "if False:", (VALIDATION + "::test_problem_shape_rejected",)),
    Mutant("estimate length mismatch accepted", "src/gaga/types.py",
           "if not (coef.shape == sup.shape == tun.shape):", "if False:",
           (VALIDATION + "::test_estimate_tuning_rejected",)),
    Mutant("negative tuning weight accepted", "src/gaga/types.py",
           "if np.any(tun < 0):", "if False:", (VALIDATION + "::test_estimate_tuning_rejected",)),
    Mutant("nonpositive sigma accepted", "src/gaga/fixed_point.py",
           "if not sigma > 0:", "if False:",
           ("tests/test_fixed_point.py::TestThreshold::test_invalid_sigma",)),
    Mutant("negative z accepted", "src/gaga/fixed_point.py",
           "if z < 0:", "if False:",
           ("tests/test_fixed_point.py::TestClosedForm::test_negative_z_rejected",)),
    Mutant("max_iter below one accepted", "src/gaga/fixed_point.py",
           "if max_iter < 1:", "if False:",
           ("tests/test_fixed_point.py::TestClassify::test_max_iter_below_one_rejected",)),
    Mutant("endpoint draw kept", "src/gaga/datagen.py",
           "while np.any(v == low):", "while False:", ("tests/test_datagen.py::TestOpenUniform",)),
    Mutant("highdim matrix copied before its factorization", "src/gaga/datagen.py",
           'x = _rows(_equicorrelation(p), n, stream_rng(seed, "design"))\n    zero_pos',
           'x = correlated_gaussian_rows(_equicorrelation(p), n, stream_rng(seed, "design"))'
           "\n    zero_pos",
           ("tests/test_counts.py::test_highdim_design_peak_memory",)),
    Mutant("experiment without an output path", "src/gaga/cli.py",
           "if not out:", "if False:",
           ("tests/test_cli.py::TestExperiment::test_no_output_path_fails",)),
    Mutant("experiment ignores sample_sizes", "src/gaga/cli.py",
           "if spec.sample_sizes:", "if False:",
           ("tests/test_cli.py::TestExperiment::test_sample_sizes_fails",)),
    Mutant("usage error left to argparse", "src/gaga/cli.py",
           "raise InvalidInput(message)", "super().error(message)",
           ("tests/test_cli.py::TestUsageErrors::test_one_line_invalid_input",)),
    Mutant("fit accepts --seed", "src/gaga/cli.py",
           "_add_solver_flags(p_fit, seed=False)", "_add_solver_flags(p_fit)",
           ("tests/test_cli.py::TestFit::test_seed_is_a_usage_error",)),
    Mutant("unknown config key ignored", "src/gaga/cli.py",
           "    if unknown:\n", "    if False:\n",
           ("tests/test_cli.py::test_misspelled_config_key_fails",)),
    Mutant("ValueError not caught by main", "src/gaga/cli.py",
           "except (GagaError, OSError, ValueError) as exc:",
           "except (GagaError, OSError) as exc:",
           ("tests/test_cli.py::TestExperiment::test_malformed_config_value_fails",)),
    Mutant("ValueError reported under its own name", "src/gaga/cli.py",
           'kind = "InvalidInput" if isinstance(exc, ValueError) else type(exc).__name__',
           "kind = type(exc).__name__",
           ("tests/test_cli.py::TestExperiment::test_malformed_config_value_fails",)),
    Mutant("repeated external replicate accepted", "src/gaga/harness.py",
           "if np.any(counts > 1):", "if False:",
           ("tests/test_cli.py::TestExperiment::test_repeated_external_replicate_fails",)),
)


def run_tests(root, tests):
    """The node ids of the failed or erroring tests, and pytest's exit code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, capture_output=True, text=True)
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return failed, proc.returncode, proc.stdout


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}")
        return 1
    mutants = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="gaga-mutants-") as tmp:
        root = Path(tmp)
        for item in COPIED:
            source = ROOT / item
            if source.is_dir():
                shutil.copytree(source, root / item, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, root / item)
        selected = sorted({t for m in mutants for t in m.tests})
        failed, code, out = run_tests(root, selected)
        if code != 0:
            print(f"the named tests do not pass on the unmutated source (exit {code}):")
            print(out[-3000:])
            return 1
        bad = 0
        for m in mutants:
            path = root / m.path
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"STALE     {m.name}: old text found {text.count(m.old)} times in {m.path}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            try:
                failed, code, out = run_tests(root, m.tests)
            finally:
                path.write_text(text)
            if code not in (0, 1):
                print(f"ERROR     {m.name}: pytest exit {code}\n{out[-3000:]}")
                bad += 1
                continue
            caught = [t for t in m.tests if any(f.startswith(t) for f in failed)]
            if m.survives:
                verdict = "SURVIVES" if not caught else "KILLED   (listed as a survivor)"
            elif len(caught) == len(m.tests):
                verdict = "KILLED"
            else:
                verdict = "SURVIVED"
                bad += 1
            missed = [t for t in m.tests if t not in caught]
            detail = f" (not failed: {', '.join(missed)})" if missed and not m.survives else ""
            print(f"{verdict:9} {m.name}{detail}")
    print(f"{len(mutants)} mutants, {bad} not as listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
