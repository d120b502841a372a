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
UNWRITTEN = RECURSION + "::test_gram_left_unwritten"
ORACLE_INPUT = "tests/test_fixed_point.py::TestNonFiniteInput"
SELECTION_FLOOR = ("tests/test_selection_theory.py::"
                   "test_false_positive_rate_matches_the_scalar_floor")
ESTIMATED_FLOOR = ("tests/test_selection_theory.py::"
                   "test_false_positive_floor_under_estimated_variance")
FREEZING = "tests/test_linalg.py::TestFreezing"
QR_PIVOT = "tests/test_qr.py::TestCholeskyQr::test_failed_pivot_is_named_by_its_design_column"
NON_FINITE = "tests/test_linalg.py::TestNonFiniteInput"
VALIDATION = "tests/test_solver.py::TestConfigValidation"
SWEEP = "tests/test_harness.py::TestConsistencySweep"
SIZES = "tests/test_datagen.py::TestIntegerSizesAndSeeds::test_non_integer_rejected"
NEGATIVE = "tests/test_datagen.py::TestIntegerSizesAndSeeds::test_negative_"
IN_PLACE_QR = "tests/test_qr.py::TestInPlaceCholeskyQr"
NON_FINITE_ROW = ("tests/test_cli.py::TestExperiment::"
                  "test_non_finite_external_estimate_is_a_row_status")
SCIPY_MODULES = "tests/test_linalg.py::TestCompiledScipyModules"
LOADER = 'blas, lapack = _load_extension("_fblas"), _load_extension("_flapack")'
MIN_MAX = "np.isfinite(a.min()) and np.isfinite(a.max())"
SYMMETRIC_GRAM = "tests/test_linalg.py::TestBuildGram::test_gram_exactly_symmetric"
SCIPY_GRAM = "tests/test_linalg.py::TestBuildGram::test_gram_and_cross_take_scipy_blas"
SHARED_GRAM = "tests/test_solver.py::TestGagaFit::test_threads_sharing_one_gram_system"

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
           "gram, active, penalty_diag, rhs)",
           "gram, np.arange(active.size), penalty_diag, rhs)",
           (FREEZING + "::test_frozen_coordinates_match_explicit_inverse",
            FREEZING + "::test_frozen_coordinates_above_block")),
    # The one rank check judges both fits' factors, so both tests see it.
    Mutant("failed pivot reported by its position in the factor", "src/gaga/linalg.py",
           "raise SingularSystem(pivot=int(index[bad[0]]))",
           "raise SingularSystem(pivot=int(bad[0]))",
           ("tests/test_solver.py::TestActiveSet::test_active_block_failure_reports_its_coordinate",
            QR_PIVOT)),
    Mutant("QR pivot reported by its permuted position", "src/gaga/qr.py",
           "check_rank(np.diagonal(r) ** 2, diagonal[perm], perm)",
           "check_rank(np.diagonal(r) ** 2, diagonal[perm], np.arange(perm.size))",
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
           'return np.array(rows[first:last, first:last], order="C").T',
           "return rows[first:last, first:last].T",
           ("tests/test_linalg.py::TestSpdSolve::test_in_place_factorization_matches_out_of_place",)),
    Mutant("no block recursion", "src/gaga/linalg.py",
           "BLOCK = 128", "BLOCK = 10**9",
           (RECURSION + "::test_matches_explicit_inverse",
            "tests/test_counts.py::test_plain_fit_peak_memory_above_block",
            "tests/test_counts.py::test_plain_fit_peak_memory_at_p_500")),
    Mutant("W21 scaled by -0.999999", "src/gaga/linalg.py",
           "half, _real(-1.0), corner, ld, below, ld)",
           "half, _real(-0.999999), corner, ld, below, ld)",
           (RECURSION + "::test_matches_explicit_inverse",
            RECURSION + "::test_accuracy_matches_unblocked_kernel")),
    Mutant("gram's upper triangle not restored", "src/gaga/linalg.py",
           "        mirror_upper(leading[::-1, ::-1])\n", "",
           (UNWRITTEN + "[C]", UNWRITTEN + "[F]",
            FREEZING + "::test_frozen_coordinates_above_block")),
    Mutant("gram's diagonal not restored", "src/gaga/linalg.py",
           "        np.fill_diagonal(rows, diagonal)\n", "",
           (UNWRITTEN + "[C]", UNWRITTEN + "[F]")),
    Mutant("restore skipped when the recursion raises", "src/gaga/linalg.py",
           "    finally:\n        mirror_upper(leading",
           "    except SingularSystem:\n        raise\n    if True:\n        mirror_upper(leading",
           (UNWRITTEN + "[C]", UNWRITTEN + "[F]")),
    Mutant("gram that cannot be written solved in place", "src/gaga/linalg.py",
           "if not (rows.flags.writeable and rows.flags.c_contiguous):", "if False:",
           (RECURSION + "::test_gram_that_cannot_be_written_is_copied[read-only]",
            RECURSION + "::test_gram_that_cannot_be_written_is_copied[strided]")),
    # The compaction, the leaves' copy-back and every mirror share one strip
    # copy, so its mask, transposed, writes each strip's diagonal square over
    # the lower triangle, which holds G.
    Mutant("diagonal square of a strip written over the lower triangle", "src/gaga/linalg.py",
           "_UPPER = np.tri(STRIP, dtype=bool).T", "_UPPER = np.tri(STRIP, dtype=bool)",
           (UNWRITTEN + "[C]", RECURSION + "::test_matches_explicit_inverse")),
    Mutant("QR ordering outside the kernel", "src/gaga/qr.py",
           "ols, diagonal = spd_solve_in_place(gs.gram, gs.cross)",
           "ols, diagonal = np.linalg.solve(gs.gram, gs.cross), gs.diagonal.copy()",
           ("tests/test_counts.py::test_qr_fit_counts",
            "tests/test_counts.py::test_per_layer_record_has_no_null[gaga.qr-gaga_qr_fit]")),
    Mutant("QR trace left in OLS order", "src/gaga/qr.py",
           "estimated_variance=theta.estimated_variance, trace=trace)",
           "estimated_variance=theta.estimated_variance, trace=theta.trace)",
           ("tests/test_qr.py::TestGagaQrFit::test_trace_is_in_design_column_order",)),
    Mutant("QR trace inverse diagonal left in OLS order", "src/gaga/qr.py",
           "inv_diag=s.inv_diag[design])", "inv_diag=s.inv_diag)",
           ("tests/test_qr.py::TestGagaQrFit::test_traced_state_is_in_one_order",)),
    Mutant("design multiplied out of place", "src/gaga/datagen.py",
           "blas.dtrmm(1.0, chol, x.T, lower=1, overwrite_b=1)",
           "blas.dtrmm(1.0, chol, x.T, lower=1, overwrite_b=0)",
           ("tests/test_counts.py::test_general_correlation_peak_memory",)),
    Mutant("equicorrelation not recognised", "src/gaga/datagen.py",
           "return off.min() == off.max()", "return False",
           ("tests/test_counts.py::test_correlated_design_peak_memory",
            "tests/test_datagen.py::TestCorrelatedRows::"
            "test_equicorrelation_takes_the_closed_form")),
    Mutant("closed-form factor one pivot off", "src/gaga/datagen.py",
           "below = rho * (1 - rho) / m[:-1] / diag", "below = rho * (1 - rho) / m[1:] / diag",
           ("tests/test_datagen.py::TestCorrelatedRows::test_matches_textbook_product",)),
    Mutant("non-finite correlation accepted", "src/gaga/datagen.py",
           "if correlation.size and not", "if False and not",
           ("tests/test_datagen.py::TestCorrelatedRows::test_non_finite_rejected",)),
    Mutant("caller's correlation checked through a p×p boolean", "src/gaga/datagen.py",
           "correlation.size and not (np.isfinite(correlation.min())\n"
           "                                 and np.isfinite(correlation.max()))",
           "not np.isfinite(correlation).all()",
           ("tests/test_counts.py::test_correlation_check_makes_no_p_by_p_temporary",)),
    Mutant("failed factorization accepted", "src/gaga/datagen.py",
           "if info != 0 or not", "if not",
           ("tests/test_datagen.py::TestCorrelatedRows::test_non_pd_general_matrix_rejected",)),
    Mutant("overflowing factor accepted", "src/gaga/datagen.py",
           " or not np.isfinite(np.diagonal(chol)).all()", "",
           ("tests/test_properties.py::"
            "test_every_correlation_gives_finite_rows_or_a_typed_error",)),
    Mutant("kernel shape check dropped", "src/gaga/linalg.py",
           "if penalty_diag.shape != (p,) or rhs.shape != (p,):", "if False:",
           ("tests/test_linalg.py::TestSpdSolve::test_shape_mismatch_rejected",)),
    Mutant("closed form warns on overflow", "src/gaga/linalg.py",
           '        with np.errstate(over="ignore"):  # an overflow raises in _require_finite\n'
           "            sol, inv_diag = rhs / diag, 1.0 / diag\n",
           "        sol, inv_diag = rhs / diag, 1.0 / diag\n",
           ("tests/test_linalg.py::test_overflowing_closed_form_raises_without_a_warning",)),
    Mutant("NaN penalty accepted", "src/gaga/linalg.py",
           "if not (penalty_diag >= 0).all():", "if np.any(penalty_diag < 0):",
           (NON_FINITE + "::test_nan_penalty",)),
    Mutant("NaN pivot passes the rank rule", "src/gaga/linalg.py",
           "np.flatnonzero(~(pivot_sq > 1e-10 * gram_diag))",
           "np.flatnonzero(pivot_sq <= 1e-10 * gram_diag)",
           (NON_FINITE + "::test_nan_diagonal_system",)),
    Mutant("non-finite solution returned", "src/gaga/linalg.py",
           "if not all(np.isfinite(a).all() for a in outputs):",
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
           "if coef.shape != tun.shape:", "if False:",
           (VALIDATION + "::test_estimate_tuning_rejected",)),
    Mutant("support read as the positive coefficients", "src/gaga/types.py",
           "return self.coefficients != 0.0", "return self.coefficients > 0.0",
           (VALIDATION + "::test_support_is_the_nonzero_coefficients",)),
    Mutant("non-integer count accepted", "src/gaga/types.py",
           "return operator.index(value)", "return value",
           (VALIDATION + "::test_iterations_must_be_an_integer",
            "tests/test_harness.py::TestRunExperiment::test_non_integer_replicates",
            "tests/test_harness.py::TestValidateTheorems::test_non_integer_replicates",
            "tests/test_harness.py::TestBenchmark::test_non_integer_repeats")),
    Mutant("non-real alpha compared", "src/gaga/types.py",
           "if not isinstance(self.alpha, numbers.Real):", "if False:",
           (VALIDATION + "::test_alpha_must_be_a_real_number",)),
    Mutant("ACC without the false negatives", "src/gaga/metrics.py",
           "right / (right + self.false_positives + self.false_negatives)",
           "right / (right + self.false_positives)",
           ("tests/test_metrics.py::TestAcc::test_acc_is_computed_from_the_counts",
            "tests/test_metrics.py::TestAcc::test_all_zero_estimate")),
    Mutant("negative tuning weight accepted", "src/gaga/types.py",
           "if np.any(tun < 0):", "if False:", (VALIDATION + "::test_estimate_tuning_rejected",)),
    Mutant("nonpositive sigma accepted", "src/gaga/fixed_point.py",
           "if not 0 < sigma < math.inf:", "if False:",
           ("tests/test_fixed_point.py::TestThreshold::test_invalid_sigma",)),
    Mutant("infinite sigma accepted", "src/gaga/fixed_point.py",
           "0 < sigma < math.inf", "0 < sigma",
           (ORACLE_INPUT + "::test_infinite_sigma_threshold[inf]",
            ORACLE_INPUT + "::test_regime_rejects_non_finite[sigma-inf]")),
    Mutant("negative z accepted", "src/gaga/fixed_point.py",
           "if not 0 <= z < math.inf:", "if False:",
           ("tests/test_fixed_point.py::TestClosedForm::test_negative_z_rejected",)),
    Mutant("non-finite z accepted", "src/gaga/fixed_point.py",
           "if not 0 <= z < math.inf:", "if z < 0:",
           (ORACLE_INPUT + "::test_regime_rejects_non_finite[z-nan]",
            ORACLE_INPUT + "::test_regime_rejects_non_finite[z-inf]")),
    Mutant("infinite alpha accepted by the oracle", "src/gaga/fixed_point.py",
           "if not 1 < alpha < math.inf:", "if not 1 < alpha:",
           (ORACLE_INPUT + "::test_non_finite_alpha[inf]",)),
    Mutant("non-finite coefficient accepted by the tuning limit", "src/gaga/fixed_point.py",
           "if not math.isfinite(beta_star):", "if False:",
           (ORACLE_INPUT + "::test_non_finite_coefficient[nan]",
            ORACLE_INPUT + "::test_non_finite_coefficient[inf]")),
    Mutant("underflowing coefficient accepted by the tuning limit", "src/gaga/fixed_point.py",
           "if limit == math.inf:", "if False:",
           (ORACLE_INPUT + "::test_underflowing_square",)),
    Mutant("textbook closed form of the fixed point", "src/gaga/fixed_point.py",
           "    root = math.sqrt(max(1.0 - 4 * alpha * (alpha - 1) * (sigma / a) ** 2, 0.0))\n"
           "    return 2 * alpha * (sigma / a) * sigma / (1.0 + root)\n",
           "    disc = max(a * a - 4 * alpha * (alpha - 1) * sigma * sigma, 0.0)\n"
           "    return (a - math.sqrt(disc)) / (2 * (alpha - 1))\n",
           ("tests/test_fixed_point.py::TestClosedForm::"
            "test_matches_the_converged_iterate_for_large_z",
            "tests/test_fixed_point.py::TestClosedForm::test_largest_z_keeps_its_root")),
    Mutant("overflowing threshold returned", "src/gaga/fixed_point.py",
           "    if threshold == math.inf:\n", "    if False:\n",
           (ORACLE_INPUT + "::test_overflowing_threshold",)),
    Mutant("recursion step squares x + sigma", "src/gaga/fixed_point.py",
           "return regime.alpha * (s / (1.0 + regime.z / s))",
           "return regime.alpha * s * s / (s + regime.z)",
           (ORACLE_INPUT + "::test_large_regime_converges_without_overflow",)),
    Mutant("max_iter below one accepted", "src/gaga/fixed_point.py",
           "if max_iter < 1:", "if False:",
           ("tests/test_fixed_point.py::TestClassify::test_max_iter_below_one_rejected",)),
    Mutant("endpoint draw kept", "src/gaga/datagen.py",
           "while np.any(v == low):", "while False:", ("tests/test_datagen.py::TestOpenUniform",)),
    Mutant("design checked for non-finite entries through a temporary", "src/gaga/types.py",
           MIN_MAX, "np.isfinite(a).all()",
           ("tests/test_counts.py::test_highdim_design_peak_memory",)),
    Mutant("-inf passes the design check", "src/gaga/types.py",
           MIN_MAX, "np.isfinite(a.max())",
           (VALIDATION + "::test_non_finite_entry_rejected",)),
    Mutant("gram checked for non-finite entries through a temporary", "src/gaga/linalg.py",
           "np.isfinite(gram.min()) and np.isfinite(gram.max())", "np.isfinite(gram).all()",
           ("tests/test_counts.py::test_qr_fit_peak_memory",)),
    Mutant("gram built by numpy", "src/gaga/linalg.py",
           "gram = blas.dsyrk(1.0, x.T, lower=1).T", "gram = x.T @ x",
           (SCIPY_GRAM + "[C]",)),
    Mutant("X'y by numpy", "src/gaga/linalg.py",
           "cross = matvec(x.T, y)", "cross = x.T @ y",
           (SCIPY_GRAM + "[C]", SCIPY_GRAM + "[F]")),
    Mutant("gram from the upper triangle", "src/gaga/linalg.py",
           "blas.dsyrk(1.0, x.T, lower=1).T",
           "np.ascontiguousarray(blas.dsyrk(1.0, x.T, lower=0))",
           (SCIPY_GRAM + "[C]",)),
    Mutant("F-order design copied before the gram", "src/gaga/linalg.py",
           "    if x.flags.f_contiguous:\n        gram = blas.dsyrk",
           "    if False:\n        gram = blas.dsyrk",
           ("tests/test_counts.py::test_gram_peak_memory[F]",)),
    Mutant("R checked for non-finite entries through a temporary", "src/gaga/qr.py",
           MIN_MAX, "np.isfinite(a).all()",
           ("tests/test_counts.py::test_qr_fit_peak_memory",)),
    Mutant("-inf passes the back-map's check", "src/gaga/qr.py",
           MIN_MAX, "np.isfinite(a.max())",
           ("tests/test_qr.py::TestBackMap::test_non_finite_entry_rejected[r--inf]",
            "tests/test_qr.py::TestBackMap::test_non_finite_entry_rejected[b--inf]")),
    Mutant("back-map ignores a zero pivot", "src/gaga/qr.py",
           "if info > 0:", "if False:",
           ("tests/test_qr.py::TestBackMap::test_zero_pivot_is_singular",)),
    Mutant("LAPACK loaded through the scipy.linalg package", "src/gaga/linalg.py",
           LOADER, "from scipy.linalg import blas, lapack",
           (SCIPY_MODULES + "::test_fits_never_import_scipy_linalg",)),
    Mutant("extension loaded twice", "src/gaga/linalg.py",
           "    if full in sys.modules:\n        return sys.modules[full]\n", "",
           (SCIPY_MODULES + "::test_a_loaded_module_is_returned_as_it_is",)),
    Mutant("variance floor not applied", "src/gaga/solver.py",
           "if var < floor:", "if False:",
           ("tests/test_solver.py::TestGagaFit::test_noiseless_response_floors_the_variance",)),
    Mutant("experiment without an output path", "src/gaga/cli.py",
           'if not settings.get("out"):', "if False:",
           ("tests/test_cli.py::TestExperiment::test_no_output_path_fails",)),
    Mutant("experiment ignores sample_sizes", "src/gaga/harness.py",
           "if spec.sample_sizes:", "if False:",
           ("tests/test_harness.py::TestRunExperiment::test_rejects_sample_sizes",
            "tests/test_cli.py::TestExperiment::test_sample_sizes_fails")),
    Mutant("sweep drops record_timing", "src/gaga/harness.py",
           "if spec.record_timing:\n        raise", "if False:\n        raise",
           (SWEEP + "::test_rejects_record_timing",
            "tests/test_cli.py::TestSweep::test_sweep_rejects_record_timing")),
    Mutant("repeated config key: the last line wins", "src/gaga/cli.py",
           "if key in raw:", "if False:",
           ("tests/test_cli.py::test_repeated_config_key_fails",)),
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
    Mutant("snap directive read only without spaces", "src/gaga/harness.py",
           r'r"snap\s*=([^,]*)"', r'r"snap=([^,]*)"',
           ("tests/test_harness.py::TestExternalEstimates::test_snap_allows_spaces",)),
    Mutant("record_timing of any type accepted", "src/gaga/harness.py",
           "if not isinstance(self.record_timing, (bool, np.bool_)):", "if False:",
           ("tests/test_harness.py::TestRunExperiment::test_record_timing_must_be_a_bool",)),
    Mutant("record_trace of any type accepted", "src/gaga/types.py",
           "if not isinstance(self.record_trace, (bool, np.bool_)):", "if False:",
           (VALIDATION + "::test_record_trace_must_be_a_bool",)),
    Mutant("non-integer sample size truncated by the sweep", "src/gaga/harness.py",
           '        for n in self.sample_sizes or ():\n            integral(n, "sample_sizes")\n',
           "", (SWEEP + "::test_non_integer_sample_size",)),
    Mutant("non-integer seed truncated", "src/gaga/datagen.py",
           'entropy=_seed(seed, "seed")', "entropy=int(seed)",
           (SIZES + "[model1-seed]", SIZES + "[stream-seed]")),
    Mutant("non-integer base seed truncated", "src/gaga/datagen.py",
           '_seed(base_seed, "base_seed")', "int(base_seed)",
           (SIZES + "[replicate-base_seed]",
            "tests/test_harness.py::TestRunExperiment::test_non_integer_base_seed")),
    Mutant("non-integer n reaches the design draw", "src/gaga/datagen.py",
           'if integral(n, "n") < 0:', "if n < 0:",
           (SIZES + "[rows-n]", SIZES + "[highdim-n]",
            "tests/test_harness.py::TestBenchmark::test_non_integer_size[n]")),
    Mutant("non-integer p reaches the highdim draw", "src/gaga/datagen.py",
           'if integral(p, "p") < 0:', "if p < 0:",
           (SIZES + "[highdim-p]", "tests/test_harness.py::TestBenchmark::test_non_integer_size[p]")),
    Mutant("non-integer consistency n", "src/gaga/datagen.py",
           'if integral(n, "n") < p:', "if n < p:", (SIZES + "[consistency-n]",)),
    Mutant("non-integer orthogonal sizes", "src/gaga/datagen.py",
           'if integral(p, "p") < 0 or integral(n, "n") < p:', "if p < 0 or n < p:",
           (SIZES + "[orthogonal-n]", SIZES + "[orthogonal-p]",
            "tests/test_harness.py::TestValidateTheorems::test_non_integer_n")),
    Mutant("negative seed reaches SeedSequence", "src/gaga/datagen.py",
           "if value < 0:", "if False:", (NEGATIVE + "seed_rejected",)),
    Mutant("negative p reaches the highdim draw", "src/gaga/datagen.py",
           'if integral(p, "p") < 0:', "if False:", (NEGATIVE + "size_rejected[highdim-p]",)),
    Mutant("negative orthogonal sizes reach the length check", "src/gaga/datagen.py",
           'integral(p, "p") < 0 or integral(n, "n") < p', 'integral(n, "n") < integral(p, "p")',
           (NEGATIVE + "size_rejected[orthogonal-p]", NEGATIVE + "size_rejected[orthogonal-n]")),
    Mutant("QR gram permuted by a copy", "src/gaga/qr.py",
           "        _permute_in_place(rows, diagonal, perm)",
           "        _permute_in_place(rows, diagonal, np.arange(perm.size))\n"
           "        rows = rows[np.ix_(perm, perm)]",
           ("tests/test_counts.py::test_qr_fit_peak_memory",
            IN_PLACE_QR + "::test_fit_factorizes_the_gram_in_place")),
    Mutant("least-squares factor clears G's other triangle", "src/gaga/linalg.py",
           "lower=1, overwrite_a=1, clean=0)", "lower=1, overwrite_a=1, clean=1)",
           (IN_PLACE_QR + "::test_permuted_buffer_is_the_fancy_index_copy",
            IN_PLACE_QR + "::test_fit_factorizes_the_gram_in_place")),
    Mutant("QR gram diagonal not restored", "src/gaga/qr.py",
           "diagonal[k:k + 1]", "rows[k, k:k + 1]",
           (IN_PLACE_QR + "::test_permuted_buffer_is_the_fancy_index_copy",
            IN_PLACE_QR + "::test_fit_factorizes_the_gram_in_place")),
    # build_gram, the QR permutation and the kernel's restore share one
    # mirror. A last strip of one row (p = 257 or 513) holds only its
    # diagonal, so the tests that see this one have a longer last strip.
    Mutant("last partial strip of a gram not mirrored", "src/gaga/linalg.py",
           "for s in range(0, rows.shape[0], STRIP):",
           "for s in range(0, rows.shape[0] - rows.shape[0] % STRIP, STRIP):",
           (IN_PLACE_QR + "::test_fit_factorizes_the_gram_in_place",
            SYMMETRIC_GRAM + "[C]", UNWRITTEN + "[C]")),
    Mutant("fit solves in a gram that another fit holds", "src/gaga/linalg.py",
           "        saved = _IN_USE.get(key)\n", "        saved = None\n",
           (SHARED_GRAM + "[C]", SHARED_GRAM + "[F]")),
    Mutant("infinite estimation error scored", "src/gaga/harness.py",
           "if not math.isfinite(report.err):", "if math.isnan(report.err):",
           (NON_FINITE_ROW + "[inf]", NON_FINITE_ROW + "[1e308]")),
    Mutant("NaN snap accepted", "src/gaga/harness.py",
           "if not snap >= 0:", "if snap < 0:",
           ("tests/test_harness.py::TestExternalEstimates::test_bad_snap_rejected[nan]",)),
    Mutant("malformed snap raises a bare ValueError", "src/gaga/harness.py",
           "                    snap = math.nan\n", "                    raise\n",
           ("tests/test_harness.py::TestExternalEstimates::test_bad_snap_rejected[abc]",)),
    Mutant("overflowing distance warns", "src/gaga/metrics.py",
           '    with np.errstate(over="ignore"):\n        return float(',
           "    return float(",
           ("tests/test_metrics.py::TestErr::test_overflow_is_inf_without_a_warning",
            NON_FINITE_ROW + "[1e308]")),
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
