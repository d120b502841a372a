import csv
import math

import numpy as np
import pytest

from gaga import GagaConfig, InvalidInput
from gaga.datagen import CONSISTENCY, MODEL1, gen_model1, replicate_seed
from gaga.harness import (
    BENCH_COLUMNS,
    CSV_COLUMNS,
    ExperimentSpec,
    ExternalEstimates,
    GagaEstimator,
    benchmark_timing,
    generate_instance,
    ks_distance,
    read_matrix,
    run_consistency_sweep,
    run_experiment,
    validate_theorems,
    write_rows,
)


class TestKsDistance:
    def test_single_point_at_median(self):
        # empirical cdf jumps 0 -> 1 at 0 where the normal cdf is 0.5
        assert ks_distance([0.0]) == pytest.approx(0.5)

    def test_large_normal_sample_small_distance(self):
        rng = np.random.default_rng(0)
        d = ks_distance(rng.standard_normal(20_000))
        assert d < 0.02

    def test_shifted_sample_large_distance(self):
        rng = np.random.default_rng(1)
        d = ks_distance(rng.standard_normal(20_000) + 3.0)
        # population value is Phi(1.5) - Phi(-1.5) ~= 0.866
        assert d == pytest.approx(0.866, abs=0.02)

    def test_empty_sample(self):
        with pytest.raises(InvalidInput):
            ks_distance([])

    def test_matches_erf_loop(self):
        xs = np.sort(np.random.default_rng(2).standard_normal(500) * 1.3)
        cdf = [0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in xs]
        loop = max(max((i + 1) / 500 - c, c - i / 500) for i, c in enumerate(cdf))
        assert ks_distance(xs) == pytest.approx(loop, rel=0, abs=1e-15)


class _OracleEstimator:
    """Returns the true coefficients; the harness should score ERR=0, ACC=1."""

    name = "oracle"

    def coefficients(self, instance, replicate):
        return instance.beta_true


class _FailingEstimator:
    name = "broken"

    def coefficients(self, instance, replicate):
        raise InvalidInput("no estimate available")


class TestRunExperiment:
    def test_row_counts_and_summary(self):
        spec = ExperimentSpec(model=MODEL1, replicates=5,
                              estimators=(GagaEstimator(), _OracleEstimator()))
        rows = run_experiment(spec)
        data = [r for r in rows if r["status"] == "ok"]
        summary = [r for r in rows if r["status"] == "summary"]
        assert len(data) == 10
        assert len(summary) == 4  # mean + std per estimator
        oracle = [r for r in data if r["estimator"] == "oracle"]
        assert all(r["err"] == 0.0 and r["acc"] == 1.0 for r in oracle)

    def test_summary_mean_is_arithmetic_mean(self):
        spec = ExperimentSpec(model=MODEL1, replicates=8,
                              estimators=(GagaEstimator(),))
        rows = run_experiment(spec)
        errs = [float(r["err"]) for r in rows if r["status"] == "ok"]
        mean_row = next(r for r in rows
                        if r["status"] == "summary" and r["replicate"] == "mean")
        assert mean_row["err"] == pytest.approx(sum(errs) / len(errs), rel=1e-12)
        std_row = next(r for r in rows
                       if r["status"] == "summary" and r["replicate"] == "std")
        mu = sum(errs) / len(errs)
        pop_std = math.sqrt(sum((e - mu) ** 2 for e in errs) / len(errs))
        assert std_row["err"] == pytest.approx(pop_std, rel=1e-10)

    def test_failing_estimator_recorded_not_fatal(self):
        spec = ExperimentSpec(model=MODEL1, replicates=3,
                              estimators=(_FailingEstimator(), GagaEstimator()))
        rows = run_experiment(spec)
        broken = [r for r in rows if r["estimator"] == "broken"
                  and r["replicate"] != "mean" and r["replicate"] != "std"]
        assert all(r["status"] == "InvalidInput" for r in broken)
        ok = [r for r in rows if r["estimator"] == "gaga" and r["status"] == "ok"]
        assert len(ok) == 3

    def test_output_csv_round_trip(self, tmp_path):
        out = tmp_path / "exp.csv"
        spec = ExperimentSpec(model=MODEL1, replicates=2,
                              estimators=(GagaEstimator(),))
        rows = run_experiment(spec)
        write_rows(out, rows)
        with open(out) as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        assert list(back[0].keys()) == CSV_COLUMNS
        assert float(back[0]["err"]) == float(rows[0]["err"])

    def test_invalid_spec(self):
        with pytest.raises(InvalidInput):
            ExperimentSpec(model=MODEL1, replicates=0, estimators=(GagaEstimator(),))
        with pytest.raises(InvalidInput):
            ExperimentSpec(model=MODEL1, replicates=1, estimators=())

    def test_unknown_model(self):
        with pytest.raises(InvalidInput):
            generate_instance("nope", 0)

    def test_unexpected_model_parameter(self):
        with pytest.raises(InvalidInput, match="'model1' needs no parameter, got n"):
            generate_instance(MODEL1, 0, n=50)

    def test_duplicate_estimator_names(self):
        # Two estimators under one name would pool their summary rows.
        with pytest.raises(InvalidInput, match="names must differ"):
            ExperimentSpec(model=MODEL1, replicates=1,
                           estimators=(GagaEstimator(), GagaEstimator()))


class TestReadMatrix:
    def test_header_and_comments_anywhere(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# made by hand\n\nx1,x2\n1,2\n# middle\n3,4\n")
        data, comments = read_matrix(path)
        assert np.array_equal(data, [[1.0, 2.0], [3.0, 4.0]])
        assert comments == ["# made by hand", "# middle"]

    @pytest.mark.parametrize("text", ["", "# only a comment\n", "x1,x2\n"])
    def test_no_data_rows(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InvalidInput, match="no data rows"):
            read_matrix(path)


class TestExternalEstimates:
    def test_oracle_file_scores_perfectly(self, tmp_path):
        # write the true coefficients of each replicate to a file, then let
        # the harness read them back as an external estimator
        spec = ExperimentSpec(model=MODEL1, replicates=3,
                              estimators=(GagaEstimator(),))
        path = tmp_path / "ext.csv"
        with open(path, "w") as fh:
            fh.write("# oracle estimates, snap=1e-8\n")
            fh.write("replicate," + ",".join(f"b{j+1}" for j in range(8)) + "\n")
            for rep in range(3):
                inst = gen_model1(replicate_seed(0, rep))
                fh.write(str(rep) + ","
                         + ",".join(repr(float(v)) for v in inst.beta_true) + "\n")
        ext = ExternalEstimates(path, name="ext")
        spec = ExperimentSpec(model=MODEL1, replicates=3, estimators=(ext,))
        rows = run_experiment(spec)
        data = [r for r in rows if r["status"] == "ok"]
        assert len(data) == 3
        assert all(r["err"] == 0.0 and r["acc"] == 1.0 for r in data)

    def test_snap_zeroes_small_entries(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("# snap=0.01\nreplicate,b1,b2\n0,0.005,2.0\n")
        ext = ExternalEstimates(path)
        vals = ext.coefficients(None, 0)
        assert np.array_equal(vals, [0.0, 2.0])

    def test_missing_replicate(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("replicate,b1\n0,1.0\n")
        ext = ExternalEstimates(path)
        with pytest.raises(InvalidInput):
            ext.coefficients(None, 5)

    def test_file_without_header_keeps_first_replicate(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("0,1.5,0.0\n1,2.5,3.0\n")
        ext = ExternalEstimates(path)
        assert np.array_equal(ext.coefficients(None, 0), [1.5, 0.0])
        assert np.array_equal(ext.coefficients(None, 1), [2.5, 3.0])

    def test_non_integer_replicate(self, tmp_path):
        path = tmp_path / "ext.csv"
        path.write_text("replicate,b1\n0.5,1.0\n")
        with pytest.raises(InvalidInput, match="integers"):
            ExternalEstimates(path)


class TestConsistencySweep:
    def test_row_count_and_columns(self):
        spec = ExperimentSpec(model=CONSISTENCY, replicates=4,
                              estimators=(GagaEstimator(),),
                              sample_sizes=(30, 60, 90))
        rows = run_consistency_sweep(spec)
        assert len(rows) == 3
        assert [r["sample_size"] for r in rows] == [30, 60, 90]
        assert all(r["replicates"] == 4 for r in rows)

    def test_runs_the_spec_model(self):
        # model1 takes no n, so a sweep over it is an error, not a silent
        # consistency sweep.
        spec = ExperimentSpec(model=MODEL1, replicates=1,
                              estimators=(GagaEstimator(),), sample_sizes=(30,))
        with pytest.raises(InvalidInput, match="'model1' needs no parameter"):
            run_consistency_sweep(spec)

    def test_requires_sample_sizes(self):
        spec = ExperimentSpec(model=CONSISTENCY, replicates=2,
                              estimators=(GagaEstimator(),))
        with pytest.raises(InvalidInput):
            run_consistency_sweep(spec)


class TestValidateTheorems:
    def test_small_run_fields(self):
        rep = validate_theorems(n=200, replicates=20,
                                beta_star=[3.0, 0.0], sigma_star=[1.0, 1.0])
        assert rep.sample_size == 200
        assert rep.replicates == 20
        assert rep.zero_positions == 20
        assert rep.nonzero_positions == 20
        assert 0.0 <= rep.truncation_rate_zero_coef <= 1.0
        assert 0.0 <= rep.retention_rate_nonzero_coef <= 1.0
        # strong signal at n=200 should be both retained and well localized
        assert rep.retention_rate_nonzero_coef >= 0.9
        assert rep.truncation_rate_zero_coef >= 0.9

    def test_all_zero_signal_has_no_nonzero_rates(self):
        rep = validate_theorems(n=50, replicates=3, beta_star=[0.0, 0.0],
                                sigma_star=[1.0, 1.0])
        assert rep.nonzero_positions == 0
        assert math.isnan(rep.retention_rate_nonzero_coef)
        assert math.isnan(rep.normality_statistic)
        assert math.isnan(rep.tuning_limit_error)
        assert 0.0 <= rep.truncation_rate_zero_coef <= 1.0

    def test_deterministic(self):
        a = validate_theorems(50, 5, [2.0, 0.0], [1.0, 1.0])
        b = validate_theorems(50, 5, [2.0, 0.0], [1.0, 1.0])
        assert a == b


class TestBenchmark:
    def test_rows_and_positive_times(self, tmp_path):
        out = tmp_path / "bench.csv"
        rows = benchmark_timing([10, 20], n=60, repeats=2)
        assert len(rows) == 4
        assert {r["estimator"] for r in rows} == {"gaga", "gaga_qr"}
        assert all(r["mean_s"] > 0 and r["median_s"] > 0 for r in rows)
        write_rows(out, rows, BENCH_COLUMNS)
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_p_greater_than_n_rejected(self):
        with pytest.raises(InvalidInput):
            benchmark_timing([100], n=50, repeats=1)


def test_write_rows_uses_full_precision_floats(tmp_path):
    out = tmp_path / "rows.csv"
    value = 0.1 + 0.2  # not exactly representable in short decimal form
    write_rows(out, [{"model_tag": "t", "err": value}],
               columns=["model_tag", "err"])
    with open(out) as fh:
        back = list(csv.DictReader(fh))
    assert float(back[0]["err"]) == value
