import csv
import warnings

import numpy as np
import pytest

from gaga import GagaConfig, RegressionProblem, gaga_fit
from gaga.cli import main
from gaga.datagen import gen_model1


def single_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error kind=InvalidInput detail=")
    return err


@pytest.fixture
def saved_instance(tmp_path):
    """A model1 instance as a design CSV: header x1..xp,y, then one row per
    observation with every float written by ``repr`` (an exact round trip)."""
    inst = gen_model1(0)
    x, y = inst.problem.design, inst.problem.response
    dpath = tmp_path / "design.csv"
    with open(dpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(x.shape[1])] + ["y"])
        writer.writerows([repr(float(v)) for v in row] for row in np.column_stack([x, y]))
    return inst, dpath


class TestUsageErrors:
    FIT = ["fit", "--design", "x.csv", "--out", "y.csv"]

    @pytest.mark.parametrize("argv", [
        FIT + ["--iterations", "2.5"],
        FIT + ["--variance-mode", "bogus"],
        FIT + ["--no-such-flag"],
        ["fit", "--design", "x.csv"],
        ["experiment"],
        ["bogus"],
        [],
    ], ids=["bad-int", "bad-choice", "unknown-flag", "missing-out", "missing-config",
            "unknown-command", "no-command"])
    def test_one_line_invalid_input(self, capsys, argv):
        assert main(argv) == 1
        single_error_line(capsys)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--help"])
        assert exc.value.code == 0
        assert "--design" in capsys.readouterr().out


class TestFit:
    def test_matches_library_call(self, saved_instance, tmp_path):
        inst, dpath = saved_instance
        out = tmp_path / "fit.csv"
        assert main(["fit", "--design", str(dpath), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        est = gaga_fit(inst.problem, GagaConfig())
        assert len(rows) == 8
        got = np.array([float(r["coefficient"]) for r in rows])
        assert np.array_equal(got, est.coefficients)
        support = np.array([r["support"] == "1" for r in rows])
        assert np.array_equal(support, est.support)

    def test_separate_response_file(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 3))
        y = x[:, 0] * 4 + rng.standard_normal(30)
        xpath, ypath, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "o.csv"
        np.savetxt(xpath, x, delimiter=",")
        np.savetxt(ypath, y, delimiter=",")
        assert main(["fit", "--design", str(xpath), "--response", str(ypath),
                     "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        est = gaga_fit(RegressionProblem(design=x, response=y), GagaConfig())
        assert np.array_equal([float(r["coefficient"]) for r in rows],
                              est.coefficients)

    def test_comment_before_header(self, saved_instance, tmp_path):
        inst, dpath = saved_instance
        commented = tmp_path / "commented.csv"
        commented.write_text("# model1, seed 0\n" + dpath.read_text())
        out = tmp_path / "fit.csv"
        assert main(["fit", "--design", str(commented), "--out", str(out)]) == 0
        with open(out) as fh:
            got = [float(r["coefficient"]) for r in csv.DictReader(fh)]
        assert np.array_equal(got, gaga_fit(inst.problem, GagaConfig()).coefficients)

    def test_qr_flag(self, saved_instance, tmp_path):
        _, dpath = saved_instance
        out = tmp_path / "fit_qr.csv"
        assert main(["fit", "--design", str(dpath), "--qr", "--out", str(out)]) == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 8

    def test_missing_file_reports_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["fit", "--design", str(tmp_path / "absent.csv"),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error kind=")

    def test_empty_design_file_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", "--design", str(empty), "--out", str(tmp_path / "o.csv")]) == 1
        assert "no data rows" in single_error_line(capsys)

    def test_bad_alpha_reports_error(self, saved_instance, tmp_path, capsys):
        _, dpath = saved_instance
        code = main(["fit", "--design", str(dpath), "--alpha", "1.0",
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "error kind=InvalidInput" in capsys.readouterr().err

    def test_infinite_alpha_fails(self, saved_instance, tmp_path, capsys):
        _, dpath = saved_instance
        assert main(["fit", "--design", str(dpath), "--alpha", "inf",
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "alpha must be finite" in single_error_line(capsys)

    @staticmethod
    def _fit_scaled_design(tmp_path, scale):
        """Run ``gaga fit`` on a 50x5 design scaled by ``scale``, with every
        warning turned into an error."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 5))
        y = x @ np.array([1.0, 0.0, 2.0, 0.0, 0.0]) + rng.standard_normal(50)
        xpath, ypath = tmp_path / "x.csv", tmp_path / "y.csv"
        np.savetxt(xpath, x * scale, delimiter=",")
        np.savetxt(ypath, y, delimiter=",")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(["fit", "--design", str(xpath), "--response", str(ypath),
                         "--out", str(tmp_path / "o.csv")])

    def test_huge_design_fits_silently(self, tmp_path, capsys):
        # The dead weights' update overflows to inf before the clamp caps it.
        assert self._fit_scaled_design(tmp_path, 1.5e147) == 0
        assert capsys.readouterr().err == ""

    def test_seed_is_a_usage_error(self, saved_instance, tmp_path, capsys):
        # A fit draws nothing, so a seed would be accepted and ignored.
        out = tmp_path / "fit.csv"
        argv = ["fit", "--design", str(saved_instance[1]), "--out", str(out), "--seed", "5"]
        assert main(argv) == 1
        assert "--seed" in single_error_line(capsys)
        assert not out.exists()

    def test_overflowing_gram_is_invalid_input(self, tmp_path, capsys):
        assert self._fit_scaled_design(tmp_path, 1e155) == 1
        assert "overflows" in single_error_line(capsys)


class TestExperiment:
    def test_config_file_run(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "exp.csv"
        cfg.write_text(
            "# small smoke experiment\n"
            "model = model1\n"
            "replicates = 3\n"
            "estimators = gaga,gaga_qr\n"
            f"out = {out}\n"
        )
        assert main(["experiment", "--config", str(cfg)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        # 3 replicates x 2 estimators + 2 summary rows per estimator
        assert len(rows) == 10
        assert {r["estimator"] for r in rows} == {"gaga", "gaga_qr"}

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "exp.csv"
        cfg.write_text(f"model = model1\nreplicates = 50\nout = {out}\n")
        assert main(["experiment", "--config", str(cfg), "--replicates", "2"]) == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
        assert len(rows) == 2

    def test_reruns_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg.write_text("model = model1\nreplicates = 4\nestimators = gaga\n")
        assert main(["experiment", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["experiment", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_no_output_path_fails(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model = model1\nreplicates = 1\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "no output path" in single_error_line(capsys)

    def test_sample_sizes_fails(self, tmp_path, capsys):
        # Only a sweep reads sample_sizes; an experiment would drop it.
        cfg, out = tmp_path / "exp.cfg", tmp_path / "exp.csv"
        cfg.write_text(f"model = model1\nreplicates = 1\nsample_sizes = 30,60\nout = {out}\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "sample_sizes" in single_error_line(capsys)
        assert not out.exists()

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("model model1\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "error kind=InvalidInput" in capsys.readouterr().err

    def test_consistency_without_n_fails(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"model = consistency\nreplicates = 1\nout = {tmp_path / 'o.csv'}\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "needs n" in single_error_line(capsys)

    def test_orthogonal_model_fails(self, tmp_path, capsys):
        # validate draws the orthogonal designs itself; no experiment runs them.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"model = orthogonal\nreplicates = 1\nout = {tmp_path / 'o.csv'}\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "unknown model 'orthogonal'" in single_error_line(capsys)

    def test_n_for_a_model_without_n_fails(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"model = model1\nn = 50\nreplicates = 1\nout = {tmp_path / 'o.csv'}\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "'model1' needs no parameter, got n" in single_error_line(capsys)

    def test_external_estimators_keep_their_names(self, tmp_path):
        cfg, out = tmp_path / "exp.cfg", tmp_path / "exp.csv"
        paths = []
        for name, value in (("a.csv", "0.5"), ("b.csv", "0.0")):
            path = tmp_path / name
            path.write_text("replicate," + ",".join(f"b{j}" for j in range(1, 9)) + "\n"
                            + "".join(f"{r}," + ",".join([value] * 8) + "\n" for r in range(2)))
            paths.append(f"external:{path}")
        cfg.write_text(f"model = model1\nreplicates = 2\nestimators = {','.join(paths)}\n")
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        means = {r["estimator"]: r for r in rows if r["replicate"] == "mean"}
        # Every coefficient nonzero keeps model1's 5 zeros; all zero keeps none.
        fp = {name: float(r["fp"]) for name, r in means.items()}
        assert fp == {paths[0]: 5.0, paths[1]: 0.0}

    def test_one_external_file_twice_fails(self, tmp_path, capsys):
        path = tmp_path / "ext.csv"
        path.write_text("0," + ",".join(["0.5"] * 8) + "\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"replicates = 1\nestimators = external:{path},external:{path}\n"
                       f"out = {tmp_path / 'o.csv'}\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "names must differ" in single_error_line(capsys)

    def test_repeated_external_replicate_fails(self, tmp_path, capsys):
        # A second row for replicate 0 would otherwise replace the first one.
        path = tmp_path / "ext.csv"
        path.write_text("0," + ",".join(["0.5"] * 8) + "\n0," + ",".join(["0.0"] * 8) + "\n")
        out = tmp_path / "o.csv"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"replicates = 1\nestimators = external:{path}\nout = {out}\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "replicate 0 is repeated" in single_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("line", ["record_timing = maybe", "iterations = 2.5",
                                      "alpha = abc"])
    def test_malformed_config_value_fails(self, tmp_path, capsys, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"model = model1\nreplicates = 1\n{line}\nout = {tmp_path / 'o.csv'}\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        single_error_line(capsys)

    def test_linalg_error_recorded_as_row_status(self, tmp_path, monkeypatch):
        import gaga.harness

        def broken_fit(problem, config):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(gaga.harness, "gaga_fit", broken_fit)
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "exp.csv"
        cfg.write_text(f"model = model1\nreplicates = 2\nestimators = gaga,gaga_qr\nout = {out}\n")
        assert main(["experiment", "--config", str(cfg)]) == 0
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["status"] != "summary"]
        assert [r["status"] for r in rows if r["estimator"] == "gaga"] == ["LinAlgError"] * 2
        assert [r["status"] for r in rows if r["estimator"] == "gaga_qr"] == ["ok"] * 2


@pytest.mark.parametrize("command,lines", [
    ("experiment", "model = model1\n"), ("sweep", "sample_sizes = 30\n")],
    ids=["experiment", "sweep"])
def test_misspelled_config_key_fails(tmp_path, capsys, command, lines):
    cfg, out = tmp_path / "exp.cfg", tmp_path / "exp.csv"
    cfg.write_text(f"{lines}replicate = 2\nalpah = 3\nout = {out}\n")
    assert main([command, "--config", str(cfg)]) == 1
    assert "unknown config key(s): alpah, replicate" in single_error_line(capsys)
    assert not out.exists()


class TestSweep:
    def test_sweep_run(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out = tmp_path / "sweep.csv"
        cfg.write_text(
            "model = consistency\n"
            "replicates = 2\n"
            "sample_sizes = 30,60\n"
            f"out = {out}\n"
        )
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["sample_size"]) for r in rows] == [30, 60]

    def test_sweep_runs_the_model_it_names(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"model = highdim\nreplicates = 1\nsample_sizes = 30\n"
                       f"out = {tmp_path / 'o.csv'}\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "'highdim' needs no parameter, got n" in single_error_line(capsys)

    def test_sweep_defaults_to_the_consistency_model(self, tmp_path):
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        cfg.write_text(f"replicates = 1\nsample_sizes = 30\nout = {out}\n")
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(out) as fh:
            assert [r["sample_size"] for r in csv.DictReader(fh)] == ["30"]

    def test_sweep_rejects_a_config_n(self, tmp_path, capsys):
        # The sample sizes set n; a config n would be dropped without a word.
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
        cfg.write_text(f"model = consistency\nn = 500\nsample_sizes = 20,40\n"
                       f"replicates = 1\nout = {out}\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "sample_sizes" in single_error_line(capsys)
        assert not out.exists()

    def test_sweep_without_sizes_fails(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"model = consistency\nout = {tmp_path / 'o.csv'}\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "sample_sizes" in capsys.readouterr().err


class TestValidate:
    def test_prints_report_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "val.csv"
        code = main(["validate", "--n", "100", "--replicates", "5",
                     "--beta-star", "3.0,0.0", "--sigma-star", "1.0,1.0",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "truncation_rate_zero_coef=" in text
        assert "sample_size=100" in text
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert int(rows[0]["replicates"]) == 5

    def test_malformed_beta_star_fails(self, capsys):
        assert main(["validate", "--n", "100", "--beta-star", "1,a",
                     "--sigma-star", "1.0,1.0"]) == 1
        single_error_line(capsys)

    def test_rates_over_an_empty_class_are_nan(self, capsys):
        # no zero coefficient: nothing can be truncated, so no rate is measured
        assert main(["validate", "--n", "100", "--replicates", "2",
                     "--beta-star", "1,2", "--sigma-star", "1,1"]) == 0
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        assert report["truncation_rate_zero_coef"] == "nan"
        assert report["zero_positions"] == "0"
        assert 0.0 <= float(report["retention_rate_nonzero_coef"]) <= 1.0

    def test_zero_replicates_fails(self, capsys):
        # no replicate means no measured rate, not rates of 0.0
        assert main(["validate", "--n", "100", "--replicates", "0",
                     "--beta-star", "1,0", "--sigma-star", "1,1"]) == 1
        single_error_line(capsys)


class TestBench:
    def test_tiny_benchmark(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--dimensions", "5,10", "--n", "40",
                     "--repeats", "1", "--out", str(out)])
        assert code == 0
        assert "estimator=gaga_qr" in capsys.readouterr().out
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 4

    def test_p_exceeding_n_fails(self, capsys):
        assert main(["bench", "--dimensions", "100", "--n", "20",
                     "--repeats", "1"]) == 1
        assert "error kind=InvalidInput" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--dimensions", "5,x", "--repeats", "1"],
                                      ["--dimensions", "5", "--repeats", "0"]])
    def test_malformed_arguments_fail(self, capsys, args):
        assert main(["bench", "--n", "20", *args]) == 1
        single_error_line(capsys)
