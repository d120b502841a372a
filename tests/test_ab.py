"""The summary that ``tools/ab.py`` prints for paired benchmark runs, on
fixed numbers. The tool itself runs the benchmark in subprocesses and is
not part of the suite; it is loaded by path."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("tools_ab", TOOLS / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [("peak_rss_mb", "MB", "lower"), ("fits_per_s", "1/s", "higher"),
           ("mean_acc", "ratio", "higher")]
BASE = [{"peak_rss_mb": 10.0, "fits_per_s": 2.0, "mean_acc": 0.5},
        {"peak_rss_mb": 12.0, "fits_per_s": 2.0, "mean_acc": 0.5},
        {"peak_rss_mb": 11.0, "fits_per_s": 3.0, "mean_acc": None},
        {"peak_rss_mb": 13.0, "fits_per_s": 1.0, "mean_acc": 0.5}]
CHANGE = [{"peak_rss_mb": 9.0, "fits_per_s": 1.0, "mean_acc": 0.5},
          {"peak_rss_mb": 12.0, "fits_per_s": 2.0, "mean_acc": 0.5},
          {"peak_rss_mb": 10.0, "fits_per_s": 4.0, "mean_acc": 0.5},
          {"peak_rss_mb": 14.3, "fits_per_s": 2.0, "mean_acc": 0.5}]


def test_summary_of_fixed_runs(ab):
    summary = ab.summarize(METRICS, BASE, CHANGE)
    rss = summary["peak_rss_mb"]
    assert rss["base"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert rss["change"]["median"] == pytest.approx(11.0)
    # Lower is better: pairs 1 and 3 win, pair 2 ties, pair 4 loses.
    assert (rss["wins"], rss["ties"], rss["pairs"]) == (2, 1, 4)
    ratios = sorted([0.9, 1.0, 10 / 11, 1.1])
    assert rss["ratio"]["median"] == pytest.approx((ratios[1] + ratios[2]) / 2)
    low, high = rss["ratio"]["ci95"]
    assert ratios[0] <= low <= rss["ratio"]["median"] <= high <= ratios[-1]
    # Higher is better: pairs 3 and 4 win.
    fits = summary["fits_per_s"]
    assert (fits["wins"], fits["ties"]) == (2, 1)
    assert fits["ratio"]["median"] == pytest.approx(1.0 + 1 / 6)
    # A null reading leaves only the values.
    assert summary["mean_acc"] == {"unit": "ratio", "better": "higher",
                                   "base": [0.5, 0.5, None, 0.5], "change": [0.5] * 4}


def test_summary_is_reproducible_and_printed(ab):
    summary = ab.summarize(METRICS, BASE, CHANGE)
    assert summary == ab.summarize(METRICS, BASE, CHANGE)
    lines = ab.table(summary)
    assert len(lines) == 1 + len(METRICS)
    assert lines[1].split()[0] == "peak_rss_mb" and "2/4 (1)" in lines[1]
    assert "null" in lines[3]


def test_equal_runs_read_one(ab):
    runs = [{"ok_frac": 1.0, "setup_s": 0.0}] * 3
    metrics = [("ok_frac", "ratio", "higher"), ("setup_s", "s", "lower")]
    summary = ab.summarize(metrics, runs, runs)
    for s in summary.values():
        assert (s["wins"], s["ties"]) == (0, 3)
        assert s["ratio"] == {"median": 1.0, "ci95": [1.0, 1.0]}
    assert ab.ratio(1.0, 0.0) == float("inf")


def test_metrics_and_run_length_are_the_benchmarks(ab):
    metrics, seconds = ab.benchmark()
    names = [name for name, _, _ in metrics]
    assert "peak_rss_mb" in names and "op_p50_s" in names
    assert seconds > 0
