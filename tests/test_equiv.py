"""The comparison that ``tools/equiv.py`` prints, on fixed fits. The tool
itself runs the fits of two trees in subprocesses and is not part of the
suite; it is loaded by path."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


@pytest.fixture(scope="module")
def equiv():
    spec = importlib.util.spec_from_file_location("tools_equiv", TOOLS / "equiv.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fits(changes=()):
    """Two fits as ``run_fits`` saves them, with the entries of the dict
    ``changes`` replacing theirs by key; a key ending in "|error" replaces
    that fit's arrays by its error."""
    saved = {
        "a, gaga_fit, fixed|coefficients": np.array([2.0, 0.0, -1.0]),
        "a, gaga_fit, fixed|tuning": np.array([0.5, 4e12, 2.0]),
        "a, gaga_fit, fixed|variance": np.array(1.0),
        "b, gaga_qr_fit, estimated|coefficients": np.array([0.0, 40.0]),
        "b, gaga_qr_fit, estimated|tuning": np.array([8.0, 0.25]),
        "b, gaga_qr_fit, estimated|variance": np.array(0.5),
    }
    for key, value in dict(changes).items():
        if key.endswith("|error"):
            fit = key.split("|")[0]
            saved = {k: v for k, v in saved.items() if not k.startswith(fit + "|")}
        saved[key] = np.array(value)
    return saved


def test_bit_identical(equiv):
    assert equiv.compare(fits(), fits()) == (
        "bit-identical: coefficients, tuning and variance of all 2 fits", 0)


def test_support_identical_reports_each_gap(equiv):
    # Each gap is relative to max(1, max |REV's values|) of its array: the
    # coefficient gap 4e-10 of b's largest |coefficient| 40, the tuning gap
    # 1e-3 below 1, and the variance gap 1e-12 of 0.5, below 1 too.
    new = fits({"b, gaga_qr_fit, estimated|coefficients": [0.0, 40.0 + 1.6e-8],
                "b, gaga_qr_fit, estimated|tuning": [8.0, 0.25 + 8e-3],
                "a, gaga_fit, fixed|variance": 1.0 - 1e-12})
    line, code = equiv.compare(fits(), new)
    assert code == 0
    assert line == ("support identical on all 2 fits; worst relative "
                    "coefficient gap 4e-10 at b, gaga_qr_fit, estimated; "
                    "tuning gap 0.001 at b, gaga_qr_fit, estimated; "
                    "variance gap 1e-12 at a, gaga_fit, fixed")


def test_support_identical_with_equal_parts(equiv):
    new = fits({"a, gaga_fit, fixed|variance": 1.5})
    assert equiv.compare(fits(), new) == (
        "support identical on all 2 fits; worst relative coefficient gap 0; "
        "tuning gap 0; variance gap 0.5 at a, gaga_fit, fixed", 0)


def test_support_changed(equiv):
    new = fits({"a, gaga_fit, fixed|coefficients": [2.0, 1e-300, -1.0]})
    assert equiv.compare(fits(), new) == (
        "support changed: first at a, gaga_fit, fixed", 1)


def test_errors_that_differ(equiv):
    new = fits({"b, gaga_qr_fit, estimated|error": "RankDeficient"})
    assert equiv.compare(fits(), new) == (
        "support changed: first at b, gaga_qr_fit, estimated (a fit against RankDeficient)", 1)
    both = fits({"b, gaga_qr_fit, estimated|error": "RankDeficient"})
    assert equiv.compare(both, both)[0].startswith("bit-identical")
