"""The CLI's error contract on generated argument lists and config files.

Every run of ``gaga fit``, ``experiment``, ``sweep`` or ``validate`` either
exits 0 with nothing on stderr, or exits 1 with exactly one stderr line
``error kind=<K> detail="..."``, where K names a ``GagaError`` or ``OSError``
subclass. An uncaught exception, or a warning (turned into an error here, as
it would otherwise reach stderr), fails the test.

Each example draws a valid value for every input and then breaks at most two
of them, so runs that fit and runs that fail are both common. Inputs stay
small (``model1`` or ``consistency``, at most 2 replicates and 20
iterations), so the module runs in a few seconds.
"""

import builtins
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import gaga.errors
from gaga.cli import main

ERROR_LINE = re.compile(r'error kind=(\w+) detail="[^\n]*"\n')

# name: (valid values, invalid values)
VALUES = {
    "iterations": (["1", "5", "20"], ["0", "-1", "2.5", "abc"]),
    "replicates": (["1", "2"], ["0", "-1", "1.5", "x"]),
    "alpha": (["1.5", "2", "3"], ["1", "0.5", "-2", "nan", "inf", "abc"]),
    "variance_mode": (["fixed", "estimated"], ["bogus", ""]),
    "seed": (["0", "7"], ["-3", "x"]),
    "cell": (["0.5", "-1.25", "3", "0", "1e3"], ["1e300", "nan", "inf", "x", ""]),
}
SOLVER = ("alpha", "variance_mode", "seed")


def typed_kind(kind):
    cls = getattr(gaga.errors, kind, None) or getattr(builtins, kind, None)
    return isinstance(cls, type) and issubclass(cls, (gaga.errors.GagaError, OSError))


def assert_contract(argv):
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    err = err.getvalue()
    if code == 0:
        assert err == "", (argv, err)
    else:
        match = ERROR_LINE.fullmatch(err)
        assert code == 1 and match and typed_kind(match.group(1)), (argv, code, err)


class Draws:
    """Draws one example's inputs; the ones named in ``faults`` get an
    invalid value."""

    def __init__(self, data, names):
        self.draw = data.draw
        self.faults = self.draw(st.sets(st.sampled_from(sorted(names)), max_size=2))

    def value(self, name, valid=None, invalid=None):
        if valid is None:
            valid, invalid = VALUES[name]
        return self.draw(st.sampled_from(invalid if name in self.faults else valid))

    def optional(self, name):
        """The value of an input that may also be left out (None)."""
        return self.value(name) if name in self.faults or self.draw(st.booleans()) else None

    def out_path(self, tmp, name="out"):
        return self.value(name, [str(tmp / "out.csv")], [str(tmp), str(tmp / "no" / "o.csv")])

    def csv_text(self, rows, cols, header):
        cell = st.floats(-5, 5).map(repr) | st.just(self.value("cell"))
        lines = [",".join(f"c{j}" for j in range(cols))] if header else []
        lines += [",".join(self.draw(st.lists(cell, min_size=cols, max_size=cols)))
                  for _ in range(rows)]
        return "\n".join(lines) + "\n"


def flags(**values):
    """``--name value`` pairs for the options that are set."""
    return [a for name, v in values.items() if v is not None
            for a in (f"--{name.replace('_', '-')}", v)]


def solver_flags(d):
    return flags(**{name: d.optional(name) for name in SOLVER})


@given(data=st.data())
def test_fit(data):
    d = Draws(data, {"cell", "shape", "design", "out", "response", "iterations",
                     "flag", *SOLVER})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cols = d.draw(st.integers(2, 5))  # the last column is the response
        rows = d.value("shape", [cols + 3, 12], [0, 1, cols - 1])
        (tmp / "x.csv").write_text(d.csv_text(rows, cols, d.draw(st.booleans())))
        argv = ["fit", "--design", str(tmp / d.value("design", ["x.csv"], ["absent.csv"])),
                "--out", d.out_path(tmp)]
        if "response" in d.faults or d.draw(st.booleans()):
            (tmp / "y.csv").write_text(d.csv_text(d.value("response", [rows], [rows - 1]), 1,
                                                  False))
            argv += ["--response", str(tmp / "y.csv")]
        argv += flags(iterations=d.value("iterations"))
        # A fit draws no data, so any --seed is a usage error.
        argv += flags(alpha=d.optional("alpha"), variance_mode=d.optional("variance_mode"),
                      seed=d.value("seed", [None], ["0"]))
        argv += d.draw(st.sampled_from([[], ["--qr"]]))
        argv += ["--no-such-flag"] if "flag" in d.faults else []
        assert_contract(argv)


def assert_config_run(data, command):
    """``gaga experiment`` or ``gaga sweep`` on a generated config file."""
    d = Draws(data, {"model", "estimators", "n", "sample_sizes", "record_timing", "cfg_out",
                     "line", "config", "out", "replicates", "iterations", *SOLVER})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "ext.csv").write_text(
            "replicate," + ",".join(f"b{j}" for j in range(1, 9)) + "\n"
            + "".join(f"{r}," + ",".join(["0.5"] * 8) + "\n" for r in range(2)))
        (tmp / "bad.csv").write_text("replicate,b1\n0,abc\n")
        # Replicates whose error is not finite are rows of status InvalidInput.
        (tmp / "inf.csv").write_text("0,nan" + ",0.5" * 7 + "\n1,1e308" + ",0.5" * 7 + "\n")
        model = d.value("model", ["model1", "consistency"], ["orthogonal", "bogus", ""])
        cfg = {"model": model, "estimators": d.value(
            "estimators", ["gaga", "gaga_qr", "gaga,gaga_qr", f"external:{tmp / 'ext.csv'}",
                           f"external:{tmp / 'inf.csv'}"],
            ["bogus", "", f"external:{tmp / 'bad.csv'}", f"external:{tmp / 'absent.csv'}"])}
        if command == "sweep":  # the sample sizes set n, so any n line is a fault
            if "n" in d.faults:
                cfg["n"] = d.draw(st.sampled_from(["8", "20", "3", "x"]))
        elif model == "consistency" or "n" in d.faults:
            cfg["n"] = d.value("n", ["8", "20"], ["3", "x"])
        if command == "sweep" or "sample_sizes" in d.faults:
            cfg["sample_sizes"] = d.value("sample_sizes", ["8,20", "20"], ["", "3", "8,x"])
        if command == "sweep":  # a sweep records no timing, so only "false" is valid
            cfg["record_timing"] = d.value("record_timing", [None, "false"],
                                           ["true", "yes", "maybe"])
        else:
            cfg["record_timing"] = d.value("record_timing", ["true", "false", "yes"], ["maybe"])
        cfg["alpha"], cfg["variance_mode"] = d.optional("alpha"), d.optional("variance_mode")
        cfg["base_seed"] = d.optional("seed")
        # Replicates and iterations are always set, by a flag or by a line.
        argv = [command]
        for name in ("replicates", "iterations"):
            if d.draw(st.booleans()):
                argv += flags(**{name: d.value(name)})
            else:
                cfg[name] = d.value(name)
        out_flag = d.draw(st.booleans())
        if not out_flag or "cfg_out" in d.faults:
            cfg["out"] = d.value("cfg_out", [str(tmp / "cfg.csv")], [str(tmp)])
        text = "".join(f"{k} = {v}\n" for k, v in cfg.items() if v is not None)
        text += d.draw(st.sampled_from(["", "# comment\n", "\n"]))
        text += "model model1\n" if "line" in d.faults else ""
        (tmp / "exp.cfg").write_text(text)
        config = d.value("config", ["exp.cfg"], ["absent.cfg", None])
        argv += ["--config", str(tmp / config)] if config else []
        argv += ["--out", d.out_path(tmp)] if out_flag else []
        argv += solver_flags(d)
        assert_contract(argv)


@given(data=st.data())
def test_experiment(data):
    assert_config_run(data, "experiment")


@given(data=st.data())
def test_sweep(data):
    assert_config_run(data, "sweep")


@given(data=st.data())
def test_validate(data):
    d = Draws(data, {"n", "beta_star", "sigma_star", "length", "replicates", "iterations",
                     "out", *SOLVER})
    with tempfile.TemporaryDirectory() as tmp:
        p = d.draw(st.integers(1, 3))

        def vector(name, valid, invalid):
            cells = st.sampled_from(invalid if name in d.faults else valid)
            size = p + 1 if "length" in d.faults and name == "sigma_star" else p
            return ",".join(d.draw(st.lists(cells, min_size=size, max_size=size)))

        argv = ["validate"] + flags(
            n=d.value("n", ["5", "30"], ["1", "0", "-2", "x"]),
            beta_star=vector("beta_star", ["0", "1.5", "3", "-2"], ["x", "nan", ""]),
            sigma_star=vector("sigma_star", ["1", "0.5"], ["0", "-1", "x"]),
            replicates=d.value("replicates"),
            iterations=d.value("iterations"),
        )
        argv += ["--out", d.out_path(Path(tmp))] if d.draw(st.booleans()) else []
        argv += solver_flags(d)
        assert_contract(argv)
