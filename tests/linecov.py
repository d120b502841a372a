#!/usr/bin/env python3
"""Reach check of the package: does tier-1 run every statement of ``src/gaga``?

    python tests/linecov.py [PYTEST_ARGS ...]

The script runs the tier-1 suite in this process under ``sys.settrace`` and
``threading.settrace``, records each line of ``src/gaga`` that executes, and
lists every statement none of them belongs to. A statement is executable when
the compiler gives one of its own lines (its header, for a compound statement)
bytecode; it is reached when one of those lines runs. It exits 1 when a
statement outside ``ALLOWED`` is unreached, or when pytest stops before the
end of its run (an interruption, an internal or a usage error); a failing test
is reported in pytest's own summary and changes nothing here. Extra arguments
go to pytest. Not part of tier-1: pytest does not collect this file, and the
run takes about a minute and a half on two cores.

Only this process is traced, so code that only a subprocess runs is never
seen. Tracing costs time and allocates, so the tests in ``DESELECTED`` are
left out; their bounds are not touched.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaga"

DESELECTED = (
    # Wall-clock ordering at p up to 2000: about 50 s of fits that run no
    # line the smaller tests leave unrun.
    "tests/test_acceptance.py::test_criterion_8_timing_ordering",
    # tracemalloc sees the tracer's own allocations: the 60x20 fit reads
    # about 4.6 p x p under it against its 4.4 bound. The larger peak tests
    # keep their margin.
    "tests/test_counts.py::test_plain_fit_peak_memory",
)

# Statements no in-process run can reach, as (file, source text).
ALLOWED = {
    # The ``python -m gaga.cli`` entry; tests call ``main`` directly, and the
    # demos that run the module do so in a subprocess.
    ("cli.py", "sys.exit(main())"),
}


def executable_lines(code):
    """The lines that have bytecode in a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statements(source):
    """(first line, own lines, source text) of every statement and except
    clause. A statement's own lines are its lines outside the statements it
    holds, so a compound statement owns its header (and decorators)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        own = set(range(first, node.end_lineno + 1))
        for field in ("body", "orelse", "finalbody", "handlers"):
            for child in getattr(node, field, []):
                own -= set(range(child.lineno, child.end_lineno + 1))
        out.append((first, own, ast.get_source_segment(source, node).splitlines()[0].strip()))
    return out


def unreached(hits):
    """(file, first line, source text) of each executable statement none of
    whose own lines ran, in file order."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        code_lines = executable_lines(compile(source, str(path), "exec"))
        ran = hits.get(str(path), set())
        for first, own, text in statements(source):
            if own & code_lines and not own & ran:
                out.append((path.name, first, text))
    return sorted(out)


class Deselect:
    """Leaves out the tests in ``DESELECTED``, matched exactly (pytest's
    ``--deselect`` matches prefixes, so it would take the tests whose names
    extend these too)."""

    def pytest_collection_modifyitems(self, config, items):
        left_out = [item for item in items if item.nodeid in DESELECTED]
        items[:] = [item for item in items if item.nodeid not in DESELECTED]
        config.hook.pytest_deselected(items=left_out)


def main(argv):
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + os.sep
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[Deselect()])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missing = unreached(hits)
    blocking = [m for m in missing if (m[0], m[2]) not in ALLOWED]
    print(f"\nlinecov: {len(missing)} unreached statement(s) in src/gaga, "
          f"{len(missing) - len(blocking)} allowed")
    for name, line, text in missing:
        mark = "allowed " if (name, text) in ALLOWED else "UNREACHED"
        print(f"  {mark} {name}:{line}: {text}")
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"linecov: pytest stopped early (exit {int(code)})")
        return 1
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
