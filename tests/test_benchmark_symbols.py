"""The benchmark under ``perfbench/`` reaches into the package by name. A
symbol it names that the package no longer defines turns a per-layer metric
into ``null``, and a module it imports that is gone ends the run without its
result line. These checks make such a deletion fail here first."""

import ast
import importlib
import importlib.util
from pathlib import Path

import gaga

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attribute_chains(tree):
    """Dotted names below ``gaga`` that run.py reads, e.g. ``qr.gaga_qr_fit``
    from ``self.gaga.qr.gaga_qr_fit``."""
    chains = set()
    for node in ast.walk(tree):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            names.append(node.id)
        names.reverse()
        if "gaga" in names[:-1]:
            chains.add(tuple(names[names.index("gaga") + 1:]))
    return chains


def test_layers_targets_resolve():
    layers = _load_layers()
    for module_name, attr in layers.TARGETS:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
    for module_name in layers.LAPACK_OWNERS:
        assert hasattr(importlib.import_module(module_name), "lapack"), module_name


def test_run_script_imports_and_names_resolve():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.split(".")[0] == "gaga"}
    assert "gaga.solver" in imported
    for module_name in imported:
        importlib.import_module(module_name)
    for chain in _attribute_chains(tree):
        obj = gaga
        for name in chain:
            obj = getattr(obj, name)


def test_public_names_resolve():
    for name in gaga.__all__:
        assert hasattr(gaga, name), name
