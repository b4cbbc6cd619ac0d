"""The benchmark tracer (perfbench/tracing.py) wraps library functions by
"module.function" name and fails on the first one that is gone."""

import ast
import importlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _traced_names():
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_every_traced_name_resolves():
    names = _traced_names()
    assert names
    for qual in names:
        module, func = qual.split(".")
        found = getattr(importlib.import_module(f"cabletorsion.{module}"), func, None)
        assert callable(found), qual
