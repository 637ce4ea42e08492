"""The benchmark's cold ops start from empty tables.

``perfbench/tracer.py`` lists the modules, ``LAYERS``, whose module-level
``lru_cache`` functions the benchmark harness empties before every cold op.
A memo anywhere else (a method, a nested function, a module outside the
list) would survive that clearing and let a cold op run on warm tables.
These tests read the list from the tracer's source and change nothing
under ``perfbench``.
"""

import ast
import importlib
from pathlib import Path

import ncsym

SRC = Path(ncsym.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _is_lru_cache(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "lru_cache"
    return isinstance(decorator, ast.Name) and decorator.id == "lru_cache"


def test_every_memo_sits_where_the_harness_clears_it():
    layers = set(_layers())
    memos = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _is_lru_cache(d) for d in node.decorator_list
            ):
                where = f"{path.stem}.{node.name}"
                memos.append(where)
                assert id(node) in top, f"{where} is not a module-level function"
                assert path.stem in layers, f"{where} is outside the traced layers"
    assert memos  # the scan found the memos it guards


def test_every_traced_layer_is_an_ncsym_module():
    for name in _layers():
        assert (SRC / f"{name}.py").is_file(), name
        assert importlib.import_module(f"ncsym.{name}").__name__ == f"ncsym.{name}"
