import ast
from pathlib import Path

import pytest

from ncsym import IntegerPartition, NCSymExpr, SetPartition


@pytest.fixture
def sp():
    return SetPartition.parse


def sp_(text: str) -> SetPartition:
    return SetPartition.parse(text)


def ip_(*parts) -> IntegerPartition:
    return IntegerPartition(parts)


def concat(lam: IntegerPartition, gam: IntegerPartition) -> IntegerPartition:
    """Multiset union of the parts of two integer partitions."""
    return IntegerPartition(lam.parts + gam.parts)


def elt(basis: str, text: str) -> NCSymExpr:
    return NCSymExpr.element(basis, SetPartition.parse(text))


def imported_names(module) -> set:
    """Module path components and names a module's import statements bring in."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    return imported


def reachable_names(module, start):
    """Every name a module-level function uses, following calls to the
    module's other functions."""
    functions = {
        node.name: node
        for node in ast.parse(Path(module.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    seen, todo, names = set(), [start], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                used = node.id
            elif isinstance(node, ast.Attribute):
                used = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update((getattr(node, "module", None) or "").split("."))
                names.update(alias.name for alias in node.names)
                continue
            else:
                continue
            names.add(used)
            if used in functions:
                todo.append(used)
    return names
