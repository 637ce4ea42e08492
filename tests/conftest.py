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
