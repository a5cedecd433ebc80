"""No library module imports a name it never uses.

``__init__.py`` is exempt: its imports are the package's public re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bicolim

PACKAGE = Path(bicolim.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Bound name -> line of every import except ``from __future__``."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= used_names(ast.parse(ann.value, mode="eval"))
    return out


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / module).read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_checker_flags_an_unused_import():
    tree = ast.parse("from .fincat import identity_functor, build_functor\nbuild_functor()\n")
    assert set(imported_names(tree)) - used_names(tree) == {"identity_functor"}
