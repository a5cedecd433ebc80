"""No library module imports a name it never uses, and no top-level function
or class of the library goes unreferenced.

``__init__.py`` is exempt from the import check: its imports are the
package's public re-exports.  Neither those imports nor ``__all__`` count as
references.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bicolim

PACKAGE = Path(bicolim.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parent.parent


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


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read and attributes taken anywhere in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unreferenced_definitions(defining: dict[str, ast.Module], others: list[ast.AST]) -> list[str]:
    """``module:name`` of each top-level function or class in ``defining``
    that no tree references outside the definition itself."""
    statements = [(node, referenced_names(node)) for tree in defining.values() for node in tree.body]
    elsewhere = set().union(*(referenced_names(t) for t in others))
    out = []
    for module, tree in sorted(defining.items()):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in elsewhere:
                continue
            if not any(node.name in names for other, names in statements if other is not node):
                out.append(f"{module}:{node.name}")
    return out


def test_every_library_definition_is_referenced():
    library = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    others = [
        ast.parse(p.read_text())
        for folder in ("tests", "tools")
        for p in sorted((ROOT / folder).rglob("*.py"))
    ]
    assert unreferenced_definitions(library, others) == []


def test_checker_flags_an_unreferenced_definition():
    lib = ast.parse("def used():\n    return 1\n\ndef unused():\n    return unused()\n")
    caller = ast.parse("from lib import used, unused\nused()\n")
    assert unreferenced_definitions({"lib.py": lib}, [caller]) == ["lib.py:unused"]
