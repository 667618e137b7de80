"""Every public module-level function of the package has a user: it is
exported in `gbei.__all__`, or code in the package refers to it (another
module by importing it, its own module by name).  A helper that nothing
calls is deleted, not left behind."""

from __future__ import annotations

import ast
from pathlib import Path

import gbei

PACKAGE = Path(gbei.__file__).resolve().parent


def _trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _public_functions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _names_used_from(tree: ast.Module, module: str) -> set[str]:
    """Names that `tree` takes from the sibling `module`, by a relative
    import or as an attribute of the module itself."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            used.add(node.attr)
    return used


def test_every_public_function_is_exported_or_used_in_the_package():
    trees = _trees()
    exported = set(gbei.__all__)
    unused = []
    for module, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used = used.union(*(_names_used_from(t, module) for m, t in trees.items() if m != module))
        unused.extend(
            f"{module}.{name}"
            for name in _public_functions(tree)
            if name not in exported and name not in used
        )
    assert unused == []


def test_the_scan_sees_every_module():
    assert {"cli", "graphs", "homology", "ideals", "poly", "report"} <= set(_trees())
