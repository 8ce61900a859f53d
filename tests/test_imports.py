"""No module of the package imports a name at module level that it never
uses.  Stands in for a linter's unused-import rule, since the test
environment has none."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lowdisc"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*" and bound not in used:
                    unused.append(bound)
    return unused


def test_checker_finds_unused_and_respects_exports():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp, sys\n"
        "from typing import Optional, Sequence\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f(a: Optional[int]) -> int:\n"
        "    return sys.maxsize\n"
    )
    assert unused_imports(source) == ["os", "osp", "Sequence"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
