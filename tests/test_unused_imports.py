"""No module of ``src/repro`` imports a name it never uses.

A package ``__init__.py`` imports to re-export, so it is exempt; every
other module must use each name it imports, in code, in an annotation
or in a string (a quoted annotation, an ``__all__`` entry).  An AST
scan, so it needs no linter installed.
"""

from __future__ import annotations

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "repro")


def _names_used(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    return used


def _unused_imports(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    used = _names_used(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{node.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for dirpath, _dirs, files in os.walk(SRC):
        for fname in sorted(files):
            if fname.endswith(".py") and fname != "__init__.py":
                path = os.path.join(dirpath, fname)
                unused = _unused_imports(path)
                if unused:
                    found[os.path.relpath(path, SRC)] = unused
    assert found == {}
