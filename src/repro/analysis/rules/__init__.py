"""The three codebase-specific lint rules.

Shared AST helpers live here; each rule is one module.  Rule ids are
the stable public names used by ``# repro: allow[<id>]`` suppressions.
Each rule reads one function or one file at a time, or collects facts
per file for one cross-file check:

=====================  =====================================================
``determinism``        a ``for`` loop or comprehension over a freshly built
                       set (hash-ordered iteration)
``lock-discipline``    inode-field write in ``repro.fs``/``repro.vfs``
                       before any lock acquisition in its function
``metric-names``       counter/gauge/span names absent from repro.obs.names
=====================  =====================================================
"""

from __future__ import annotations

import ast
from typing import List, Optional


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def enclosing_qualnames(tree: ast.Module) -> "dict[int, str]":
    """Map every AST node id to its enclosing function/class qualname."""
    out: "dict[int, str]" = {}

    def visit(node: ast.AST, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            q = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                q = f"{qual}.{child.name}" if qual else child.name
            out[id(child)] = q
            visit(child, q)

    visit(tree, "")
    return out


def fstring_head(node: ast.JoinedStr) -> str:
    """Leading literal text of an f-string ('' when it starts dynamic)."""
    if node.values and isinstance(node.values[0], ast.Constant) and \
            isinstance(node.values[0].value, str):
        return node.values[0].value
    return ""
