"""The five codebase-specific lint rules.

Shared AST helpers live here; each rule is one module.  Rule ids are
the stable public names used by ``# repro: allow[<id>]`` suppressions.

Pattern rules (one file at a time, or cross-file facts):

=====================  =====================================================
``determinism``        a ``for`` loop or comprehension over a freshly built
                       set (hash-ordered iteration)
``metric-names``       counter/gauge/span names absent from repro.obs.names
=====================  =====================================================

Rules on the flow IR (modules ``flow_*``, run through
:class:`repro.analysis.flow.FlowAnalysis`):

=========================  =================================================
``persist-before-commit``  a PM store must reach persist()/clwb+sfence on
                           every path before a journal commit
``lock-discipline``        inode-field mutation outside a lock acquisition;
                           acquire sites with unregistered lock namespaces
``degraded-write-guard``   mutating FileSystem entry point can mutate state
                           before ``_check_writable()``
=========================  =================================================
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
