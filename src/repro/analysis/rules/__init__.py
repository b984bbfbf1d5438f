"""The nine codebase-specific lint rules.

Shared AST helpers live here; each rule is one module.  Rule ids are
the stable public names used by ``# repro: allow[<id>]`` suppressions:

=====================  =====================================================
``determinism``        wall-clock reads, global ``random.*``, ``os.urandom``,
                       ``id()``-keyed sorts, unordered set iteration
``persistence-ordering``  ``PMDevice.store`` not followed by clwb+sfence on
                       every path out of the function
``lock-discipline``    inode-field mutation outside a lock acquisition;
                       acquire sites with unregistered lock namespaces
``snapshot-whitelist``  persisted-graph module missing from the snapshot
                       codec whitelist
``metric-names``       counter/gauge/span names absent from repro.obs.names
``array-kernel``       array-backed hot state (clock array, run store,
                       device store-log columns) mutated outside its
                       sanctioned kernel modules
=====================  =====================================================

Interprocedural rules (modules ``flow_*``, run through
:class:`repro.analysis.flow.FlowAnalysis`):

=========================  =================================================
``persist-before-commit``  a PM store must reach persist()/clwb+sfence on
                           every path before a journal commit
``lock-order-cycle``       cycle in the global lock-namespace acquisition
                           order graph (witness call chain attached)
``degraded-write-guard``   mutating FileSystem entry point can mutate state
                           before ``_check_writable()``
=========================  =================================================
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple


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


def walk_functions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (qualname, node) for every function/method, outermost first."""
    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield qual, child
                yield from visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                yield from visit(child, qual)
    yield from visit(tree, "")


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
