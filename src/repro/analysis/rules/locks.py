"""Rule ``lock-discipline`` — inode-field writes outside a lock.

Flags writes to shared inode fields outside any lock acquisition in
``repro.fs`` / ``repro.vfs``, one function at a time.  The per-inode
protocol there is ``ctx.locks.acquire(inode.lock_name, ctx.cpu)`` ...
``finally: ctx.locks.release(...)``, and an unserialised write is a
lost update waiting for an interleaving to expose it.  No dynamic test
sees one: the simulator runs each operation to completion, so the
corpus entry ``write-hwm-outside-inode-lock`` has this rule as its
only net.

The check approximates acquire-dominance: a write is protected if
*some* acquisition (an ``acquire(...)`` call on a receiver whose name
contains ``lock``, or a ``with`` whose context-manager call names a
lock) sits at an earlier or the same line of the function.  Functions
that run strictly single-threaded (``mkfs``/``mount``/``unmount``/
``recover*``/constructors) are exempt; closures are not walked.  A
deliberately unlocked site (a fault handler under the caller's VFS
lock) takes ``# repro: allow[lock-discipline]`` with its reason, not a
new lock: an added acquisition moves simulated lock-wait timings.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from ..engine import FileContext, FileRule
from ..findings import Finding
from . import dotted

#: shared inode fields whose writes must be serialised
_PROTECTED_FIELDS = {
    "size", "nlink", "written_hwm", "parent_ino", "aligned_hint",
    "owner_cpu", "xattrs", "gen",
}
_DISCIPLINE_SCOPES = ("repro.fs", "repro.vfs")
#: functions that run before/after any concurrency exists
_EXEMPT = {"mkfs", "mount", "unmount", "umount", "__init__",
           "__post_init__", "__repr__"}
_EXEMPT_PREFIXES = ("recover", "_recover", "mkfs", "_mkfs")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = _DEFS + (ast.ClassDef,)


def _functions(body: Sequence[ast.AST],
               prefix: str) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualname, def)`` of every function and method, including
    those under a module- or class-level ``if``/``try``."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            yield from _functions(stmt.body, f"{prefix}{stmt.name}.")
        elif isinstance(stmt, _DEFS):
            yield prefix + stmt.name, stmt
        elif isinstance(stmt, (ast.If, ast.Try, ast.ExceptHandler)):
            yield from _functions(list(ast.iter_child_nodes(stmt)), prefix)


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Every node of *fn*'s body outside nested functions and classes."""
    todo: List[ast.AST] = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, _SCOPES):
            continue
        yield node
        todo.extend(ast.iter_child_nodes(node))


def _acquire_lines(node: ast.AST) -> Iterator[int]:
    """Lines at which *node* acquires a lock."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "acquire" \
            and "lock" in (dotted(node.func.value) or "").lower():
        yield node.lineno
    elif isinstance(node, (ast.With, ast.AsyncWith)):
        yield from (call.lineno for item in node.items
                    for call in ast.walk(item.context_expr)
                    if isinstance(call, ast.Call) and "lock" in (
                        dotted(call.func) or getattr(call.func, "attr", "")
                    ).lower())


def _stores(node: ast.AST) -> Iterator[Tuple[int, int, str, str]]:
    """``(line, col, receiver, field)`` for each attribute (or attribute
    subscript) an assignment statement writes."""
    if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return
    for target in node.targets if isinstance(node, ast.Assign) \
            else [node.target]:
        for t in target.elts if isinstance(target, (ast.Tuple, ast.List)) \
                else [target]:
            line, col = t.lineno, t.col_offset
            if isinstance(t, ast.Subscript):
                t = t.value
            if isinstance(t, ast.Attribute):
                yield line, col, dotted(t.value) or "<expr>", t.attr


class LockDiscipline(FileRule):
    id = "lock-discipline"

    def run(self, ctx: FileContext) -> List[Finding]:
        if not ctx.module.startswith(_DISCIPLINE_SCOPES):
            return []
        findings: List[Finding] = []
        for qual, fn in _functions(ctx.tree.body, ""):
            if fn.name in _EXEMPT or fn.name.startswith(_EXEMPT_PREFIXES):
                continue
            nodes = list(_own_nodes(fn))
            first = min((line for node in nodes
                         for line in _acquire_lines(node)), default=None)
            seen: Set[int] = set()
            for line, col, recv, field in sorted(
                    store for node in nodes for store in _stores(node)):
                if field not in _PROTECTED_FIELDS or line in seen or \
                        "inode" not in recv.lower() or \
                        (first is not None and line >= first):
                    continue
                seen.add(line)
                findings.append(Finding(
                    rule=self.id, path=ctx.relpath, line=line, col=col,
                    message=(f"mutation of {recv}.{field} outside any lock "
                             "acquisition"),
                    hint="acquire the inode lock first, or allow-comment "
                         "with the reason this site is single-threaded",
                    qualname=qual, detail=f"{recv}.{field}"))
        return findings
