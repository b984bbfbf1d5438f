"""Rule ``lock-discipline`` on the flow IR.

:class:`LockDiscipline` flags writes to shared inode fields outside any
lock acquisition in ``repro.fs`` / ``repro.vfs``.  The per-inode
protocol there is ``ctx.locks.acquire(inode.lock_name, ctx.cpu)`` ...
``finally: ctx.locks.release(...)``, and an unserialised write is a
lost update waiting for an interleaving to expose it.  The check
approximates acquire-dominance: a write is protected if *some*
acquisition (a ``*.locks.acquire(...)`` call, or a ``with`` whose
context-manager call names a lock) sits at an earlier or the same line
of the function.  Functions that run strictly single-threaded
(``mkfs``/``mount``/``unmount``/``recover*``/constructors) are exempt.
Deliberately unlocked sites (fault handlers that piggyback on the
caller's VFS-level lock) take ``# repro: allow[lock-discipline]`` with a
justification rather than a new lock: an added acquisition changes
LockManager wait accounting and perturbs bit-identical simulated
timings.

The same rule warns, anywhere in the tree, about a ``*.locks.acquire``
site whose lock name resolves (through ``repro.clock.LOCK_NAMESPACES``
plus the flow layer's helper-return analysis, e.g.
``self._ino_lock(...)``) to a namespace missing from that registry: a
renamed lock family must be registered or it silently leaves every
discipline check.  Names we cannot resolve are never reported.
"""

from __future__ import annotations

from typing import List, Set

from ..findings import Finding
from ..flow import ASGN, CALL, WITH, CallGraph, FuncInfo, ir_nodes


def _registered_namespaces() -> Set[str]:
    """Lock namespaces from repro.clock's registry (the source of truth)."""
    try:
        from repro.clock import LOCK_NAMESPACES
        return set(LOCK_NAMESPACES)
    except Exception:  # lint must run even from a broken tree
        return set()


#: shared inode fields whose writes must be serialised
_PROTECTED_FIELDS = {
    "size", "nlink", "written_hwm", "parent_ino", "aligned_hint",
    "owner_cpu", "xattrs", "gen",
}
_DISCIPLINE_SCOPES = ("repro.fs", "repro.vfs")
#: functions that run before/after any concurrency exists
_EXEMPT = {"mkfs", "mount", "unmount", "umount", "__init__",
           "__post_init__", "__repr__"}


def _is_acquire(node: List, known: Set[str]) -> bool:
    """``x.acquire(...)`` on a lock-named receiver or a registered name."""
    recv, fn, lockspec = node[3], node[4], node[5]
    if fn != "acquire" or not recv:
        return False
    if "lock" in recv.lower():
        return True
    if not lockspec or lockspec[0][0] not in ("lit", "fstr"):
        return False
    return lockspec[0][1].split(":", 1)[0] in known


def _unregistered(graph: CallGraph, info: FuncInfo, nodes: List,
                  known: Set[str]) -> List[Finding]:
    """One warning per acquire line naming an unregistered namespace."""
    out: List[Finding] = []
    lines: Set[int] = set()
    for node in nodes:
        if node[0] != CALL or node[4] != "acquire" or \
                node[3].split(".")[-1] != "locks" or node[1] in lines:
            continue
        spaces = graph.resolve_lock_namespaces(info, node[5])
        ns = next((s for s in spaces if s != "?" and s not in known), None)
        if ns is not None:
            lines.add(node[1])
            out.append(Finding(
                rule="lock-discipline", path=info.relpath, line=node[1],
                col=0,
                message=(f"lock namespace '{ns}' is not registered "
                         "in repro.clock.LOCK_NAMESPACES"),
                hint="register the namespace or fix the lock name",
                qualname=info.qual, detail=f"unregistered:{ns}",
                severity="warning"))
    return out


class LockDiscipline:
    id = "lock-discipline"

    def check(self, graph: CallGraph) -> List[Finding]:
        known = _registered_namespaces()
        findings: List[Finding] = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            nodes = list(ir_nodes(info.body))
            findings.extend(_unregistered(graph, info, nodes, known))
            if not info.module.startswith(_DISCIPLINE_SCOPES) or \
                    info.name in _EXEMPT or \
                    info.name.startswith(("recover", "_recover", "mkfs",
                                          "_mkfs")):
                continue
            acquires = [node[1] for node in nodes
                        if node[0] == CALL and _is_acquire(node, known)]
            acquires += [item[1] for node in nodes if node[0] == WITH
                         for item in node[1]
                         if "lock" in f"{item[3]}.{item[4]}".lower()]
            first = min(acquires, default=None)
            seen: Set[int] = set()
            for node in nodes:
                if node[0] != ASGN:
                    continue
                line, col, recv, field = node[1], node[2], node[3], node[4]
                if field not in _PROTECTED_FIELDS or line in seen or \
                        "inode" not in recv.lower() or \
                        (first is not None and line >= first):
                    continue
                seen.add(line)
                findings.append(Finding(
                    rule=self.id, path=info.relpath, line=line, col=col,
                    message=(f"mutation of {recv}.{field} outside any lock "
                             "acquisition"),
                    hint="acquire the inode lock first, or allow-comment "
                         "with the reason this site is single-threaded",
                    qualname=info.qual, detail=f"{recv}.{field}"))
        return findings
