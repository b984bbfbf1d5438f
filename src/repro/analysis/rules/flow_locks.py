"""Rule ``lock-discipline`` on the flow IR.

:class:`LockDiscipline` flags writes to shared inode fields outside any
lock acquisition in ``repro.fs`` / ``repro.vfs``.  The per-inode
protocol there is ``ctx.locks.acquire(inode.lock_name, ctx.cpu)`` ...
``finally: ctx.locks.release(...)``, and an unserialised write is a
lost update waiting for an interleaving to expose it.  The check
approximates acquire-dominance: a write is protected if *some*
acquisition (an ``acquire(...)`` call on a receiver whose name contains
``lock``, or a ``with`` whose context-manager call names a lock) sits at
an earlier or the same line of the function.  Functions that run strictly single-threaded
(``mkfs``/``mount``/``unmount``/``recover*``/constructors) are exempt.
Deliberately unlocked sites (fault handlers that piggyback on the
caller's VFS-level lock) take ``# repro: allow[lock-discipline]`` with a
justification rather than a new lock: an added acquisition changes
LockManager wait accounting and perturbs bit-identical simulated
timings.
"""

from __future__ import annotations

from typing import List, Set

from ..findings import Finding
from ..flow import ASGN, CALL, WITH, CallGraph, ir_nodes

#: shared inode fields whose writes must be serialised
_PROTECTED_FIELDS = {
    "size", "nlink", "written_hwm", "parent_ino", "aligned_hint",
    "owner_cpu", "xattrs", "gen",
}
_DISCIPLINE_SCOPES = ("repro.fs", "repro.vfs")
#: functions that run before/after any concurrency exists
_EXEMPT = {"mkfs", "mount", "unmount", "umount", "__init__",
           "__post_init__", "__repr__"}


class LockDiscipline:
    id = "lock-discipline"

    def check(self, graph: CallGraph) -> List[Finding]:
        findings: List[Finding] = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if not info.module.startswith(_DISCIPLINE_SCOPES) or \
                    info.name in _EXEMPT or \
                    info.name.startswith(("recover", "_recover", "mkfs",
                                          "_mkfs")):
                continue
            nodes = list(ir_nodes(info.body))
            acquires = [node[1] for node in nodes
                        if node[0] == CALL and node[3] == "acquire"
                        and "lock" in node[2].lower()]
            acquires += [item[1] for node in nodes if node[0] == WITH
                         for item in node[1]
                         if "lock" in f"{item[2]}.{item[3]}".lower()]
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
