"""Lock rules on the flow IR: ``lock-order-cycle`` and ``lock-discipline``.

Deadlock freedom in the simulator rests on a global acquisition order
between lock *namespaces* (the part of a lock name before the ``:`` —
``ino``, ``winefs-journal``, ``jbd2-handle``, ...).  Each function's IR
yields direct acquisition edges (acquire B while holding A); function
summaries carry the transitive set of namespaces a callee can acquire,
so an edge also forms when a function calls into code that locks while
the caller holds something.  Any cycle in the resulting digraph — a
length-1 self-edge counts: nested acquisition inside one namespace
deadlocks unless instance-ordered — is reported with the witness call
chain from the holding site to the nested acquisition.

Lock names resolve through ``repro.clock.LOCK_NAMESPACES`` plus the
flow layer's helper-return analysis (``self._ino_lock(...)`` resolves to
the ``ino`` namespace via the helper's return statements).  Names we
cannot resolve become the ``?`` namespace, which never participates in
edges: unresolvable locking biases to false negatives, not noise.

``atomic()`` sites are excluded — they are bounded non-blocking
reservations, not held locks, so they cannot participate in a deadlock
cycle.

``lock-discipline`` has two halves.  The cycle walk flags, at warning
severity, acquire sites whose namespace resolves to a name missing from
``LOCK_NAMESPACES``: a renamed lock family must be registered or it
silently leaves every discipline check.  :class:`LockDiscipline` flags
writes to shared inode fields outside any lock acquisition in
``repro.fs`` / ``repro.vfs``.  The per-inode protocol there is
``ctx.locks.acquire(inode.lock_name, ctx.cpu)`` ... ``finally:
ctx.locks.release(...)``, and an unserialised write is a lost update
waiting for an interleaving to expose it.  The check approximates
acquire-dominance: a write is protected if *some* acquisition (a
``*.locks.acquire(...)`` call, or a ``with`` whose context-manager call
names a lock) sits at an earlier or the same line of the function.
Functions that run strictly single-threaded (``mkfs``/``mount``/
``unmount``/``recover*``/constructors) are exempt.  Deliberately
unlocked sites (fault handlers that piggyback on the caller's VFS-level
lock) take ``# repro: allow[lock-discipline]`` with a justification
rather than a new lock: an added acquisition changes LockManager wait
accounting and perturbs bit-identical simulated timings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..findings import Finding
from ..flow import (ASGN, CALL, IF, LOOP, RAISE, RET, TRY, WITH, CallGraph,
                    FuncInfo, ir_nodes)

Hop = Tuple[str, str, int]

_MAX_SCC_ITER = 5


def _registered_namespaces() -> Set[str]:
    """Lock namespaces from repro.clock's registry (the source of truth)."""
    try:
        from repro.clock import LOCK_NAMESPACES
        return set(LOCK_NAMESPACES)
    except Exception:  # lint must run even from a broken tree
        return set()


class _Edge:
    __slots__ = ("src", "dst", "chain", "qual")

    def __init__(self, src: str, dst: str, chain: Tuple[Hop, ...],
                 qual: str):
        self.src = src
        self.dst = dst
        self.chain = chain
        self.qual = qual


class LockOrderCycle:
    id = "lock-order-cycle"

    def check(self, graph: CallGraph) -> List[Finding]:
        acquires = self._transitive_acquires(graph)
        chains = _AcquireChains(graph, acquires)
        edges: Dict[Tuple[str, str], _Edge] = {}
        unregistered: List[Finding] = []
        known = _registered_namespaces()

        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            walker = _HeldWalker(graph, info, acquires, chains, known)
            walker.walk(info.body, [])
            for edge in walker.edges:
                edges.setdefault((edge.src, edge.dst), edge)
            unregistered.extend(walker.unregistered)

        findings = self._cycles(edges)
        findings.extend(unregistered)
        return findings

    # -- summaries ---------------------------------------------------------

    def _transitive_acquires(self, graph: CallGraph) -> Dict[str, Set[str]]:
        acquires: Dict[str, Set[str]] = {}
        for scc in graph.topo_sccs():
            members = [fid for fid in scc if fid in graph.functions]
            for fid in members:
                acquires.setdefault(fid, set())
            for _ in range(_MAX_SCC_ITER):
                changed = False
                for fid in members:
                    info = graph.functions[fid]
                    new = set(_own_acquires(graph, info))
                    for callee in graph.call_edges(fid):
                        new |= acquires.get(callee, set())
                    new.discard("?")
                    if new != acquires[fid]:
                        acquires[fid] = new
                        changed = True
                if not changed:
                    break
        return acquires

    # -- cycle reporting ---------------------------------------------------

    def _cycles(self, edges: Dict[Tuple[str, str], _Edge]) -> List[Finding]:
        graph_edges: Dict[str, List[str]] = {}
        for (src, dst) in sorted(edges):
            graph_edges.setdefault(src, []).append(dst)
        findings: List[Finding] = []
        reported: Set[Tuple[str, ...]] = set()

        from ..engine import strongly_connected
        for comp in strongly_connected(graph_edges):
            cyclic = len(comp) > 1 or \
                (comp[0], comp[0]) in edges
            if not cyclic:
                continue
            cycle = self._witness_cycle(comp, edges)
            if cycle is None or tuple(cycle) in reported:
                continue
            reported.add(tuple(cycle))
            hops: List[Hop] = []
            for i in range(len(cycle) - 1):
                hops.extend(edges[(cycle[i], cycle[i + 1])].chain)
            first = edges[(cycle[0], cycle[1])]
            anchor = first.chain[-1] if first.chain else None
            path, line = (anchor[1], anchor[2]) if anchor else ("", 1)
            findings.append(Finding(
                rule=self.id, path=path, line=line, col=0,
                message=("lock-order cycle "
                         + " -> ".join(cycle)
                         + " can deadlock"),
                hint=("impose one global acquisition order, or suppress "
                      "with the instance-ordering argument"),
                qualname=first.qual,
                detail="->".join(cycle),
                witness=tuple(hops),
            ))
        return findings

    @staticmethod
    def _witness_cycle(comp: List[str],
                       edges: Dict[Tuple[str, str], _Edge]) -> Optional[List[str]]:
        start = comp[0]           # comp is sorted; deterministic choice
        if (start, start) in edges:
            return [start, start]
        # shortest cycle through `start` inside the component (BFS)
        inside = set(comp)
        prev: Dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            node = queue.pop(0)
            for (src, dst) in sorted(edges):
                if src != node or dst not in inside:
                    continue
                if dst == start:
                    path = [dst]
                    cur = node
                    while cur != start:
                        path.append(cur)
                        cur = prev[cur]
                    path.append(start)
                    return list(reversed(path))
                if dst not in seen:
                    seen.add(dst)
                    prev[dst] = node
                    queue.append(dst)
        return None


def _own_acquires(graph: CallGraph, info: FuncInfo) -> Set[str]:
    out: Set[str] = set()
    for node in ir_nodes(info.body):
        if node[0] == CALL and node[4] == "acquire":
            out.update(graph.resolve_lock_namespaces(info, node[5]))
    return out


class _AcquireChains:
    """Witness chains: where does `fid` (transitively) acquire `ns`?"""

    def __init__(self, graph: CallGraph, acquires: Dict[str, Set[str]]):
        self.graph = graph
        self.acquires = acquires
        self._cache: Dict[Tuple[str, str], Tuple[Hop, ...]] = {}

    def chain(self, fid: str, ns: str,
              _visited: Optional[Set[str]] = None) -> Tuple[Hop, ...]:
        key = (fid, ns)
        if key in self._cache:
            return self._cache[key]
        visited = _visited or set()
        if fid in visited or fid not in self.graph.functions:
            return ()
        visited.add(fid)
        info = self.graph.functions[fid]
        site = self._direct_site(info, ns)
        if site is not None:
            out = ((f"{info.qual} acquires {ns}", info.relpath, site),)
        else:
            out = ()
            for line, callee in self._calls_in_order(info):
                if ns in self.acquires.get(callee, set()):
                    sub = self.chain(callee, ns, visited)
                    callee_qual = self.graph.functions[callee].qual
                    out = ((f"{info.qual} calls {callee_qual}",
                            info.relpath, line),) + sub
                    break
        self._cache[key] = out
        return out

    def _direct_site(self, info: FuncInfo, ns: str) -> Optional[int]:
        for node in ir_nodes(info.body):
            if node[0] == CALL and node[4] == "acquire" and \
                    ns in self.graph.resolve_lock_namespaces(info, node[5]):
                return node[1]
        return None

    def _calls_in_order(self, info: FuncInfo) -> List[Tuple[int, str]]:
        return [(node[1], callee) for node in ir_nodes(info.body)
                if node[0] == CALL
                for callee in self.graph.resolve_call(info, node[3],
                                                      node[4])]


class _HeldWalker:
    """Collect acquisition edges for one function via a held-set walk."""

    def __init__(self, graph: CallGraph, info: FuncInfo,
                 acquires: Dict[str, Set[str]], chains: _AcquireChains,
                 known: Set[str]):
        self.graph = graph
        self.info = info
        self.acquires = acquires
        self.chains = chains
        self.known = known
        self.edges: List[_Edge] = []
        self.unregistered: List[Finding] = []
        self._flagged_sites: Set[int] = set()

    def walk(self, block: List, held: List[str]) -> List[str]:
        for node in block:
            tag = node[0]
            if tag == CALL:
                held = self._call(node, held)
            elif tag in (ASGN, RET, RAISE):
                pass
            elif tag == IF:
                h1 = self.walk(node[1], list(held))
                h2 = self.walk(node[2], list(held))
                held = self._join(h1, h2)
            elif tag == LOOP:
                h1 = self.walk(node[1], list(held))
                if sorted(h1) != sorted(held):
                    # second pass surfaces cross-iteration nesting
                    h1 = self.walk(node[1], list(h1))
                held = self._join(held, h1)
                held = self.walk(node[2], held)
            elif tag == TRY:
                h1 = self.walk(node[1], list(held))
                for handler in node[2]:
                    h1 = self._join(h1, self.walk(handler, list(h1)))
                held = self.walk(node[3], h1)
            elif tag == WITH:
                before = list(held)
                held = self.walk(node[1], held)
                scope_extra: List[str] = []
                for item in node[1]:
                    if item[0] != CALL:
                        continue
                    for callee in self.graph.resolve_call(
                            self.info, item[3], item[4]):
                        for ns in sorted(self.acquires.get(callee, set())):
                            if ns not in held:
                                scope_extra.append(ns)
                # a context manager that locks holds for the body only
                held = self.walk(node[2], held + scope_extra)
                held = [ns for ns in held if ns not in scope_extra or
                        ns in before]
        return held

    @staticmethod
    def _join(a: List[str], b: List[str]) -> List[str]:
        out = list(a)
        for ns in b:
            if out.count(ns) < b.count(ns):
                out.append(ns)
        return out

    def _call(self, node: List, held: List[str]) -> List[str]:
        line, recv, fn, lockspec = node[1], node[3], node[4], node[5]
        locks_recv = recv.split(".")[-1] == "locks"
        if fn == "acquire" and locks_recv:
            spaces = self.graph.resolve_lock_namespaces(self.info, lockspec)
            for ns in spaces:
                if ns == "?":
                    continue
                if ns not in self.known and line not in self._flagged_sites:
                    self._flagged_sites.add(line)
                    self.unregistered.append(Finding(
                        rule="lock-discipline", path=self.info.relpath,
                        line=line, col=0,
                        message=(f"lock namespace '{ns}' is not registered "
                                 "in repro.clock.LOCK_NAMESPACES"),
                        hint="register the namespace or fix the lock name",
                        qualname=self.info.qual, detail=f"unregistered:{ns}",
                        severity="warning",
                    ))
                hop: Hop = (f"{self.info.qual} acquires {ns}",
                            self.info.relpath, line)
                for h in sorted(set(held)):
                    self.edges.append(_Edge(h, ns, (hop,), self.info.qual))
                held = held + [ns]
            return held
        if fn == "release" and locks_recv:
            spaces = self.graph.resolve_lock_namespaces(self.info, lockspec)
            if spaces == ["?"]:
                return []          # unknown release: drop everything held
            out = list(held)
            for ns in spaces:
                if ns in out:
                    out.remove(ns)
            return out
        if fn == "atomic" and locks_recv:
            return held            # bounded reservation, not a held lock
        if held:
            for callee in self.graph.resolve_call(self.info, recv, fn):
                for ns in sorted(self.acquires.get(callee, set())):
                    chain = self.chains.chain(callee, ns)
                    callee_qual = self.graph.functions[callee].qual
                    hop = (f"{self.info.qual} calls {callee_qual}",
                           self.info.relpath, line)
                    for h in sorted(set(held)):
                        self.edges.append(
                            _Edge(h, ns, (hop,) + chain, self.info.qual))
        return held


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


class LockDiscipline:
    id = "lock-discipline"

    def check(self, graph: CallGraph) -> List[Finding]:
        known = _registered_namespaces()
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
