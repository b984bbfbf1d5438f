"""degraded-write-guard: mutating VFS entry points must check writability.

The degraded-mode ladder (PR 3) remounts a filesystem read-only after
unrecoverable faults; from then on every mutating entry point must fail
with ``ReadOnlyError`` *before* touching shared state.  The contract is
that ``_check_writable()`` dominates the first mutation on every path
through a mutating ``FileSystem`` method.  The state is one flag,
"checked", run through each function's IR by :meth:`_Run.exec_block`;
paths join with *and*.  A return or raise ends a path (recovery owns
the raise paths); a loop body runs once and joins with the loop-skip
state; an exception handler starts from the join of the try entry and
body.

Mutation events: attribute/subscript stores outside ``__init__``-style
constructors, PM device writes, lock acquisitions (shared state is only
mutated under locks here, so acquiring one is the canonical first step
of a mutation), and calls to callees that (transitively) mutate.

Callee summaries make the check interprocedural and delegation-safe:

* ``checks`` — the callee itself establishes the guard on every
  non-raising exit before any of its own mutations (``BaseFS.write``),
  so delegating wrappers like ``FileSystem.write_zeros`` are clean and
  the wrapper's state becomes "checked" after the call;
* ``mutates`` + a witness chain to the callee's first mutation, so a
  wrapper that skips the guard is reported with the path to the state
  it would have clobbered.

Summaries are computed callee-first over the SCCs of the call graph;
each SCC is re-summarized until no member's ``(mutates, checks)``
changes, at most five rounds (every SCC of ``src/repro`` settles in
three).  Virtual dispatch joins conservatively: a call checks only if
*every* override in the family checks.  Early returns that did no work
(e.g. ``write_zeros`` with ``length <= 0``) are exempt.  Findings
anchor at the entry point's ``def`` line, where a suppression (or a
decorator-aware allow comment) naturally sits.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from ..findings import Finding
from ..flow import (ASGN, CALL, IF, LOOP, RAISE, RET, TRY, WITH, CallGraph,
                    FuncInfo)

#: FileSystem methods that mutate state (the degraded ladder's surface)
MUTATING_OPS = frozenset({
    "create", "unlink", "mkdir", "rmdir", "rename", "link", "symlink",
    "write", "write_zeros", "truncate", "ftruncate", "fallocate",
    "setxattr", "removexattr",
})

_ROOT_CLASS = "FileSystem"
_ENTRY_MODULE_PREFIXES = ("repro.fs", "repro.core", "repro.vfs")
_INIT_FNS = {"__init__", "__post_init__", "__new__"}
_DEVICE_WRITE_FNS = {"store", "persist", "write_zeros"}
_DEVICE_SEGMENTS = ("device", "dev", "pm", "pmem")
_CHECK_FNS = {"_check_writable"}
#: summary rounds per SCC
_MAX_SCC_ITER = 5

Hop = Tuple[str, str, int]   # one witness step: (label, path, line)


def _is_device(recv: str) -> bool:
    """Does receiver *recv* name a PM device (``self.device``, ``pm``)?"""
    for seg in recv.lower().split("."):
        seg = seg.lstrip("_")
        if any(d in seg for d in _DEVICE_SEGMENTS):
            return True
    return False


class Summary(NamedTuple):
    """A callee's facts; the fixpoint compares ``(mutates, checks)``."""
    mutates: bool = False
    checks: bool = False
    mut_chain: Tuple[Hop, ...] = ()


def _join(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    """Where two paths meet; ``None`` is the state of no path."""
    if a is None:
        return b
    if b is None:
        return a
    return a and b


class _Run:
    """Track (checked?) through one function; record unguarded mutations.

    ``exits`` holds the checked flag at each non-raise exit."""

    def __init__(self, graph: CallGraph, info: FuncInfo,
                 summaries: Dict[str, Summary]):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        self.exits: List[bool] = []
        self.mutates = False
        self.mut_chain: Tuple[Hop, ...] = ()
        self.unguarded: Optional[Tuple[Hop, ...]] = None
        final = self.exec_block(info.body, False)
        if final is not None:
            self.exits.append(final)

    def exec_block(self, block: List, checked: Optional[bool]
                   ) -> Optional[bool]:
        for node in block:
            if checked is None:
                return None
            tag = node[0]
            if tag == CALL:
                checked = self._call(checked, node[1], node[2], node[3])
            elif tag == ASGN:
                self._assign(checked, node[1], node[3], node[4])
            elif tag == RET:
                self.exits.append(checked)
                return None
            elif tag == RAISE:
                return None
            elif tag == IF:
                checked = _join(self.exec_block(node[1], checked),
                                self.exec_block(node[2], checked))
            elif tag == LOOP:
                checked = self.exec_block(node[2], _join(
                    checked, self.exec_block(node[1], checked)))
            elif tag == TRY:
                body = self.exec_block(node[1], checked)
                entry = _join(checked, body)
                merged = body
                for handler in node[2]:
                    merged = _join(merged, self.exec_block(handler, entry))
                # a finally block runs even when no path leaves the try
                fin = self.exec_block(
                    node[3], checked if merged is None else merged)
                checked = None if merged is None else fin
            elif tag == WITH:
                checked = self.exec_block(
                    node[2], self.exec_block(node[1], checked))
        return checked

    def _mutation(self, chain: Tuple[Hop, ...], checked: bool) -> None:
        if not self.mutates:
            self.mutates = True
            self.mut_chain = chain
        if not checked and self.unguarded is None:
            self.unguarded = chain

    def _call(self, checked: bool, line: int, recv: str, fn: str) -> bool:
        if fn in _CHECK_FNS and recv in ("self", "cls", "super", ""):
            return True
        if fn == "acquire" and recv.split(".")[-1] == "locks":
            self._mutation(((f"{self.info.qual} acquires a lock",
                             self.info.relpath, line),), checked)
            return checked
        if _is_device(recv) and fn in _DEVICE_WRITE_FNS:
            self._mutation(((f"{self.info.qual}: PM write via {recv}",
                             self.info.relpath, line),), checked)
            return checked
        targets = [t for t in self.graph.resolve_call(self.info, recv, fn)
                   if t in self.summaries
                   and not self.graph.functions[t].trivial]
        if not targets:
            return checked
        sums = [self.summaries[t] for t in targets]
        if all(s.checks for s in sums):
            return True
        mutating = [(t, s) for t, s in zip(targets, sums) if s.mutates]
        if mutating:
            t, s = mutating[0]
            callee_qual = self.graph.functions[t].qual
            hop: Hop = (f"{self.info.qual} calls {callee_qual}",
                        self.info.relpath, line)
            self._mutation((hop,) + s.mut_chain, checked)
        return checked

    def _assign(self, checked: bool, line: int, recv: str,
                field: str) -> None:
        if recv.split(".")[0] == "self" and self.info.name in _INIT_FNS:
            return     # object construction, not shared state
        self._mutation(((f"{self.info.qual} writes {recv}.{field}",
                         self.info.relpath, line),), checked)


class DegradedWriteGuard:
    id = "degraded-write-guard"

    def check(self, graph: CallGraph) -> List[Finding]:
        summaries: Dict[str, Summary] = {}
        for scc in graph.topo_sccs():
            members = [fid for fid in scc if fid in graph.functions]
            for fid in members:
                summaries[fid] = Summary()
            for _ in range(_MAX_SCC_ITER):
                changed = False
                for fid in members:
                    new = self._summarize(graph, graph.functions[fid],
                                          summaries)
                    changed |= new[:2] != summaries[fid][:2]
                    summaries[fid] = new
                if not changed:
                    break
        findings: List[Finding] = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if not self._is_entry_point(graph, info):
                continue
            run = _Run(graph, info, summaries)
            if run.unguarded is None:
                continue
            findings.append(Finding(
                rule=self.id, path=info.relpath, line=info.line, col=0,
                message=(f"mutating entry point {info.qual} can reach a "
                         "mutation before _check_writable()"),
                hint=("call self._check_writable() (after _check_mounted) "
                      "before touching any state"),
                qualname=info.qual,
                detail="unguarded",
                witness=run.unguarded,
            ))
        return findings

    @staticmethod
    def _summarize(graph: CallGraph, info: FuncInfo,
                   summaries: Dict[str, Summary]) -> Summary:
        if info.trivial:
            return Summary()
        run = _Run(graph, info, summaries)
        return Summary(run.mutates, run.unguarded is None
                       and bool(run.exits) and all(run.exits),
                       run.mut_chain)

    def _is_entry_point(self, graph: CallGraph, info: FuncInfo) -> bool:
        if info.trivial or not info.cls or info.name not in MUTATING_OPS:
            return False
        if not info.module.startswith(_ENTRY_MODULE_PREFIXES):
            return False
        mro = graph.mro((info.module, info.cls))
        return any(cls == _ROOT_CLASS for (_mod, cls) in mro)
