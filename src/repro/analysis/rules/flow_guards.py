"""degraded-write-guard: mutating VFS entry points must check writability.

The degraded-mode ladder (PR 3) remounts a filesystem read-only after
unrecoverable faults; from then on every mutating entry point must fail
with ``ReadOnlyError`` *before* touching shared state.  The contract is
that ``_check_writable()`` dominates the first mutation on every path
through a mutating ``FileSystem`` method.

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

Virtual dispatch joins conservatively: a call checks only if *every*
override in the family checks.  Early returns that did no work (e.g.
``write_zeros`` with ``length <= 0``) are exempt.  Findings anchor at
the entry point's ``def`` line, where a suppression (or a decorator-
aware allow comment) naturally sits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..findings import Finding
from ..flow import ASGN, CALL, IF, LOOP, RAISE, RET, TRY, WITH, CallGraph, FuncInfo
from .flow_persist import _is_device

Hop = Tuple[str, str, int]

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
_CHECK_FNS = {"_check_writable"}
_MAX_SCC_ITER = 5


class Summary:
    __slots__ = ("mutates", "mut_chain", "checks")

    def __init__(self) -> None:
        self.mutates = False
        self.mut_chain: Tuple[Hop, ...] = ()
        self.checks = False

    def key(self) -> Tuple:
        return (self.mutates, self.checks)


class _Run:
    """Track (checked?) through one function; record unguarded mutations."""

    def __init__(self, graph: CallGraph, info: FuncInfo,
                 summaries: Dict[str, Summary]):
        self.graph = graph
        self.info = info
        self.summaries = summaries
        self.exit_flags: List[bool] = []    # checked at each non-raise exit
        self.mutates = False
        self.mut_chain: Tuple[Hop, ...] = ()
        self.unguarded: Optional[Tuple[Hop, ...]] = None

    def run(self) -> None:
        final = self.exec_block(self.info.body, False)
        if final is not None:
            self.exit_flags.append(final)

    def _mutation(self, chain: Tuple[Hop, ...], checked: bool) -> None:
        if not self.mutates:
            self.mutates = True
            self.mut_chain = chain
        if not checked and self.unguarded is None:
            self.unguarded = chain

    def _call(self, node: List, checked: bool) -> bool:
        line, recv, fn = node[1], node[3], node[4]
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

    def exec_block(self, block: List,
                   checked: Optional[bool]) -> Optional[bool]:
        for node in block:
            if checked is None:
                return None
            tag = node[0]
            if tag == CALL:
                checked = self._call(node, checked)
            elif tag == ASGN:
                recv = node[3]
                if recv.split(".")[0] == "self" and \
                        self.info.name in _INIT_FNS:
                    continue   # object construction, not shared state
                self._mutation(((f"{self.info.qual} writes {recv}.{node[4]}",
                                 self.info.relpath, node[1]),), checked)
            elif tag == RET:
                self.exit_flags.append(checked)
                return None
            elif tag == RAISE:
                return None    # error path: the guard's own raise lands here
            elif tag == IF:
                c1 = self.exec_block(node[1], checked)
                c2 = self.exec_block(node[2], checked)
                checked = self._join(c1, c2)
            elif tag == LOOP:
                c1 = self.exec_block(node[1], checked)
                checked = self._join(checked, c1)
                if node[2]:
                    checked = self.exec_block(node[2], checked)
            elif tag == TRY:
                c1 = self.exec_block(node[1], checked)
                merged = c1
                for handler in node[2]:
                    base = checked if c1 is None else (checked and c1)
                    merged = self._join(merged,
                                        self.exec_block(handler, base))
                if node[3]:
                    base = merged if merged is not None else checked
                    fin = self.exec_block(node[3], base)
                    checked = fin if merged is not None else None
                else:
                    checked = merged
            elif tag == WITH:
                checked = self.exec_block(node[1], checked)
                if checked is None:
                    return None
                checked = self.exec_block(node[2], checked)
        return checked

    @staticmethod
    def _join(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
        if a is None:
            return b
        if b is None:
            return a
        return a and b


class DegradedWriteGuard:
    id = "degraded-write-guard"

    def check(self, graph: CallGraph) -> List[Finding]:
        summaries: Dict[str, Summary] = {}
        for scc in graph.topo_sccs():
            members = [fid for fid in scc if fid in graph.functions]
            for fid in members:
                summaries.setdefault(fid, Summary())
            for _ in range(_MAX_SCC_ITER):
                changed = False
                for fid in members:
                    new = self._summarize(graph, graph.functions[fid],
                                          summaries)
                    if new.key() != summaries[fid].key():
                        changed = True
                    summaries[fid] = new
                if not changed:
                    break

        findings: List[Finding] = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if not self._is_entry_point(graph, info):
                continue
            run = _Run(graph, info, summaries)
            run.run()
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
        s = Summary()
        if info.trivial:
            return s
        run = _Run(graph, info, summaries)
        run.run()
        s.mutates = run.mutates
        s.mut_chain = run.mut_chain
        s.checks = (run.unguarded is None and bool(run.exit_flags)
                    and all(run.exit_flags))
        return s

    def _is_entry_point(self, graph: CallGraph, info: FuncInfo) -> bool:
        if info.trivial or not info.cls or info.name not in MUTATING_OPS:
            return False
        if not info.module.startswith(_ENTRY_MODULE_PREFIXES):
            return False
        mro = graph.mro((info.module, info.cls))
        return any(cls == _ROOT_CLASS for (_mod, cls) in mro)
