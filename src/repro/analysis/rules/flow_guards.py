"""degraded-write-guard: mutating VFS entry points must check writability.

The degraded-mode ladder (PR 3) remounts a filesystem read-only after
unrecoverable faults; from then on every mutating entry point must fail
with ``ReadOnlyError`` *before* touching shared state.  The contract is
that ``_check_writable()`` dominates the first mutation on every path
through a mutating ``FileSystem`` method.  The state is one flag,
"checked", run through each function's IR by the shared
:class:`repro.analysis.flow.Interpreter`; paths join with *and*.

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

from typing import Dict, List, Optional, Tuple

from ..findings import Finding
from ..flow import (CallGraph, FuncInfo, Hop, Interpreter, is_device,
                    summarize_sccs)

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


class Summary:
    __slots__ = ("mutates", "mut_chain", "checks")

    def __init__(self) -> None:
        self.mutates = False
        self.mut_chain: Tuple[Hop, ...] = ()
        self.checks = False

    def key(self) -> Tuple:
        return (self.mutates, self.checks)


class _Run(Interpreter):
    """Track (checked?) through one function; record unguarded mutations.

    ``exits`` holds the checked flag at each non-raise exit."""

    def __init__(self, graph: CallGraph, info: FuncInfo,
                 summaries: Dict[str, Summary]):
        super().__init__(graph, info)
        self.summaries = summaries
        self.mutates = False
        self.mut_chain: Tuple[Hop, ...] = ()
        self.unguarded: Optional[Tuple[Hop, ...]] = None

    def join(self, a: bool, b: bool) -> bool:
        return a and b

    def _mutation(self, chain: Tuple[Hop, ...], checked: bool) -> None:
        if not self.mutates:
            self.mutates = True
            self.mut_chain = chain
        if not checked and self.unguarded is None:
            self.unguarded = chain

    def call(self, checked: bool, line: int, recv: str, fn: str) -> bool:
        if fn in _CHECK_FNS and recv in ("self", "cls", "super", ""):
            return True
        if fn == "acquire" and recv.split(".")[-1] == "locks":
            self._mutation(((f"{self.info.qual} acquires a lock",
                             self.info.relpath, line),), checked)
            return checked
        if is_device(recv) and fn in _DEVICE_WRITE_FNS:
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

    def assign(self, checked: bool, line: int, recv: str,
               field: str) -> bool:
        if recv.split(".")[0] == "self" and self.info.name in _INIT_FNS:
            return checked     # object construction, not shared state
        self._mutation(((f"{self.info.qual} writes {recv}.{field}",
                         self.info.relpath, line),), checked)
        return checked


class DegradedWriteGuard:
    id = "degraded-write-guard"

    def check(self, graph: CallGraph) -> List[Finding]:
        summaries = summarize_sccs(graph, self._summarize, Summary)
        findings: List[Finding] = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if not self._is_entry_point(graph, info):
                continue
            run = _Run(graph, info, summaries)
            run.run(False)
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
        run.run(False)
        s.mutates = run.mutates
        s.mut_chain = run.mut_chain
        s.checks = (run.unguarded is None and bool(run.exits)
                    and all(run.exits))
        return s

    def _is_entry_point(self, graph: CallGraph, info: FuncInfo) -> bool:
        if info.trivial or not info.cls or info.name not in MUTATING_OPS:
            return False
        if not info.module.startswith(_ENTRY_MODULE_PREFIXES):
            return False
        mro = graph.mro((info.module, info.cls))
        return any(cls == _ROOT_CLASS for (_mod, cls) in mro)
