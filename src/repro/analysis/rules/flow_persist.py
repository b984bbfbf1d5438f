"""PM dirt must be fenced before a commit: ``persist-before-commit``.

The crash-consistency contract of every journaled path in this codebase
is *undo-log, mutate, flush+fence, commit*: once the journal commit
record lands, recovery will NOT roll the transaction back, so any data
store that has not reached ``persist()``/``clwb``+``sfence`` by that
point can be torn or lost across a crash — exactly the dominant bug
class in the PM-issues survey.

The rule's state domain, run through each function's IR by the shared
:class:`repro.analysis.flow.Interpreter`, is a per-receiver three-level
lattice (clean / stored-and-clwbed / stored) with the semantics of
:class:`repro.pm.device.PMDevice`:

* ``recv.store(...)``  -> stored (dirty in the cache hierarchy)
* ``recv.clwb(...)``   -> stored becomes clwbed (flush issued)
* ``recv.sfence()``    -> every clwbed receiver becomes clean (the fence
  is global; un-flushed stores stay dirty)
* ``recv.persist(...)``/``recv.write_zeros(...)`` -> store+clwb+sfence
  helpers: a fence that also retires the receiver's own earlier stores
* ``recv.drain()``     -> flush+fence everything: all clean
* ``raise``            -> exempt (recovery owns durability)

Branches join with the worst level per receiver.

It crosses function boundaries with summaries:

* ``exit_dirty`` — can return with unfenced stores of its own making;
* ``fences`` / ``drains`` — guarantees entry dirt (clwbed / any) is
  clean on every non-raising exit;
* ``commits_with_*`` — contains a commit reachable while entry dirt of
  the given level is still unfenced.

A ``with self._meta_txn(...)`` block commits when the block exits, so
the block end is a commit event.  Findings anchor at the offending
store; the witness chain walks store -> (calls) -> commit so the report
reads as the failure path.

A store left unfenced on a path that never commits is the crash
explorer's to catch, not this rule's: the overwrite and create paths
are enumerated crash state by crash state in tier 1.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..findings import Finding
from ..flow import (CALL, CallGraph, FuncInfo, Hop, Interpreter, is_device,
                    summarize_sccs)

State = Dict[str, Tuple[int, Tuple[Hop, ...]]]   # recv -> (level, chain)

_STORE_FNS = {"store"}
_CLWB_FNS = {"clwb"}
_FENCE_FNS = {"sfence"}
_PERSIST_FNS = {"persist", "write_zeros"}
_DRAIN_FNS = {"drain"}
#: with-blocks whose scope object commits the journal on exit
TXN_SCOPE_FNS = {"_meta_txn"}
_COMMIT_RECV_HINTS = ("txn", "transaction", "journal")

_CLWBED_ENTRY = "<entry:clwbed>"
_STORED_ENTRY = "<entry:stored>"


def _is_commit(recv: str, fn: str) -> bool:
    if fn != "commit":
        return False
    last = recv.split(".")[-1].lstrip("_").lower()
    return any(h in last for h in _COMMIT_RECV_HINTS)


class Summary:
    __slots__ = ("exit_dirty", "dirty_chain", "fences", "drains",
                 "commits", "commit_chain",
                 "commits_with_clwbed", "commits_with_stored")

    def __init__(self) -> None:
        self.exit_dirty = False
        self.dirty_chain: Tuple[Hop, ...] = ()
        self.fences = False
        self.drains = False
        self.commits = False
        self.commit_chain: Tuple[Hop, ...] = ()
        self.commits_with_clwbed = False
        self.commits_with_stored = False

    def key(self) -> Tuple:
        return (self.exit_dirty, self.fences, self.drains, self.commits,
                self.commits_with_clwbed, self.commits_with_stored)


class _Run(Interpreter):
    """One abstract execution of a function body."""

    def __init__(self, graph: CallGraph, info: FuncInfo,
                 summaries: Dict[str, Summary], report: bool):
        super().__init__(graph, info)
        self.summaries = summaries
        self.report = report
        self.commits = False
        self.commit_chain: Tuple[Hop, ...] = ()
        self.commits_with_clwbed = False
        self.commits_with_stored = False
        self.violations: List[Tuple[Tuple[Hop, ...], Tuple[Hop, ...]]] = []
        self._seen_violations: set = set()

    # -- state domain ------------------------------------------------------

    def copy(self, state: State) -> State:
        return dict(state)

    def join(self, a: State, b: State) -> State:
        out = dict(a)
        for recv, (lvl, chain) in b.items():
            cur = out.get(recv)
            if cur is None or lvl > cur[0]:
                out[recv] = (lvl, chain)
        return out

    # -- events ------------------------------------------------------------

    def _commit_event(self, state: State, line: int) -> None:
        self.commits = True
        hop: Hop = (f"{self.info.qual}: journal commit",
                    self.info.relpath, line)
        if not self.commit_chain:
            self.commit_chain = (hop,)
        for recv in sorted(state):
            lvl, chain = state[recv]
            if recv == _CLWBED_ENTRY:
                self.commits_with_clwbed = True
            elif recv == _STORED_ENTRY:
                self.commits_with_stored = True
            elif self.report:
                self._violation(chain, (hop,))

    def _violation(self, chain: Tuple[Hop, ...],
                   commit_chain: Tuple[Hop, ...]) -> None:
        key = (chain[:1], commit_chain[:1])
        if key in self._seen_violations:
            return
        self._seen_violations.add(key)
        self.violations.append((chain, commit_chain))

    def with_exit(self, state: State, items: List) -> State:
        # the _meta_txn scope object commits when the block exits
        if any(item[0] == CALL and item[4] in TXN_SCOPE_FNS
               for item in items):
            self._commit_event(state, items[0][1])
        return state

    def call(self, state: State, line: int, recv: str, fn: str) -> State:
        if is_device(recv):
            if fn in _STORE_FNS:
                hop: Hop = (f"{self.info.qual}: store via {recv}",
                            self.info.relpath, line)
                state[recv] = (2, (hop,))
            elif fn in _CLWB_FNS:
                cur = state.get(recv)
                if cur is not None and cur[0] == 2:
                    state[recv] = (1, cur[1])
            elif fn in _FENCE_FNS:
                for r in [r for r, (lvl, _) in state.items() if lvl == 1]:
                    del state[r]
            elif fn in _PERSIST_FNS:
                state.pop(recv, None)
                for r in [r for r, (lvl, _) in state.items() if lvl == 1]:
                    del state[r]
            elif fn in _DRAIN_FNS:
                state.clear()
            return state
        if _is_commit(recv, fn):
            self._commit_event(state, line)
            return state
        targets = [self.summaries[t]
                   for t in self.graph.resolve_call(self.info, recv, fn)
                   if t in self.summaries]
        if not targets:
            return state
        call_hop: Hop = (f"{self.info.qual}: calls {recv + '.' if recv else ''}{fn}",
                         self.info.relpath, line)
        # a dirty caller must not reach a callee that commits first
        for r in sorted(state):
            lvl, chain = state[r]
            if r in (_CLWBED_ENTRY, _STORED_ENTRY):
                for s in targets:
                    if (lvl >= 2 and s.commits_with_stored) or \
                            (lvl == 1 and s.commits_with_clwbed):
                        if lvl >= 2:
                            self.commits_with_stored = True
                        else:
                            self.commits_with_clwbed = True
                        self.commits = True
                        if not self.commit_chain:
                            self.commit_chain = (call_hop,) + \
                                targets[0].commit_chain
                continue
            if self.report:
                for s in targets:
                    if (lvl >= 2 and s.commits_with_stored) or \
                            (lvl == 1 and s.commits_with_clwbed):
                        self._violation(chain, (call_hop,) + s.commit_chain)
                        break
        if all(s.drains for s in targets):
            state.clear()
        elif all(s.fences for s in targets):
            for r in [r for r, (lvl, _) in state.items() if lvl == 1]:
                del state[r]
        dirty = [s for s in targets if s.exit_dirty]
        if dirty:
            chain = dirty[0].dirty_chain + (call_hop,)
            key = chain[0] if chain else call_hop
            state[f"<ret:{key[0]}>"] = (2, chain)
        return state


class PersistBeforeCommit:
    id = "persist-before-commit"

    def check(self, graph: CallGraph) -> List[Finding]:
        summaries = summarize_sccs(graph, self._summarize, Summary)
        findings: List[Finding] = []
        for fid in sorted(graph.functions):
            info = graph.functions[fid]
            if info.trivial:
                continue
            run = _Run(graph, info, summaries, report=True)
            run.run({})
            for chain, commit_chain in run.violations:
                anchor = chain[0] if chain else (info.qual, info.relpath,
                                                 info.line)
                witness = chain[1:] + commit_chain
                findings.append(Finding(
                    rule=self.id, path=anchor[1], line=anchor[2], col=0,
                    message=("PM store reaches a journal commit without an "
                             "intervening persist()/fence"),
                    hint=("flush+fence (device.persist or clwb+sfence) "
                          "before the transaction scope closes"),
                    qualname=info.qual,
                    detail=anchor[0],
                    witness=witness,
                ))
        return findings

    @staticmethod
    def _summarize(graph: CallGraph, info: FuncInfo,
                   summaries: Dict[str, Summary]) -> Summary:
        s = Summary()
        if info.trivial:
            s.fences = s.drains = False
            return s
        run = _Run(graph, info, summaries, report=False)
        run.run({_CLWBED_ENTRY: (1, ()), _STORED_ENTRY: (2, ())})
        s.commits = run.commits
        s.commit_chain = run.commit_chain
        s.commits_with_clwbed = run.commits_with_clwbed
        s.commits_with_stored = run.commits_with_stored
        s.fences = all(_CLWBED_ENTRY not in ex for ex in run.exits) \
            and bool(run.exits)
        s.drains = all(_STORED_ENTRY not in ex for ex in run.exits) \
            and bool(run.exits)
        for ex in run.exits:
            for recv in sorted(ex):
                if recv in (_CLWBED_ENTRY, _STORED_ENTRY):
                    continue
                lvl, chain = ex[recv]
                if lvl > 0:
                    s.exit_dirty = True
                    if not s.dirty_chain:
                        s.dirty_chain = chain
        return s
