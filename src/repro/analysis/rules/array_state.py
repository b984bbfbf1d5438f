"""Rule ``array-kernel`` — array-backed state mutated outside its kernel.

The hot simulator state lives in structure-of-arrays kernels: the
per-CPU clock array (``SimClock._cpu_ns``), the allocator run store
(``FreePool._rs`` / :class:`~repro.structures.runstore.RunStore`), and
the PM device's store-log columns (``_log_seqs`` / ``_log_addrs`` /
``_log_data`` / ``_log_flushed``).  Their invariants — parallel columns
stay aligned, derived indexes track the extent set, clock adds replay
the reference float sequence — hold only because every mutation goes
through an audited kernel function.

A ``+=``/``[...] =``/``.append(...)`` against one of these attributes
from an unsanctioned module bypasses those kernels: it may keep tests
green (the columns still *read* fine) while silently breaking
bit-identity with the reference oracles or corrupting a derived index
that only an aged workload consults.  This rule flags any mutation of a
watched attribute outside the modules sanctioned to own it, including
one made through a local bound to it in the same function
(``cpu_ns = ctx.clock._cpu_ns`` then ``cpu_ns[cpu] = v``).

Reading the arrays is fine anywhere (``ctx.clock._cpu_ns[cpu]`` as a
timestamp, benchmarks summing clocks); only mutation is gated.  New
fused-kernel call sites are added by extending ``_SANCTIONED`` in the
same change that audits their add-sequence, or — for a one-off — with
``# repro: allow[array-kernel]`` and a justification.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Mapping, Tuple

from ..engine import FileContext, FileRule
from ..findings import Finding
from . import dotted, enclosing_qualnames

#: watched attribute -> modules sanctioned to mutate it, each of which
#: does: the clock and device that own their arrays, and the audited
#: fused-charge kernels that write the clock array directly.  No module
#: writes through ``_rs``: the free-space pool changes its run store
#: only through ``RunStore``'s own methods.
_SANCTIONED: Dict[str, Tuple[str, ...]] = {
    "_cpu_ns": ("repro.clock", "repro.vfs.interface", "repro.core.journal",
                "repro.fs.common.dirindex", "repro.mmu.mmap_region",
                "repro.pm.device"),
    "_rs": (),
    "_log_seqs": ("repro.pm.device",),
    "_log_addrs": ("repro.pm.device",),
    "_log_data": ("repro.pm.device",),
    "_log_flushed": ("repro.pm.device",),
}

#: method calls that mutate a list / bytearray / dict column in place
_MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "reverse", "update", "setdefault", "popitem", "frombytes",
})


def _watched_segment(chain: str, aliases: Mapping[str, str]) -> str:
    """The watched attribute a dotted receiver chain touches, or ''.

    A chain whose head is a local in *aliases* touches the attribute
    that local was bound to.
    """
    segs = chain.split(".")
    if segs[0] in aliases:
        return aliases[segs[0]]
    for seg in segs:
        if seg in _SANCTIONED:
            return seg
    return ""


def _local_aliases(tree: ast.Module) -> Dict[int, Dict[str, str]]:
    """``id(node)`` -> {local name: watched attribute} for every node in
    a function that binds a local to (a chain through) a watched
    attribute, e.g. ``cpu_ns = ctx.clock._cpu_ns``."""
    out: Dict[int, Dict[str, str]] = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound: Dict[str, str] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                attr = _watched_segment(dotted(node.value) or "", bound)
                for target in node.targets:
                    if attr and isinstance(target, ast.Name):
                        bound[target.id] = attr
        if bound:
            # nested functions come later in the walk and take their own
            for node in ast.walk(func):
                out[id(node)] = bound
    return out


class ArrayStateRule(FileRule):
    id = "array-kernel"

    def run(self, ctx: FileContext) -> List[Finding]:
        if not ctx.module.startswith("repro."):
            return []
        quals = None
        findings: List[Finding] = []

        def flag(node: ast.AST, attr: str, how: str) -> None:
            nonlocal quals
            if ctx.is_suppressed(self.id, node.lineno):
                return
            if quals is None:
                quals = enclosing_qualnames(ctx.tree)
            qual = quals.get(id(node), "")
            owners = ", ".join(_SANCTIONED[attr]) or "none"
            findings.append(Finding(
                rule=self.id, path=ctx.relpath, line=node.lineno,
                col=node.col_offset,
                message=f"{how} of array-backed state '{attr}' outside "
                        f"its kernel modules",
                hint=f"mutate '{attr}' only via its kernel API (owners: "
                     f"{owners}), or extend _SANCTIONED alongside an "
                     f"audited kernel",
                qualname=qual, detail=attr))

        scopes = _local_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            aliases = scopes.get(id(node), {})
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    attr = self._target_attr(target, aliases)
                    if attr and ctx.module not in _SANCTIONED[attr]:
                        flag(node, attr, "direct write")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = self._target_attr(target, aliases)
                    if attr and ctx.module not in _SANCTIONED[attr]:
                        flag(node, attr, "element delete")
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATORS:
                chain = dotted(node.func.value) or ""
                attr = _watched_segment(chain, aliases)
                if attr and ctx.module not in _SANCTIONED[attr]:
                    flag(node, attr, f"mutating call .{node.func.attr}()")
        return findings

    @staticmethod
    def _target_attr(target: ast.AST, aliases: Mapping[str, str]) -> str:
        """Watched attribute a store target mutates, or ''.

        ``x._cpu_ns[i] = v`` and ``x._rs.starts[i] = v`` are subscript
        stores whose value chain names the attribute; a bare attribute
        store only counts when the chain *passes through* a watched
        name (``pool._rs.free_blocks = 0``) — rebinding the attribute
        itself (``self._rs = RunStore()``) is construction, which every
        constructor must stay free to do.  Rebinding a local alias
        (``cpu_ns = None``) is a Name store and mutates nothing.
        """
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            return _watched_segment(dotted(target.value) or "", aliases)
        return ""
