"""Rule ``determinism`` — iterating a freshly built set.

Every simulated quantity must be a pure function of its seeds, but a
``for`` loop or comprehension over a ``set`` literal or ``set(...)``
call visits its items in hash order, which ``PYTHONHASHSEED`` changes
from run to run.  Of the mutation corpus, only this rule reliably
kills ``shard-scan-iterates-a-set``: the serving tests notice its
hash-ordered shard scan under some ``PYTHONHASHSEED`` values only.

Wall-clock reads, module-level ``random``, ``os.urandom`` and
``key=id`` sorts are left to the dynamic tests: every seeded bug of
those kinds moves a golden, the exact gate or a byte-compared CLI
output.
"""

from __future__ import annotations

import ast
from typing import List

from ..engine import FileContext, FileRule
from ..findings import Finding
from . import enclosing_qualnames


class DeterminismRule(FileRule):
    id = "determinism"

    def run(self, ctx: FileContext) -> List[Finding]:
        quals = enclosing_qualnames(ctx.tree)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.comprehension)):
                continue
            it = node.iter
            if isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id == "set"):
                findings.append(Finding(
                    rule=self.id, path=ctx.relpath, line=it.lineno,
                    col=it.col_offset,
                    message="iteration order of a set is hash-dependent",
                    hint="wrap in sorted(...) before iterating",
                    qualname=quals.get(id(it), ""),
                    detail="set-iteration"))
        return findings
