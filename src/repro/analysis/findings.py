"""Finding records for the lint engine.

A finding pins a rule violation to ``path:line:col``, names the
enclosing function (``qualname``) and carries a stable ``detail`` slug
(API name, receiver, field) that orders otherwise-equal findings.

Every finding is an invariant violation: any one not suppressed fails
the lint (non-zero exit).

Interprocedural findings additionally carry a *witness* call chain:
``(label, path, line)`` hops from the defect's origin to the point the
invariant breaks (store site → … → commit site); ``--json`` carries it
whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class Finding:
    rule: str            # rule id, e.g. "determinism"
    path: str            # file path as linted (posix separators)
    line: int
    col: int
    message: str
    hint: str = ""
    qualname: str = ""   # enclosing Class.method / function, "" = module
    detail: str = ""     # stable slug (API name, receiver, field, ...)
    #: interprocedural witness chain: (label, path, line) hops
    witness: Tuple[Tuple[str, str, int], ...] = field(default=())

    def render(self) -> str:
        out = (f"{self.path}:{self.line}:{self.col}: [{self.rule}] "
               f"{self.message}")
        if self.hint:
            out += f"  (hint: {self.hint})"
        for label, path, line in self.witness:
            out += f"\n    via {label} ({path}:{line})"
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message, "hint": self.hint,
            "qualname": self.qualname, "detail": self.detail,
            "witness": [list(hop) for hop in self.witness],
        }
