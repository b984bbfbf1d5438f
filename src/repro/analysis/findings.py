"""Finding records for the lint engine.

A finding pins a rule violation to ``path:line:col``, names the
enclosing function (``qualname``) and carries a stable ``detail`` slug
(API name, receiver, field) that orders otherwise-equal findings.

Every finding is an invariant violation: any one not suppressed fails
the lint (non-zero exit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


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

    def render(self) -> str:
        out = (f"{self.path}:{self.line}:{self.col}: [{self.rule}] "
               f"{self.message}")
        if self.hint:
            out += f"  (hint: {self.hint})"
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule, "path": self.path, "line": self.line,
            "col": self.col, "message": self.message, "hint": self.hint,
            "qualname": self.qualname, "detail": self.detail,
        }
