"""repro.analysis — the invariant-enforcing static analysis suite.

``repro lint`` parses ``src/repro`` once and runs every rule over the
ASTs in one pass (see :mod:`repro.analysis.rules`): the per-file
determinism rule (set iteration), the cross-file metric/span-name
registry check, and the flow layer
(:mod:`repro.analysis.flow`), a project-wide call graph whose IR feeds
three checkers: the intra-procedural lock-discipline, and the
summary-based persist-before-commit and degraded-write-guard, whose
findings carry witness call chains.  A rule stays only while a seeded
bug of ``tests/mutations/corpus.json`` shows it catches something no
other check does.

A finding is accepted only by an inline ``# repro: allow[rule-id]
<why>`` next to the code; any other error-severity finding fails the
run (and CI).

Public surface:

* :func:`run_lint` / :class:`LintResult` — programmatic entry point
* :func:`default_rules` — the rule set (``run_lint(rules=...)`` takes a
  subset)
* :class:`FileContext`, :class:`FileRule`, :class:`ProjectRule` — for
  writing new rules (and for the fixture tests)
"""

from .engine import (DEFAULT_TARGET, FileContext, FileRule, LintResult,
                     ProjectRule, default_rules, run_lint)
from .findings import Finding

__all__ = [
    "DEFAULT_TARGET", "FileContext", "FileRule", "Finding", "LintResult",
    "ProjectRule", "default_rules", "run_lint",
]
