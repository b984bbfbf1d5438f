"""repro.analysis — the invariant-enforcing static analysis suite.

``repro lint`` parses ``src/repro`` once and runs every rule over the
ASTs in one pass (see :mod:`repro.analysis.rules`): two per-file rules,
determinism (set iteration) and lock-discipline (inode-field writes
outside a lock), and the cross-file span-name registry check.
Every rule reads one function or one file at a time; there is no call
graph.  A rule stays only while a seeded bug of
``tests/mutations/corpus.json`` shows it catches something no test
does.  PM ordering is checked dynamically, by the crash explorer and
the fence tests, and the read-only contract of a degraded mount by a
table test over every model and mutating verb.

A finding is accepted only by an inline ``# repro: allow[rule-id]
<why>`` next to the code; any other finding fails the run (and CI).

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
