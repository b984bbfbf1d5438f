"""repro.analysis — the invariant-enforcing static analysis suite.

``repro lint`` parses ``src/repro`` once and runs six codebase-specific
per-file rules over the ASTs (see :mod:`repro.analysis.rules`):
determinism, persistence-ordering, lock-discipline, array-kernel
containment, snapshot-whitelist drift, and metric/span-name registry
resolution.  ``repro lint --flow`` runs the interprocedural layer
(:mod:`repro.analysis.flow`): a project-wide call graph feeding three
summary-based checkers — persist-before-commit, lock-order-cycle and
degraded-write-guard — whose findings carry witness call chains.

Findings are suppressed inline with ``# repro: allow[rule-id] <why>``,
or grandfathered in the committed ``baseline.json`` /
``baseline_flow.json``; CI fails on anything new.  ``--sarif`` exports
SARIF 2.1.0.

Public surface:

* :func:`run_lint` / :class:`LintResult` — programmatic entry point
* :func:`update_baseline` — regenerate a committed baseline
* :func:`default_rules` / :func:`flow_rules` — the two rule sets
* :class:`FileContext`, :class:`FileRule`, :class:`ProjectRule` — for
  writing new rules (and for the fixture tests)
* :func:`to_sarif` / :func:`validate_sarif` — SARIF 2.1.0 export
"""

from .engine import (DEFAULT_BASELINE, DEFAULT_FLOW_BASELINE,
                     DEFAULT_TARGET, FileContext, FileRule, LintResult,
                     ProjectRule, default_rules, flow_rules, run_lint,
                     update_baseline)
from .findings import Finding
from .sarif import to_sarif, validate_sarif

__all__ = [
    "DEFAULT_BASELINE", "DEFAULT_FLOW_BASELINE", "DEFAULT_TARGET",
    "FileContext", "FileRule", "Finding", "LintResult", "ProjectRule",
    "default_rules", "flow_rules", "run_lint", "to_sarif",
    "update_baseline", "validate_sarif",
]
