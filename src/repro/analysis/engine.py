"""The lint engine: file walking, suppression, reporting.

One parse per file; every rule sees the same :class:`FileContext`.
Rules come in two shapes:

* :class:`FileRule` — looks at one file in isolation and returns
  findings directly (determinism's set-iteration check).
* :class:`ProjectRule` — records JSON-serializable *facts* per file,
  then ``finalize()`` crosses file boundaries once every file has been
  seen (metric-name registry resolution, the interprocedural flow
  analysis).

Findings are suppressed by ``# repro: allow[rule-id] <why>`` on the
flagged line or a comment-only line directly above (stacked allow
comments all apply; an allow above a decorator covers the decorated
``def``; a trailing allow anywhere inside one multi-line statement
covers the whole statement).  That comment is the only way to accept a
finding; there is no baseline file.  Findings are reported in a
deterministic order so ``--json`` output is byte-stable for a given
tree.

Severity tiers: ``error`` findings fail the lint, ``warning`` findings
are reported but never block, ``info`` findings appear only with
``--verbose``.
"""

from __future__ import annotations

import ast
import json
import os
import re
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .findings import Finding

SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([a-z0-9-]+)\]")

#: default lint root, relative to the repo root
DEFAULT_TARGET = os.path.join("src", "repro")

_SIMPLE_STMTS = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr,
                 ast.Return, ast.Raise, ast.Assert, ast.Delete)


class SuppressionIndex:
    """Resolves ``# repro: allow[rule-id]`` comments for one file.

    Three anchors beyond "same line":

    * a run of comment-only lines directly above the flagged line — every
      allow in the run applies, so stacked suppressions for different
      rules don't shadow each other;
    * decorated ``def``/``class`` statements — an allow above (or on) the
      first decorator covers findings anchored at the ``def`` line, where
      the comment physically cannot sit adjacent;
    * multi-line simple statements — a trailing allow on any line of the
      statement covers findings anywhere in its span (compound bodies are
      not spans; an allow inside an ``if`` cannot bless the whole block).
    """

    def __init__(self, lines: Sequence[str], tree: ast.AST):
        self.lines = lines
        self.sup = scan_suppressions(lines)
        self.extra: Dict[int, Set[str]] = {}
        self._index_tree(tree)

    def _index_tree(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and node.decorator_list:
                first = node.decorator_list[0].lineno
                ids = self.sup.get(first, set()) | self._chain_above(first)
                if ids:
                    self.extra.setdefault(node.lineno, set()).update(ids)
            elif isinstance(node, _SIMPLE_STMTS):
                end = getattr(node, "end_lineno", None) or node.lineno
                if end > node.lineno:
                    ids: Set[str] = set()
                    for ln in range(node.lineno, end + 1):
                        ids |= self.sup.get(ln, set())
                    if ids:
                        for ln in range(node.lineno, end + 1):
                            self.extra.setdefault(ln, set()).update(ids)

    def _chain_above(self, line: int) -> Set[str]:
        ids: Set[str] = set()
        i = line - 1
        while 0 < i <= len(self.lines) and \
                self.lines[i - 1].lstrip().startswith("#"):
            ids |= self.sup.get(i, set())
            i -= 1
        return ids

    def allowed(self, rule_id: str, line: int) -> bool:
        if rule_id in self.sup.get(line, ()):
            return True
        if rule_id in self._chain_above(line):
            return True
        return rule_id in self.extra.get(line, ())


class FileContext:
    """Everything a rule may want to know about one source file."""

    def __init__(self, path: str, relpath: str, source: str,
                 module: Optional[str] = None):
        self.path = path
        self.relpath = relpath.replace(os.sep, "/")
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self.module = module if module is not None else derive_module(path)
        self._index = SuppressionIndex(self.lines, self.tree)
        self.suppressions = self._index.sup

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        return self._index.allowed(rule_id, line)


def derive_module(path: str) -> str:
    """Dotted module name, walking up through ``__init__.py`` package dirs."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    d = os.path.dirname(path)
    while os.path.exists(os.path.join(d, "__init__.py")):
        parts.append(os.path.basename(d))
        parent = os.path.dirname(d)
        if parent == d:
            break
        d = parent
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


def scan_suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """1-based line -> rule ids allowed on that line."""
    out: Dict[int, Set[str]] = {}
    for i, text in enumerate(lines, start=1):
        if "repro:" not in text:
            continue
        ids = set(SUPPRESS_RE.findall(text))
        if ids:
            out[i] = ids
    return out


class FileRule:
    id = "file-rule"
    def run(self, ctx: FileContext) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


class ProjectRule:
    id = "project-rule"
    def collect(self, ctx: FileContext) -> Dict[str, object]:  # pragma: no cover
        raise NotImplementedError
    def finalize(self, facts: Dict[str, Dict[str, object]]) -> List[Finding]:  # pragma: no cover
        raise NotImplementedError


def default_rules() -> Tuple[List[FileRule], List[ProjectRule]]:
    """Every rule ``repro lint`` runs: one per-file, two project-wide
    (the flow layer carries three checkers)."""
    from .flow import FlowAnalysis
    from .rules.determinism import DeterminismRule
    from .rules.metric_names import MetricNamesRule
    return ([DeterminismRule()],
            [MetricNamesRule(), FlowAnalysis()])


def iter_python_files(targets: Iterable[str]) -> List[str]:
    out: List[str] = []
    for target in targets:
        if os.path.isfile(target):
            out.append(target)
            continue
        for root, dirs, files in os.walk(target):
            dirs[:] = sorted(d for d in dirs
                             if d not in ("__pycache__", ".git"))
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(set(out))


class LintResult:
    def __init__(self, findings: List[Finding], files: int,
                 errors: List[str]):
        self.findings = findings
        self.files = files
        self.errors = errors

    @property
    def new_errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def new_warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def exit_code(self) -> int:
        return 1 if (self.new_errors or self.errors) else 0

    def render_text(self, verbose: bool = False) -> str:
        lines = [f.render() for f in self.findings
                 if verbose or f.severity != "info"]
        lines.extend(f"lint error: {e}" for e in self.errors)
        tail = f"{self.files} files checked: {len(self.findings)} finding(s)"
        w = len(self.new_warnings)
        if w:
            tail += f" ({w} warning-level)"
        lines.append(tail)
        return "\n".join(lines)

    def render_json(self) -> str:
        doc = {
            "files": self.files,
            "findings": [f.as_dict() for f in self.findings],
            "new": len(self.findings),
            "new_errors": len(self.new_errors),
            "new_warnings": len(self.new_warnings),
            "errors": self.errors,
            "exit_code": self.exit_code,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def run_lint(targets: Sequence[str],
             root: Optional[str] = None,
             rules: Optional[Tuple[List[FileRule], List[ProjectRule]]] = None,
             ) -> LintResult:
    """Lint *targets* (files or directories) and return the result.

    *root* anchors the relative paths used in findings (default: the
    CWD), so output is location-independent.  *rules* selects a subset
    (default: :func:`default_rules`, every rule in one pass).
    """
    root = os.path.abspath(root or os.getcwd())
    file_rules, project_rules = rules if rules is not None else default_rules()
    per_file: List[Finding] = []
    facts: Dict[str, Dict[str, Dict[str, object]]] = {
        r.id: {} for r in project_rules}
    contexts: Dict[str, FileContext] = {}
    errors: List[str] = []
    paths = iter_python_files(targets)

    for path in paths:
        relpath = os.path.relpath(os.path.abspath(path), root)
        try:
            with open(path, "rb") as fh:
                ctx = FileContext(path, relpath, fh.read().decode("utf-8"))
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            errors.append(f"{relpath.replace(os.sep, '/')}: {exc}")
            continue
        contexts[ctx.relpath] = ctx
        for rule in file_rules:
            for f in rule.run(ctx):
                if not ctx.is_suppressed(f.rule, f.line):
                    per_file.append(f)
        for rule in project_rules:
            facts[rule.id][ctx.relpath] = rule.collect(ctx)

    project_findings: List[Finding] = []
    for rule in project_rules:
        for f in rule.finalize(facts[rule.id]):
            ctx = contexts.get(f.path)
            if ctx is not None and ctx.is_suppressed(f.rule, f.line):
                continue
            project_findings.append(f)

    findings = per_file + project_findings
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.detail))
    return LintResult(findings, files=len(paths), errors=errors)
