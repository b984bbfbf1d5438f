"""Rule ``metric-names`` — span names resolve to the name registry.

Every span/record name handed to a Tracer must appear in
:mod:`repro.obs.names` (``SPAN_NAMES``); f-string names must start with
an allowed prefix in ``SPAN_PREFIXES``.  A typo'd name otherwise
silently splits one span family into two and only a human staring at a
trace notices.

Call sites are matched by receiver shape: ``*.trace`` / ``*.tracer``
receivers for ``span`` (name is the second argument, after ctx) and
``record`` (name first).  Names passed as plain variables are invisible
to the AST and are not checked.

The registry itself is read from the AST of ``repro/obs/names.py`` in
the same lint run (never imported), so the lint works on any checkout.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional

from ..engine import FileContext, ProjectRule
from ..findings import Finding
from . import dotted, enclosing_qualnames, fstring_head

_SPAN_RECV = ("trace", "tracer")
_REGISTRY_SUFFIX = "obs.names"
_REGISTRY_SETS = ("SPAN_NAMES", "SPAN_PREFIXES")


def _name_arg(call: ast.Call, index: int) -> Optional[ast.AST]:
    if len(call.args) > index:
        return call.args[index]
    return None


class MetricNamesRule(ProjectRule):
    id = "metric-names"

    def collect(self, ctx: FileContext) -> Dict[str, object]:
        quals = enclosing_qualnames(ctx.tree)
        sites: List[Dict[str, object]] = []

        def record_site(arg: ast.AST, call: ast.Call) -> None:
            entry: Dict[str, object] = {
                "line": call.lineno, "col": call.col_offset,
                "qualname": quals.get(id(call), ""),
            }
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                entry["name"] = arg.value
            elif isinstance(arg, ast.JoinedStr):
                entry["head"] = fstring_head(arg)
            else:
                return   # variable name: runtime-tested, not statically
            sites.append(entry)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            recv = dotted(node.func.value)
            if recv is None:
                continue
            method = node.func.attr
            if method not in ("span", "record") or \
                    recv.split(".")[-1].lower() not in _SPAN_RECV:
                continue
            # span(ctx, name, ...) / record(name, ...)
            arg = _name_arg(node, 1 if method == "span" else 0)
            if arg is not None:
                record_site(arg, node)

        facts: Dict[str, object] = {"sites": sites}
        if ctx.module.endswith(_REGISTRY_SUFFIX):
            reg = self._parse_registry(ctx.tree)
            if reg:
                facts["registry"] = reg
        return facts

    @staticmethod
    def _parse_registry(tree: ast.Module) -> Dict[str, List[str]]:
        out: Dict[str, List[str]] = {}
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for t in targets:
                if not (isinstance(t, ast.Name) and t.id in _REGISTRY_SETS):
                    continue
                value = node.value
                if isinstance(value, ast.Call) and value.args:
                    value = value.args[0]   # frozenset({...})
                if isinstance(value, (ast.Set, ast.Tuple, ast.List)):
                    out[t.id] = [e.value for e in value.elts
                                 if isinstance(e, ast.Constant)
                                 and isinstance(e.value, str)]
        return out

    def finalize(self, facts: Dict[str, Dict[str, object]]
                 ) -> List[Finding]:
        registry: Dict[str, List[str]] = {}
        for per_file in facts.values():
            if "registry" in per_file:
                registry = dict(per_file["registry"])
        if not registry:
            return []   # names.py outside the linted set
        spans = set(registry.get("SPAN_NAMES", ()))
        prefixes = tuple(registry.get("SPAN_PREFIXES", ()))
        findings: List[Finding] = []
        for relpath in sorted(facts):
            for site in facts[relpath].get("sites", []):
                if "name" in site:
                    name = site["name"]
                    if name in spans or (prefixes
                                         and name.startswith(prefixes)):
                        continue
                    message = (f"span name {name!r} is not in "
                               "repro.obs.names.SPAN_NAMES")
                    detail = name
                else:
                    head = site.get("head", "")
                    if prefixes and head and head.startswith(prefixes):
                        continue
                    message = (f"dynamic span name f'{head}...' does not "
                               "start with an allowed SPAN_PREFIXES entry")
                    detail = f"fstring:{head}"
                findings.append(Finding(
                    rule=self.id, path=relpath, line=int(site["line"]),
                    col=int(site["col"]), message=message,
                    hint="register the name in src/repro/obs/names.py "
                         "(see --emit-registry)",
                    qualname=str(site.get("qualname", "")), detail=detail))
        return findings


def emit_registry(targets, root=None) -> Dict[str, List[str]]:
    """Every span name referenced at call sites (for names.py)."""
    import os

    from ..engine import FileContext, iter_python_files
    rule = MetricNamesRule()
    spans, heads = set(), set()
    for path in iter_python_files(targets):
        try:
            with open(path, encoding="utf-8") as fh:
                src = fh.read()
            ctx = FileContext(path, os.path.relpath(path, root or os.getcwd()),
                              src)
        except (OSError, SyntaxError, UnicodeDecodeError):
            continue
        for site in rule.collect(ctx)["sites"]:
            if "name" in site:
                spans.add(str(site["name"]))
            elif site.get("head"):
                heads.add(str(site["head"]))
    return {"spans": sorted(spans), "fstring_heads": sorted(heads)}
