"""Project-wide call graph + dataflow facts for interprocedural lint.

This is the interprocedural layer of ``repro lint``.  Per file it
extracts a compact, JSON-serializable IR:

* every function/method with a structural mini-IR of its body — call
  sites, attribute stores, returns/raises, and the if/loop/try/with
  skeleton the guard walks;
* the class table (name -> base names) and the import table
  (local name -> absolute dotted target).

``CallGraph`` then stitches the facts together: ``self.method`` calls
resolve through an approximate MRO over the project's own class table,
and *virtually* — a call to ``self.m`` in class ``C`` also targets every
override of ``m`` in subclasses of ``C``, so a base class and its
overrides analyze as one family: every implementation is reachable from
every call site, and a property holds for the family only if every
member upholds it.  Constructor calls resolve the same way
(``C(...)`` targets the ``__init__`` of ``C`` and of every subclass).

Two checkers read the IR: ``lock-discipline`` one function at a time,
and ``degraded-write-guard``, which walks it with per-function summaries
over the SCCs of the call graph (:meth:`CallGraph.topo_sccs`).

Receivers we cannot type (``self._helper.foo()``) resolve to nothing;
``degraded-write-guard`` is written so an unresolved call is a no-op,
which biases the analysis toward false negatives instead of noise — see
DESIGN.md "Static analysis" for the policy.
"""

from __future__ import annotations

import ast
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from .engine import FileContext, ProjectRule
from .findings import Finding
from .rules import dotted

# ---------------------------------------------------------------------------
# IR node tags (JSON lists, first element is the tag)
# ---------------------------------------------------------------------------
CALL = "call"     # ["call", line, recv, fn]
ASGN = "asgn"     # ["asgn", line, col, recv, field]
RET = "ret"       # ["ret"]
RAISE = "raise"   # ["raise"]
IF = "if"         # ["if", body, orelse]
LOOP = "loop"     # ["loop", body, orelse]
TRY = "try"       # ["try", body, [handler_bodies...], final]
WITH = "with"     # ["with", [item_call_nodes...], body]


def _is_trivial_body(body: Sequence[ast.stmt]) -> bool:
    """Docstring/``...``/``pass``/``raise NotImplementedError`` only."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or bare ...
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            name = None
            if isinstance(exc, ast.Call):
                name = dotted(exc.func)
            elif exc is not None:
                name = dotted(exc)
            if name and name.split(".")[-1] == "NotImplementedError":
                continue
        return False
    return True


def resolve_import_base(module: str, node: ast.ImportFrom) -> str:
    """Absolute module named by a (possibly relative) ``from X import``."""
    if node.level == 0:
        return node.module or ""
    pkg = module.split(".")[:-1]          # containing package
    drop = node.level - 1
    if drop:
        pkg = pkg[:-drop] if drop <= len(pkg) else []
    base = ".".join(pkg)
    if node.module:
        base = f"{base}.{node.module}" if base else node.module
    return base


class _Collector:
    """AST -> file fact dict for one :class:`FileContext`."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.classes: Dict[str, List[str]] = {}
        self.functions: Dict[str, Dict] = {}
        self.imports: Dict[str, str] = {}

    def run(self) -> Dict:
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.asname and alias.name or \
                        alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                base = resolve_import_base(self.ctx.module, node)
                if not base:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = \
                        f"{base}.{alias.name}"
        self._visit_body(self.ctx.tree.body, prefix="", cls=None)
        return {
            "module": self.ctx.module,
            "relpath": self.ctx.relpath,
            "classes": self.classes,
            "imports": self.imports,
            "functions": self.functions,
        }

    def _visit_body(self, body: Sequence[ast.stmt], prefix: str,
                    cls: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                bases = [dotted(b) for b in stmt.bases]
                self.classes[stmt.name] = [b for b in bases if b]
                qual = f"{prefix}.{stmt.name}" if prefix else stmt.name
                self._visit_body(stmt.body, prefix=qual, cls=stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}.{stmt.name}" if prefix else stmt.name
                self._collect_function(qual, cls, stmt)
                # nested defs are separate (rarely-called) closures; their
                # bodies are deliberately NOT inlined into the parent IR
            elif isinstance(stmt, ast.If):
                # defs guarded by TYPE_CHECKING / version checks still count
                self._visit_body(stmt.body, prefix, cls)
                self._visit_body(stmt.orelse, prefix, cls)
            elif isinstance(stmt, ast.Try):
                self._visit_body(stmt.body, prefix, cls)
                for handler in stmt.handlers:
                    self._visit_body(handler.body, prefix, cls)

    def _collect_function(self, qual: str, cls: Optional[str],
                          node: ast.AST) -> None:
        fact = {
            "line": node.lineno,
            "name": node.name,
            "cls": cls,
            "trivial": _is_trivial_body(node.body),
            "body": self._block(node.body),
        }
        self.functions[qual] = fact

    # -- statement -> IR ---------------------------------------------------

    def _block(self, body: Sequence[ast.stmt]) -> List:
        out: List = []
        for stmt in body:
            self._stmt(stmt, out)
        return out

    def _calls_in(self, node: ast.AST, out: List) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            fn_dotted = dotted(sub.func)
            recv, fn = "", ""
            if fn_dotted:
                parts = fn_dotted.split(".")
                fn = parts[-1]
                recv = ".".join(parts[:-1])
            elif isinstance(sub.func, ast.Attribute):
                fn = sub.func.attr
                if isinstance(sub.func.value, ast.Call) and \
                        isinstance(sub.func.value.func, ast.Name) and \
                        sub.func.value.func.id == "super":
                    recv = "super"
                else:
                    recv = "<expr>"
            else:
                continue
            out.append([CALL, sub.lineno, recv, fn])

    def _asgn_targets(self, stmt: ast.AST, out: List) -> None:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        flat: List[ast.AST] = []
        for t in targets:
            if isinstance(t, (ast.Tuple, ast.List)):
                flat.extend(t.elts)
            else:
                flat.append(t)
        for t in flat:
            if isinstance(t, ast.Attribute):
                recv = dotted(t.value) or "<expr>"
                out.append([ASGN, t.lineno, t.col_offset, recv, t.attr])
            elif isinstance(t, ast.Subscript) and \
                    isinstance(t.value, ast.Attribute):
                recv = dotted(t.value.value) or "<expr>"
                out.append([ASGN, t.lineno, t.col_offset, recv, t.value.attr])

    def _stmt(self, stmt: ast.stmt, out: List) -> None:
        if isinstance(stmt, ast.If):
            self._calls_in(stmt.test, out)
            out.append([IF, self._block(stmt.body),
                        self._block(stmt.orelse)])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._calls_in(stmt.iter, out)
            out.append([LOOP, self._block(stmt.body),
                        self._block(stmt.orelse)])
        elif isinstance(stmt, ast.While):
            self._calls_in(stmt.test, out)
            out.append([LOOP, self._block(stmt.body),
                        self._block(stmt.orelse)])
        elif isinstance(stmt, ast.Try):
            handlers = [self._block(h.body) for h in stmt.handlers]
            out.append([TRY,
                        self._block(stmt.body + stmt.orelse),
                        handlers,
                        self._block(stmt.finalbody)])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            items: List = []
            for item in stmt.items:
                self._calls_in(item.context_expr, items)
            out.append([WITH, items, self._block(stmt.body)])
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._calls_in(stmt.value, out)
            out.append([RET])
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._calls_in(stmt.exc, out)
            out.append([RAISE])
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            pass  # nested scope: not part of this function's control flow
        else:
            self._calls_in(stmt, out)
            self._asgn_targets(stmt, out)


def collect_file_facts(ctx: FileContext) -> Dict:
    return _Collector(ctx).run()


def ir_nodes(block: List) -> Iterator[List]:
    """Every node of an IR block and of its nested blocks, in source
    order (a ``with`` node comes before its items and body)."""
    for node in block:
        yield node
        tag = node[0]
        if tag in (IF, LOOP, WITH):
            yield from ir_nodes(node[1])
            yield from ir_nodes(node[2])
        elif tag == TRY:
            yield from ir_nodes(node[1])
            for handler in node[2]:
                yield from ir_nodes(handler)
            yield from ir_nodes(node[3])


# ---------------------------------------------------------------------------
# Call graph
# ---------------------------------------------------------------------------

def strongly_connected(edges: Dict[str, Iterable[str]]) -> List[List[str]]:
    """Tarjan SCCs of a digraph, each sorted, in emission order: callees
    before callers, the order the guard's fixpoint wants."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    out: List[List[str]] = []
    counter = [0]
    nodes = sorted(set(edges) | {w for ws in edges.values() for w in ws})

    def strong(v: str) -> None:
        # iterative Tarjan: (node, iterator) frames to survive deep graphs
        work = [(v, iter(sorted(edges.get(v, ()))))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(edges.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(sorted(comp))

    for v in nodes:
        if v not in index:
            strong(v)
    return out


class FuncInfo:
    __slots__ = ("module", "relpath", "qual", "cls", "name", "line", "body",
                 "trivial")

    def __init__(self, module: str, relpath: str, qual: str, fact: Dict):
        self.module = module
        self.relpath = relpath
        self.qual = qual
        self.cls = fact.get("cls")
        self.name = fact.get("name", qual.split(".")[-1])
        self.line = fact.get("line", 1)
        self.body = fact.get("body", [])
        self.trivial = bool(fact.get("trivial"))


ClassKey = Tuple[str, str]   # (module, class name)


class CallGraph:
    def __init__(self, facts: Dict[str, Dict]):
        #: fid ("module:qual") -> FuncInfo
        self.functions: Dict[str, FuncInfo] = {}
        #: module -> {bare function name -> fid}
        self.module_funcs: Dict[str, Dict[str, str]] = {}
        #: (module, cls) -> {method name -> fid}
        self.class_methods: Dict[ClassKey, Dict[str, str]] = {}
        #: (module, cls) -> base class keys (resolved, in order)
        self.class_bases: Dict[ClassKey, List[ClassKey]] = {}
        #: (module, cls) -> transitive subclasses
        self.subclasses: Dict[ClassKey, Set[ClassKey]] = {}
        #: class name -> every key with that name (fallback resolution)
        self._by_name: Dict[str, List[ClassKey]] = {}
        self._imports: Dict[str, Dict[str, str]] = {}
        self._mro_cache: Dict[ClassKey, List[ClassKey]] = {}
        self._edges_cache: Dict[str, List[str]] = {}

        for relpath in sorted(facts):
            fact = facts[relpath] or {}
            module = fact.get("module", "")
            self._imports[module] = fact.get("imports", {})
            for cls in fact.get("classes", {}):
                key = (module, cls)
                self.class_methods.setdefault(key, {})
                self._by_name.setdefault(cls, []).append(key)
            for qual in sorted(fact.get("functions", {})):
                ffact = fact["functions"][qual]
                fid = f"{module}:{qual}"
                info = FuncInfo(module, relpath, qual, ffact)
                self.functions[fid] = info
                if info.cls:
                    self.class_methods.setdefault(
                        (module, info.cls), {})[info.name] = fid
                elif "." not in qual:
                    self.module_funcs.setdefault(module, {})[qual] = fid

        # resolve base-class names now that every class is known
        for relpath in sorted(facts):
            fact = facts[relpath] or {}
            module = fact.get("module", "")
            for cls, bases in fact.get("classes", {}).items():
                key = (module, cls)
                resolved = []
                for base in bases:
                    bk = self._resolve_class_name(module, base)
                    if bk is not None:
                        resolved.append(bk)
                self.class_bases[key] = resolved
        for key in self.class_bases:
            for anc in self.mro(key)[1:]:
                self.subclasses.setdefault(anc, set()).add(key)

    # -- class machinery ---------------------------------------------------

    def _resolve_class_name(self, module: str,
                            name: str) -> Optional[ClassKey]:
        parts = name.split(".")
        imports = self._imports.get(module, {})
        if len(parts) == 1:
            if (module, name) in self.class_methods:
                return (module, name)
            target = imports.get(name)
            if target:
                mod, _, cls = target.rpartition(".")
                if (mod, cls) in self.class_methods:
                    return (mod, cls)
                return self._global_class(cls)
            return self._global_class(name)
        head, rest = parts[0], parts[1:]
        prefix = imports.get(head, head)
        full = ".".join([prefix] + rest)
        mod, _, cls = full.rpartition(".")
        if (mod, cls) in self.class_methods:
            return (mod, cls)
        return self._global_class(parts[-1])

    def _global_class(self, name: str) -> Optional[ClassKey]:
        keys = self._by_name.get(name, [])
        return keys[0] if len(keys) == 1 else None

    def mro(self, key: ClassKey) -> List[ClassKey]:
        cached = self._mro_cache.get(key)
        if cached is not None:
            return cached
        order: List[ClassKey] = []
        seen: Set[ClassKey] = set()

        def visit(k: ClassKey) -> None:
            if k in seen:
                return
            seen.add(k)
            order.append(k)
            for base in self.class_bases.get(k, []):
                visit(base)

        visit(key)
        self._mro_cache[key] = order
        return order

    def resolve_method(self, key: ClassKey, name: str,
                       skip_self: bool = False) -> Optional[str]:
        mro = self.mro(key)
        for k in (mro[1:] if skip_self else mro):
            fid = self.class_methods.get(k, {}).get(name)
            if fid is not None:
                return fid
        return None

    def virtual_targets(self, key: ClassKey, name: str) -> List[str]:
        """MRO target plus every subclass override (the family)."""
        out: Set[str] = set()
        base = self.resolve_method(key, name)
        if base is not None:
            out.add(base)
        for sub in self.subclasses.get(key, ()):  # overrides below `key`
            fid = self.class_methods.get(sub, {}).get(name)
            if fid is not None:
                out.add(fid)
        return sorted(out)

    def constructor_targets(self, key: ClassKey) -> List[str]:
        out: Set[str] = set()
        for k in [key] + sorted(self.subclasses.get(key, set())):
            fid = self.resolve_method(k, "__init__")
            if fid is not None:
                out.add(fid)
        return sorted(out)

    # -- call resolution ---------------------------------------------------

    def resolve_call(self, caller: FuncInfo, recv: str,
                     fn: str) -> List[str]:
        if recv in ("self", "cls"):
            if caller.cls:
                return self.virtual_targets((caller.module, caller.cls), fn)
            return []
        if recv == "super":
            if caller.cls:
                fid = self.resolve_method((caller.module, caller.cls), fn,
                                          skip_self=True)
                return [fid] if fid else []
            return []
        if recv == "":
            funcs = self.module_funcs.get(caller.module, {})
            if fn in funcs:
                return [funcs[fn]]
            if (caller.module, fn) in self.class_methods:
                return self.constructor_targets((caller.module, fn))
            target = self._imports.get(caller.module, {}).get(fn)
            if target:
                mod, _, name = target.rpartition(".")
                if name in self.module_funcs.get(mod, {}):
                    return [self.module_funcs[mod][name]]
                if (mod, name) in self.class_methods:
                    return self.constructor_targets((mod, name))
                ck = self._global_class(name)
                if ck is not None:
                    return self.constructor_targets(ck)
            return []
        if recv == "<expr>":
            return []
        # dotted receiver: module alias or imported module attribute
        parts = recv.split(".")
        prefix = self._imports.get(caller.module, {}).get(parts[0])
        if prefix is None and parts[0] in self.module_funcs:
            prefix = parts[0]
        if prefix is not None:
            mod = ".".join([prefix] + parts[1:])
            if fn in self.module_funcs.get(mod, {}):
                return [self.module_funcs[mod][fn]]
            if (mod, fn) in self.class_methods:
                return self.constructor_targets((mod, fn))
        return []

    def call_edges(self, fid: str) -> List[str]:
        """Resolved callee fids for every call site in *fid* (cached)."""
        cached = self._edges_cache.get(fid)
        if cached is not None:
            return cached
        info = self.functions[fid]
        out: Set[str] = set()
        for node in ir_nodes(info.body):
            if node[0] == CALL:
                out.update(self.resolve_call(info, node[2], node[3]))
        out.discard(fid)
        edges = sorted(out)
        self._edges_cache[fid] = edges
        return edges

    def topo_sccs(self) -> List[List[str]]:
        """Function SCCs, callees before callers (fixpoint order)."""
        edges = {fid: self.call_edges(fid) for fid in sorted(self.functions)}
        return strongly_connected(edges)


class FlowAnalysis(ProjectRule):
    """Umbrella project rule running the checkers that walk the IR.

    One fact-collection pass feeds both; findings carry the individual
    rule ids (``lock-discipline``, ``degraded-write-guard``) so
    suppressions stay per-rule.
    """

    id = "flow"

    def __init__(self) -> None:
        from .rules.flow_guards import DegradedWriteGuard
        from .rules.flow_locks import LockDiscipline
        self.checkers = [LockDiscipline(), DegradedWriteGuard()]

    def collect(self, ctx: FileContext) -> Dict[str, object]:
        return collect_file_facts(ctx)

    def finalize(self, facts: Dict[str, Dict[str, object]]) -> List[Finding]:
        graph = CallGraph(facts)
        findings: List[Finding] = []
        for checker in self.checkers:
            findings.extend(checker.check(graph))
        return findings
