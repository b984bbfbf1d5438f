"""Tests for repro.analysis.flow — the interprocedural lint layer.

Fixtures seed each flow rule with a known bug and assert the witness
call chain, the call-graph resolution tests pin the dispatch rules the
checkers depend on (self/super/constructor/toggle-family/import).  The
acceptance mutation at the bottom re-introduces the SplitFS unguarded
append fast path against the *real* tree and must be caught.
"""

from __future__ import annotations

import os
import textwrap

from repro.analysis import FileContext, run_lint
from repro.analysis.engine import iter_python_files
from repro.analysis.flow import CallGraph, FlowAnalysis, collect_file_facts
from repro.analysis.rules.flow_guards import DegradedWriteGuard

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def graph_for(files) -> CallGraph:
    """files: {relpath: (module, source)} -> CallGraph over the fixtures."""
    facts = {}
    for relpath, (module, source) in files.items():
        ctx = FileContext(relpath, relpath, textwrap.dedent(source),
                          module=module)
        facts[relpath] = collect_file_facts(ctx)
    return CallGraph(facts)


def one_file_graph(source: str, module: str = "repro.fixture") -> CallGraph:
    return graph_for({"fixture.py": (module, source)})


def checker_hits(checker, files):
    return checker.check(graph_for(files))


# ---------------------------------------------------------------------------
# call graph construction


def test_callgraph_self_and_module_calls():
    g = one_file_graph("""
        def helper(x):
            return x

        class Engine:
            def run(self, ctx):
                self.step(ctx)
                return helper(ctx)

            def step(self, ctx):
                pass
    """)
    edges = g.call_edges("repro.fixture:Engine.run")
    assert "repro.fixture:Engine.step" in edges
    assert "repro.fixture:helper" in edges


def test_callgraph_virtual_dispatch_targets_toggle_family():
    g = one_file_graph("""
        class FreePool:
            def take(self, n):
                return n

            def drain(self):
                self.take(1)

        class ReferenceFreePool(FreePool):
            def take(self, n):
                return n + 0
    """)
    edges = g.call_edges("repro.fixture:FreePool.drain")
    # the reference engine's override is reachable through the toggle
    assert edges == ["repro.fixture:FreePool.take",
                     "repro.fixture:ReferenceFreePool.take"]


def test_callgraph_super_resolves_past_self():
    g = one_file_graph("""
        class Base:
            def write(self, data):
                return len(data)

        class Sub(Base):
            def write(self, data):
                return super().write(data)
    """)
    edges = g.call_edges("repro.fixture:Sub.write")
    assert edges == ["repro.fixture:Base.write"]


def test_callgraph_constructor_targets_subclasses():
    g = one_file_graph("""
        class FreePool:
            def __init__(self):
                self.extents = []

        class ReferenceFreePool(FreePool):
            def __init__(self):
                super().__init__()

        def build():
            return FreePool()
    """)
    edges = g.call_edges("repro.fixture:build")
    assert "repro.fixture:FreePool.__init__" in edges
    assert "repro.fixture:ReferenceFreePool.__init__" in edges


def test_callgraph_resolves_cross_module_imports():
    g = graph_for({
        "a.py": ("repro.a", """
            def helper(x):
                return x
        """),
        "b.py": ("repro.b", """
            from repro.a import helper

            def run():
                return helper(1)
        """),
    })
    assert g.call_edges("repro.b:run") == ["repro.a:helper"]


# ---------------------------------------------------------------------------
# degraded-write-guard

_VFS_FIXTURE = ("repro.vfs.fixture", """
    class FileSystem:
        def _check_mounted(self):
            pass

        def _check_writable(self):
            pass
""")


def fastfs(methods: str):
    """Guard fixture files: a ``FastFS(FileSystem)`` with *methods*,
    its first ``def`` on line 5."""
    return {"vfs.py": _VFS_FIXTURE, "fs.py": ("repro.fs.fixture", (
        "\nfrom repro.vfs.fixture import FileSystem\n\n"
        "class FastFS(FileSystem):\n"
        + textwrap.indent(textwrap.dedent(methods).lstrip("\n"), "    ")))}


def test_guard_flags_mutation_before_check():
    # the direct case; an except handler that swallows the error starts
    # from the try entry, where nothing is checked yet
    cases = {
        """
        def write(self, ino, offset, data, ctx):
            ctx.locks.acquire(f"ino:{ino}", ctx.cpu)
            self._check_writable()
            return len(data)
        """: ["FastFS.write acquires a lock"],
        """
        def write(self, ino, offset, data, ctx):
            try:
                self._check_writable()
            except KeyError:
                pass
            ctx.locks.acquire(f"ino:{ino}", ctx.cpu)
            return len(data)
        """: ["FastFS.write acquires a lock"],
    }
    for methods, witness in cases.items():
        hits = checker_hits(DegradedWriteGuard(), fastfs(methods))
        assert len(hits) == 1, methods
        f = hits[0]
        assert f.qualname == "FastFS.write"
        assert f.line == 5                   # the def line, where allows sit
        assert [hop[0] for hop in f.witness] == witness


def test_guard_clean_when_check_dominates():
    # straight-line; a finally block continues from the try body
    for methods in ("""
        def write(self, ino, offset, data, ctx):
            self._check_writable()
            ctx.locks.acquire(f"ino:{ino}", ctx.cpu)
            self.size = offset + len(data)
            return len(data)
    """, """
        def write(self, ino, offset, data, ctx):
            try:
                self._check_writable()
            finally:
                ctx.trace.mark("write")
            ctx.locks.acquire(f"ino:{ino}", ctx.cpu)
            return len(data)
    """):
        assert checker_hits(DegradedWriteGuard(), fastfs(methods)) == [], \
            methods



def test_persist_crosses_function_boundaries_with_witness():
    # a callee's PM persist is reported through its summary, with the
    # call in the witness
    hits = checker_hits(DegradedWriteGuard(), fastfs("""
        def write(self, ino, offset, data, ctx):
            self._finish(ino, ctx)
            self._check_writable()
            return len(data)

        def _finish(self, ino, ctx):
            self.device.persist(ino, 1, ctx)
    """))
    assert len(hits) == 1
    f = hits[0]
    assert f.qualname == "FastFS.write"
    assert [hop[0] for hop in f.witness] == [
        "FastFS.write calls FastFS._finish",
        "FastFS._finish: PM write via self.device"]


def test_persist_raise_paths_are_exempt():
    # a raise ends its path, so the unchecked branch never reaches the
    # store and persist
    assert checker_hits(DegradedWriteGuard(), fastfs("""
        def write(self, ino, offset, data, ctx):
            if data:
                self._check_writable()
            else:
                raise ValueError("empty write")
            self.device.store(offset, data, ctx)
            self.device.persist(offset, len(data), ctx)
            return len(data)
    """)) == []

def test_guard_delegating_wrapper_inherits_the_check():
    assert checker_hits(DegradedWriteGuard(), {
        "vfs.py": _VFS_FIXTURE,
        "fs.py": ("repro.fs.fixture", """
            from repro.vfs.fixture import FileSystem

            class FastFS(FileSystem):
                def write(self, ino, offset, data, ctx):
                    self._check_writable()
                    self.device.store(offset, data, ctx)
                    return len(data)

                def write_zeros(self, ino, offset, length, ctx):
                    return self.write(ino, offset, b"0" * length, ctx)
        """)}) == []


def test_guard_early_return_without_work_is_exempt():
    assert checker_hits(DegradedWriteGuard(), {
        "vfs.py": _VFS_FIXTURE,
        "fs.py": ("repro.fs.fixture", """
            from repro.vfs.fixture import FileSystem

            class FastFS(FileSystem):
                def write_zeros(self, ino, offset, length, ctx):
                    if length <= 0:
                        return 0
                    self._check_writable()
                    self.device.store(offset, b"0" * length, ctx)
                    return length
        """)}) == []


def test_guard_virtual_family_join_flags_wrapper_and_override():
    # mirror of the SplitFS bug: one override in the family skips the
    # guard, so the delegating wrapper can no longer assume it
    hits = checker_hits(DegradedWriteGuard(), {
        "vfs.py": _VFS_FIXTURE,
        "fs.py": ("repro.fs.fixture", """
            from repro.vfs.fixture import FileSystem

            class BaseFS(FileSystem):
                def write(self, ino, offset, data, ctx):
                    self._check_writable()
                    self.device.store(offset, data, ctx)
                    return len(data)

                def write_zeros(self, ino, offset, length, ctx):
                    return self.write(ino, offset, b"0" * length, ctx)

            class FastFS(BaseFS):
                def write(self, ino, offset, data, ctx):
                    self.device.store(offset, data, ctx)
                    return len(data)
        """)})
    quals = sorted(f.qualname for f in hits)
    assert quals == ["BaseFS.write_zeros", "FastFS.write"]


def test_guard_ignores_classes_outside_the_vfs_tree():
    assert checker_hits(DegradedWriteGuard(), {
        "fs.py": ("repro.fs.fixture", """
            class Buffer:
                def write(self, data):
                    self.chunks = [data]
        """)}) == []


# ---------------------------------------------------------------------------
# acceptance: the real tree, and the real bug re-introduced


def _real_tree_findings(mutate=None):
    rule = FlowAnalysis()
    facts = {}
    for path in iter_python_files([SRC_REPRO]):
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        if mutate is not None:
            source = mutate(rel, source)
        ctx = FileContext(path, rel, source)
        facts[rel] = rule.collect(ctx)
    return rule.finalize(facts)


def test_real_tree_guard_findings_are_clean():
    hits = [f for f in _real_tree_findings()
            if f.rule == "degraded-write-guard"]
    assert hits == []


def test_reintroduced_splitfs_fast_path_bug_is_caught():
    def strip_guard(rel, source):
        if rel.endswith("fs/splitfs.py"):
            mutated = source.replace("        self._check_mounted()\n"
                                     "        self._check_writable()\n", "")
            assert mutated != source
            return mutated
        return source

    hits = [f for f in _real_tree_findings(mutate=strip_guard)
            if f.rule == "degraded-write-guard"]
    quals = {f.qualname for f in hits}
    assert "SplitFS.write" in quals
    split = next(f for f in hits if f.qualname == "SplitFS.write")
    assert split.path == "src/repro/fs/splitfs.py"
    assert any("acquires a lock" in hop[0] or "store" in hop[0]
               for hop in split.witness)


def test_flow_self_lint_is_clean():
    """``run_lint(rules=...)`` still selects: the flow layer alone, which
    is how the fixture tests above isolate a rule, is clean on the tree
    (``test_analysis.py::test_src_repro_lints_clean`` is the full gate)."""
    result = run_lint([SRC_REPRO], root=REPO_ROOT,
                      rules=([], [FlowAnalysis()]))
    assert result.errors == []
    assert result.findings == []
