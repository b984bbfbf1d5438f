"""Tests for the repro.analysis static-analysis suite.

Each rule gets good/bad fixture snippets; the engine gets suppression
and --json stability coverage; the one-pass merge is pinned by a golden
recorded from the two modes it replaced; and the tier-1 gate at the
bottom self-lints ``src/repro`` (the same check CI runs), checks that
every allow comment there names a live rule, and pins the rule set each
mutation-corpus entry reports.
"""

from __future__ import annotations

import json
import os
import shutil
import textwrap
import tokenize

import pytest

from repro.analysis import FileContext, default_rules, run_lint
from repro.analysis.engine import (SUPPRESS_RE, derive_module,
                                   iter_python_files, scan_suppressions)
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.locks import LockDiscipline
from repro.analysis.rules.metric_names import MetricNamesRule

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def ctx_for(source: str, module: str = "repro.fixture",
            path: str = "fixture.py") -> FileContext:
    return FileContext(path, path, textwrap.dedent(source), module=module)


def rule_hits(rule, source: str, module: str = "repro.fixture"):
    """A per-file rule's findings on one fixture file."""
    return rule.run(ctx_for(source, module=module))


# ---------------------------------------------------------------------------
# determinism


BAD_DETERMINISM = """
    def run(results, a, b):
        for item in set(results):
            results.append(item)
        for item in {a, b}:
            results.append(item)
"""

GOOD_DETERMINISM = """
    def run(results, a, b):
        for item in sorted(set(results), key=str):
            results.append(item)
        for item in (a, b):
            results.append(item)
        return {item for item in results}
"""


def test_determinism_flags_every_source():
    """A loop over a ``set(...)`` call and one over a set literal."""
    hits = rule_hits(DeterminismRule(), BAD_DETERMINISM)
    assert [(h.line, h.detail) for h in hits] == [
        (3, "set-iteration"), (5, "set-iteration")]


def test_determinism_clean_on_seeded_code():
    assert rule_hits(DeterminismRule(), GOOD_DETERMINISM) == []


def test_determinism_flags_set_comprehension_iteration():
    hits = rule_hits(DeterminismRule(), """
        def run(xs):
            return [x for x in set(xs)]
    """)
    assert [h.detail for h in hits] == ["set-iteration"]


# ---------------------------------------------------------------------------
# lock-discipline


def test_lock_discipline_flags_unlocked_inode_mutation():
    hits = rule_hits(LockDiscipline(), """
        def truncate(self, inode, size, ctx):
            inode.size = size
    """, module="repro.fs.fixture")
    assert len(hits) == 1
    assert hits[0].detail == "inode.size"


def test_lock_discipline_accepts_locked_mutation():
    source = """
        def truncate(self, inode, size, ctx):
            ctx.locks.acquire(inode.lock_name, ctx.cpu)
            try:
                inode.size = size
                inode.nlink += 1
                inode.xattrs["user.k"] = b"v"
            finally:
                ctx.locks.release(inode.lock_name, ctx.cpu)
    """
    assert rule_hits(LockDiscipline(), source,
                     module="repro.vfs.fixture") == []


def test_lock_discipline_exempts_single_threaded_functions():
    source = """
        def mkfs(self, ctx):
            self.root_inode.size = 0

        def recover_log(self, inode):
            inode.nlink = 1

        def __init__(self, inode):
            inode.owner_cpu = 0
    """
    assert rule_hits(LockDiscipline(), source,
                     module="repro.fs.fixture") == []


def test_lock_discipline_scoped_to_fs_and_vfs():
    source = """
        def poke(inode):
            inode.size = 1
    """
    assert rule_hits(LockDiscipline(), source,
                     module="repro.core.fixture") == []
    assert len(rule_hits(LockDiscipline(), source,
                         module="repro.vfs.fixture")) == 1


# ---------------------------------------------------------------------------
# metric-names (project rule)


def project_findings(rule, files):
    facts = {}
    for relpath, (module, source) in files.items():
        ctx = FileContext(relpath, relpath, textwrap.dedent(source),
                          module=module)
        facts[relpath] = rule.collect(ctx)
    return rule.finalize(facts)


NAMES_SRC = """
    SPAN_NAMES = frozenset({
        "vfs.read",
    })
    SPAN_PREFIXES = frozenset({
        "fault.",
    })
"""


def test_metric_names_flags_unregistered_names():
    findings = project_findings(MetricNamesRule(), {
        "obs/names.py": ("repro.obs.names", NAMES_SRC),
        "core/x.py": ("repro.core.x", """
            def run(ctx):
                with ctx.trace.span(ctx, "vfs.raed"):
                    pass
                ctx.trace.record(f"oops.{1}", 0, 0, 0)
        """),
    })
    assert sorted(f.detail for f in findings) == \
        ["fstring:oops.", "vfs.raed"]


def test_metric_names_accepts_registered_and_prefixed():
    findings = project_findings(MetricNamesRule(), {
        "obs/names.py": ("repro.obs.names", NAMES_SRC),
        "core/x.py": ("repro.core.x", """
            def run(ctx, kind):
                with ctx.trace.span(ctx, "vfs.read"):
                    pass
                ctx.trace.record(f"fault.{kind}", 0, 0, 0)
                ctx.trace.record("fault.alloc", 0, 0, 0)
        """),
    })
    assert findings == []


def test_registered_spans_match_live_tracer_usage():
    from repro.obs.names import SPAN_NAMES, SPAN_PREFIXES
    assert "vfs.write" in SPAN_NAMES
    assert any(p == "fault." for p in SPAN_PREFIXES)


def test_every_registered_span_has_a_constant_name_site():
    """No dead registry entries: a span lost in a refactor fails here."""
    from repro.obs.names import SPAN_NAMES
    rule = MetricNamesRule()
    used = set()
    src = os.path.join(REPO_ROOT, "src", "repro")
    for dirpath, _dirs, files in os.walk(src):
        for fname in files:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path, encoding="utf-8") as fh:
                ctx = FileContext(path, os.path.relpath(path, REPO_ROOT),
                                  fh.read())
            used.update(site["name"] for site in rule.collect(ctx)["sites"]
                        if "name" in site)
    assert sorted(SPAN_NAMES - used) == []


# ---------------------------------------------------------------------------
# engine: suppression, json


def test_suppression_on_line_and_line_above(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent("""
        def run(xs):
            # repro: allow[determinism] the order feeds a log label only
            a = [x for x in set(xs)]
            b = [x for x in set(xs)]   # repro: allow[determinism] ditto
            c = [x for x in set(xs)]
            return a, b, c
    """))
    result = run_lint([str(target)], root=str(tmp_path))
    assert [f.line for f in result.findings] == [6]
    assert result.exit_code == 1


def test_scan_suppressions_parses_ids():
    sup = scan_suppressions([
        "x = 1  # repro: allow[determinism] why",
        "y = 2",
        "# repro: allow[lock-discipline]",
    ])
    assert sup == {1: {"determinism"}, 3: {"lock-discipline"}}


def test_suppression_stacked_comment_chain(tmp_path):
    """Allows in a run of comment lines all reach the line below them."""
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent("""
        def run(xs):
            # repro: allow[determinism] the order feeds a log label only
            # (second comment line between the allow and the code)
            a = [x for x in set(xs)]
            return a
    """))
    result = run_lint([str(target)], root=str(tmp_path))
    assert result.findings == []


def test_suppression_stack_holds_multiple_rules():
    import ast

    from repro.analysis.engine import SuppressionIndex
    src = ("# repro: allow[determinism] seeded downstream\n"
           "# repro: allow[lock-discipline] single-threaded setup\n"
           "x = compute()\n")
    idx = SuppressionIndex(src.splitlines(), ast.parse(src))
    assert idx.allowed("determinism", 3)
    assert idx.allowed("lock-discipline", 3)
    assert not idx.allowed("metric-names", 3)


def test_suppression_above_decorator_covers_the_def_line():
    import ast

    from repro.analysis.engine import SuppressionIndex
    src = ("# repro: allow[lock-discipline] setup runs single-threaded\n"
           "@property\n"
           "@staticmethod\n"
           "def write(self):\n"
           "    pass\n")
    idx = SuppressionIndex(src.splitlines(), ast.parse(src))
    assert idx.allowed("lock-discipline", 4)   # the def line itself
    assert not idx.allowed("determinism", 4)


def test_suppression_trailing_allow_covers_multiline_statement(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent("""
        def run(results):
            ordered = [r for r in set(results)
                       if r]  # repro: allow[determinism] ordering is cosmetic
            return ordered
    """))
    result = run_lint([str(target)], root=str(tmp_path))
    assert result.findings == []


def test_suppression_does_not_leak_into_compound_bodies(tmp_path):
    """An allow on an ``if`` header cannot bless the whole block."""
    target = tmp_path / "mod.py"
    target.write_text(textwrap.dedent("""
        def run(flag, xs):
            if flag:  # repro: allow[determinism] header comment, not a span
                return [x for x in set(xs)]
            return []
    """))
    result = run_lint([str(target)], root=str(tmp_path))
    assert [f.rule for f in result.findings] == ["determinism"]


def test_json_output_is_stable(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("T = [x for x in set('ab')]\n")
    a = run_lint([str(target)], root=str(tmp_path)).render_json()
    b = run_lint([str(target)], root=str(tmp_path)).render_json()
    assert a == b
    doc = json.loads(a)
    assert doc["exit_code"] == 1
    assert doc["findings"][0]["rule"] == "determinism"


def test_derive_module_walks_packages(tmp_path):
    pkg = tmp_path / "repro" / "fs"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "thing.py").write_text("")
    assert derive_module(str(pkg / "thing.py")) == "repro.fs.thing"
    assert derive_module(str(pkg / "__init__.py")) == "repro.fs"


def test_cli_lint_json(tmp_path, capsys):
    from repro.cli import main
    target = tmp_path / "mod.py"
    target.write_text("T = [x for x in set('ab')]\n")
    rc = main(["lint", "--json", str(target)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["new"] == 1


# ---------------------------------------------------------------------------
# one pass over one rule set: the merge of the old `lint` and `lint --flow`

DATA = os.path.join(REPO_ROOT, "tests", "data")

ALL_RULE_IDS = {"determinism", "metric-names", "lock-discipline"}


def finding_tuples(result):
    return [[f.rule, f.path, f.line, f.col, f.detail]
            for f in result.findings]


def split_rule_sets():
    """The two rule sets the old `lint` and `lint --flow` modes ran:
    determinism and metric-names, then lock-discipline."""
    file_rules, project_rules = default_rules()
    locks = [r for r in file_rules if isinstance(r, LockDiscipline)]
    rest = [r for r in file_rules if not isinstance(r, LockDiscipline)]
    assert len(locks) == 1 and len(rest) == 1 and len(project_rules) == 1
    return (rest, project_rules), (locks, [])


def test_one_pass_equals_the_recorded_union_of_both_old_modes():
    """``tests/data/lint_fixture`` seeds every rule (and one inline
    allow); the golden is the parent's ``lint --json --baseline ''`` ∪
    ``lint --flow --json --baseline ''`` over it, sorted the way one run
    sorts."""
    with open(os.path.join(DATA, "lint_union_golden.json")) as fh:
        golden = json.load(fh)
    fixture = os.path.join(DATA, "lint_fixture")
    result = run_lint([fixture], root=fixture)
    assert result.errors == []
    assert finding_tuples(result) == golden["findings"]
    assert (result.files, result.exit_code) == \
        (golden["files"], golden["exit_code"])
    assert {f.rule for f in result.findings} == ALL_RULE_IDS


def test_one_pass_equals_the_union_on_the_finding_bearing_trees():
    """Same property on live trees, whose lines move with every PR: the
    rule subsets ``run_lint(rules=...)`` still selects, run apart, find
    exactly what the single pass finds."""
    targets = [os.path.join(REPO_ROOT, d)
               for d in ("tests", "benchmarks", "examples")]
    per_file, flow = split_rule_sets()
    parts = [run_lint(targets, root=REPO_ROOT, rules=rules)
             for rules in (per_file, flow)]
    assert all(part.findings for part in parts)
    union = sorted((t for part in parts for t in finding_tuples(part)),
                   key=lambda t: (t[1], t[2], t[3], t[0], t[4]))
    assert finding_tuples(run_lint(targets, root=REPO_ROOT)) == union


# ---------------------------------------------------------------------------
# tier-1 gate: src/repro self-lints clean, and stays sensitive


def test_src_repro_lints_clean():
    """The CI gate: one run, every rule, no finding left unsuppressed."""
    file_rules, cross_file = default_rules()
    ran = set()

    def spy(obj, method, rule_id):
        inner = getattr(obj, method)

        def wrapper(arg):
            ran.add(rule_id)
            return inner(arg)
        setattr(obj, method, wrapper)

    for rule in file_rules:
        spy(rule, "run", rule.id)
    for rule in cross_file:
        spy(rule, "finalize", rule.id)

    result = run_lint([SRC_REPRO], root=REPO_ROOT,
                      rules=(file_rules, cross_file))
    assert ran == ALL_RULE_IDS
    assert result.errors == []
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"lint findings:\n{rendered}"


def test_every_suppression_names_a_live_rule():
    """An allow comment naming a rule that no longer runs suppresses
    nothing: every ``# repro: allow[<id>]`` comment under ``src/repro``
    names a rule id that :func:`default_rules` reports."""
    file_rules, project_rules = default_rules()
    live = {rule.id for rule in file_rules + project_rules}
    stale = []
    for path in iter_python_files([SRC_REPRO]):
        with open(path, encoding="utf-8") as fh:
            tokens = list(tokenize.generate_tokens(fh.readline))
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                stale.extend(
                    f"{os.path.relpath(path, REPO_ROOT)}:{tok.start[0]}: {i}"
                    for i in SUPPRESS_RE.findall(tok.string)
                    if i not in live)
    assert stale == [], f"allow comments naming no live rule: {stale}"


with open(os.path.join(REPO_ROOT, "tests", "mutations", "corpus.json"),
          encoding="utf-8") as _fh:
    LINTED_CORPUS = [e for e in json.load(_fh)["mutations"] if "lint" in e]


@pytest.mark.parametrize("entry", LINTED_CORPUS, ids=lambda e: e["name"])
def test_corpus_lint_column(entry, tmp_path):
    """The rule ids ``repro lint`` reports with a corpus entry applied to
    ``src/`` are the entry's recorded ``lint`` column."""
    shutil.copytree(SRC_REPRO, tmp_path / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / entry["file"]
    text = path.read_text(encoding="utf-8")
    assert text.count(entry["find"]) == 1
    path.write_text(text.replace(entry["find"], entry["replace"]),
                    encoding="utf-8")
    result = run_lint([str(tmp_path / "src" / "repro")], root=str(tmp_path))
    assert result.errors == []
    assert sorted({f.rule for f in result.findings}) == entry["lint"]


def test_lint_runtime_budget():
    import time as _time
    start = _time.perf_counter()
    run_lint([SRC_REPRO], root=REPO_ROOT)
    elapsed = _time.perf_counter() - start
    assert elapsed < 30.0, f"cold lint took {elapsed:.1f}s (budget 30s)"
