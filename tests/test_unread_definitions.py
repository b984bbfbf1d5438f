"""Every definition in ``src/repro`` has a reader outside the tests.

A top-level function, class or constant, or a method of a top-level
class, must be named by code in ``src/``, ``benchmarks/`` or
``examples/``: as a name or an attribute, or inside a string that is
itself an expression (a quoted annotation, an ``__all__`` entry).  Prose
in a docstring or a comment is no reader, and neither is a test: a probe
only tests call belongs with them, in ``tests/oracles/`` or in the test
itself.  Dunder methods are called by the language, so they are exempt.
An AST scan, so it needs no linter installed.
"""

from __future__ import annotations

import ast
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")
READERS = [SRC] + [os.path.join(REPO_ROOT, top)
                   for top in ("benchmarks", "examples")]


def _modules(top: str):
    for dirpath, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path, encoding="utf-8") as fh:
                    yield path, ast.parse(fh.read(), path)


def _definitions(tree: ast.Module):
    """``(line, qualified name)`` of each definition the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        yield sub.lineno, f"{node.name}.{sub.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id


def _names_read(tree: ast.AST) -> set:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read |= _names_read(quoted)
    return read


def test_every_definition_has_a_reader_outside_the_tests():
    read, defined = set(), []
    for top in READERS:
        for path, tree in _modules(top):
            read |= _names_read(tree)
            if top == SRC:
                rel = os.path.relpath(path, SRC)
                defined += [(rel, line, name)
                            for line, name in _definitions(tree)]
    unread = [f"{rel}:{line}: {name}" for rel, line, name in defined
              if name.rpartition(".")[2] not in read
              and not name.rpartition(".")[2].startswith("__")]
    assert unread == []
