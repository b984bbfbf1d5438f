"""Replay the committed mutation corpus (minutes; not tier-1, CI runs it).

``tests/mutations/corpus.json`` holds seeded bugs as data: ``file``, the
exact text to ``find`` (it must occur exactly once), its ``replace``-ment
and the test ids that ``must_fail`` once it is applied.  Each entry is
applied to a scratch copy of ``src`` / ``tests`` / ``benchmarks``, only
the named tests run there, and the copy is restored.  The run fails when
an entry no longer applies (the code moved: re-anchor it) or survives (a
named test still passes, or is gone: the net has a hole).

    python tests/run_mutations.py [substring of an entry name ...]

A selection that matches no entry exits 2 before copying anything.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO_ROOT, "tests", "mutations", "corpus.json")


def main(argv: list) -> int:
    with open(CORPUS, encoding="utf-8") as fh:
        entries = [e for e in json.load(fh)["mutations"]
                   if not argv or any(a in e["name"] for a in argv)]
    if not entries:
        print(f"no corpus entry matches {' '.join(argv)}", file=sys.stderr)
        return 2
    rows, failed = [], 0
    with tempfile.TemporaryDirectory(prefix="repro-mutations-") as tree:
        for part in ("src", "tests", "benchmarks"):
            shutil.copytree(os.path.join(REPO_ROOT, part),
                            os.path.join(tree, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(REPO_ROOT, "pyproject.toml"), tree)
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        for entry in entries:
            path = os.path.join(tree, entry["file"])
            with open(path, encoding="utf-8") as fh:
                original = fh.read()
            if original.count(entry["find"]) != 1:
                verdict = "UNAPPLIED: find matches != 1 time"
            else:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original.replace(entry["find"],
                                              entry["replace"]))
                # exit 1 = the test failed; anything else (0 = passed,
                # 4 = no such test id, 2 = collection error) is no kill
                survived = [test for test in entry["must_fail"]
                            if subprocess.run(
                                [sys.executable, "-m", "pytest", "-q", "-x",
                                 "-p", "no:cacheprovider", test],
                                cwd=tree, env=env,
                                capture_output=True).returncode != 1]
                verdict = "killed" if not survived else \
                    f"SURVIVED {' '.join(survived)}"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            failed += verdict != "killed"
            rows.append((entry["name"], verdict))
            print(f"{entry['name']}: {verdict}", flush=True)
    width = max(len(name) for name, _v in rows)
    print(f"\n{'mutation':<{width}}  tests")
    for name, verdict in rows:
        print(f"{name:<{width}}  {verdict.split()[0].rstrip(':').lower()}")
    print(f"\n{len(rows) - failed} of {len(rows)} mutation(s) killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
