#!/usr/bin/env python3
"""The exact gate: what the benchmark measures exactly, compared with ``==``.

    python benchmarks/exact.py             # --check against exact_expected.json
    python benchmarks/exact.py --record    # rewrite exact_expected.json

Runs every ``benchmarks/e2e`` workload once at the smoke scale under the
profiler and compares its ``sim_digest``, operation count and every
count or simulated quantity of the per-layer table with the committed
expectation.  The machine is simulated and seeded, so these repeat to the
last digit on any host: one changed simulated nanosecond moves a digest,
one extra Python call in a layer moves that layer's ``py_calls_per_op``.
Host wall-clock is reported by ``benchmarks/e2e/run.py`` and gated nowhere.

Run ``--record`` only for an intended simulated or call-count change; the
diff of ``exact_expected.json`` is then the record of what moved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "e2e"))

import run  # noqa: E402

EXPECTED_PATH = os.path.join(_HERE, "exact_expected.json")
#: the seed and scale benchmarks/e2e/test_smoke.py runs
SEED = 5
SCALE = 0.05
#: rows read off cProfile: CPython minors count calls differently (3.12
#: inlines comprehensions), so these compare only on the recording minor
PROFILE_ROWS = (".py_calls_per_op", ".entries_per_op")
_MISSING = "<missing>"


def measure() -> dict:
    """One profiled repetition of every workload, as an expectation file."""
    workloads = {}
    for name in run.WORKLOAD_NAMES:
        doc = run.run_child(name, seed=SEED, seconds=0, trace=1, scale=SCALE)
        if not run.is_correct(doc):
            raise SystemExit(f"{name}: {doc['failed']} failed op(s), "
                             f"problems {doc['problems']}")
        rows = {"digest": doc["digest"], "ops_per_rep": doc["ops_per_rep"]}
        rows.update((m, doc["metrics"][m]) for m in run.EXACT_PER_LAYER)
        workloads[name] = rows
    return {"python": "%d.%d" % sys.version_info[:2], "workloads": workloads}


def compare(expected: dict, got: dict) -> list:
    """Every row of *got* that is not ``==`` its row of *expected*."""
    same_minor = expected["python"] == got["python"]
    problems = []
    for name in sorted(set(expected["workloads"]) | set(got["workloads"])):
        want = expected["workloads"].get(name)
        have = got["workloads"].get(name)
        if want is None or have is None:
            problems.append(f"{name}: missing from "
                            f"{'this run' if have is None else 'the file'}")
            continue
        for row in sorted(set(want) | set(have)):
            if row.endswith(PROFILE_ROWS) and not same_minor:
                continue
            a, b = want.get(row, _MISSING), have.get(row, _MISSING)
            if a != b:
                problems.append(f"{name} {row}: expected {a!r}, got {b!r}")
    return problems


def check() -> list:
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    got = measure()
    if expected["python"] != got["python"]:
        print(f"# recorded on Python {expected['python']}, this is "
              f"{got['python']}: call-count rows not compared")
    return compare(expected, got)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="compare with exact_expected.json (the default)")
    mode.add_argument("--record", action="store_true",
                      help="rewrite exact_expected.json from this tree")
    args = ap.parse_args(argv)
    if args.record:
        with open(EXPECTED_PATH, "w") as fh:
            json.dump(measure(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {os.path.relpath(EXPECTED_PATH)}")
        return 0
    problems = check()
    for line in problems:
        print(f"MISMATCH {line}")
    print(f"exact gate: {len(problems)} mismatch(es) over "
          f"{len(run.WORKLOAD_NAMES)} workloads")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
