#!/usr/bin/env python
"""Perf-regression gate: enforce committed speedup floors.

Reads a ``BENCH_perf.json`` produced by ``run_perf.py --baseline ...``
and the committed floor file (``floors.json``), and fails if any bench's
``speedup_vs_baseline`` fell below ``floor * (1 - tolerance)``.

Rules:

* Only benches present in BOTH the floor file and the measured speedups
  are gated; a floor for a bench the run skipped is reported, not fatal.
* A floor may be a plain number (gates ``speedup_vs_baseline``) or an
  object ``{"metric": ..., "floor": ...}`` gating a self-relative metric
  from the bench's own ``work`` dict (e.g. ``snapshot_restore`` gates
  ``work.speedup_vs_cold`` — warm restore vs cold re-age measured in the
  same run, so no baseline file is involved).
* The run and floor ``scale`` must match — wall times (and therefore
  speedups) at different work multipliers are not comparable.

Usage::

    python benchmarks/perf/check_floors.py BENCH_perf.json \
        [--floors benchmarks/perf/floors.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_FLOORS = os.path.join(_HERE, "floors.json")


def check(doc: dict, floors_doc: dict) -> int:
    tolerance = float(floors_doc.get("tolerance", 0.0))
    floors = floors_doc["floors"]
    speedups = doc.get("speedup_vs_baseline")
    if speedups is None:
        print("FAIL: results carry no speedup_vs_baseline "
              "(run run_perf.py with --baseline)")
        return 1
    run_scale = doc.get("scale")
    floor_scale = floors_doc.get("scale")
    if floor_scale is not None and run_scale != floor_scale:
        print(f"FAIL: run scale {run_scale} != floor scale {floor_scale}; "
              "speedups at different scales are not comparable")
        return 1
    if doc.get("baseline_scale") not in (None, run_scale):
        print(f"FAIL: baseline scale {doc['baseline_scale']} != run scale "
              f"{run_scale}")
        return 1

    failures = []
    for name, floor in sorted(floors.items()):
        if isinstance(floor, dict):
            # self-relative metric floor: read from the bench's work dict
            metric = floor["metric"]
            label = f"{name}.{metric}"
            work = doc.get("benches", {}).get(name, {}).get("work", {})
            measured = work.get(metric)
            if measured is None:
                print(f"  {label:15s} -- not in this run, skipped")
                continue
            needed = float(floor["floor"]) * (1.0 - tolerance)
            verdict = "ok" if measured >= needed else "REGRESSION"
            print(f"  {label:15s} {measured:6.2f}x  "
                  f"(floor {float(floor['floor']):.2f}x, "
                  f"gate {needed:.2f}x)  {verdict}")
            if measured < needed:
                failures.append((label, measured, needed))
            continue
        measured = speedups.get(name)
        if measured is None:
            print(f"  {name:15s} -- not in this run, skipped")
            continue
        needed = floor * (1.0 - tolerance)
        verdict = "ok" if measured >= needed else "REGRESSION"
        print(f"  {name:15s} {measured:6.2f}x  (floor {floor:.2f}x, "
              f"gate {needed:.2f}x)  {verdict}")
        if measured < needed:
            failures.append((name, measured, needed))

    if failures:
        print(f"FAIL: {len(failures)} bench(es) below floor: "
              + ", ".join(f"{n} {m:.2f}x < {k:.2f}x"
                          for n, m, k in failures))
        return 1
    print("perf floors OK")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("results", help="BENCH_perf.json from run_perf.py")
    ap.add_argument("--floors", default=DEFAULT_FLOORS)
    args = ap.parse_args(argv)
    with open(args.results) as fh:
        doc = json.load(fh)
    with open(args.floors) as fh:
        floors_doc = json.load(fh)
    return check(doc, floors_doc)


if __name__ == "__main__":
    raise SystemExit(main())
