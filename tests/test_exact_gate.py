"""Tests of the exact gate (``benchmarks/exact.py``).

The comparator tests doctor a copy of the committed expectation; the one
slow test (about 8 s) runs the gate itself, so a silent drift of a
simulated result or a per-layer call count fails tier-1, not only CI.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

import exact  # noqa: E402


@pytest.fixture()
def expected():
    with open(exact.EXPECTED_PATH) as fh:
        return json.load(fh)


def one_more_call(doc):
    rows = doc["workloads"]["aged_mmap"]
    rows["mmu.py_calls_per_op"] += 1 / rows["ops_per_rep"]


def flipped_digest_character(doc):
    rows = doc["workloads"]["ycsb_rocksdb"]
    last = rows["digest"][-1]
    rows["digest"] = rows["digest"][:-1] + ("0" if last != "0" else "1")


def missing_workload(doc):
    del doc["workloads"]["serve_swh"]


def missing_metric(doc):
    del doc["workloads"]["aging_churn"]["pm.write_amp"]


@pytest.mark.parametrize("doctor, names", [
    (one_more_call, ("aged_mmap", "mmu.py_calls_per_op")),
    (flipped_digest_character, ("ycsb_rocksdb", "digest")),
    (missing_workload, ("serve_swh", "missing")),
    (missing_metric, ("aging_churn", "pm.write_amp", "<missing>")),
])
def test_comparator_rejects_a_doctored_run_and_names_it(expected, doctor,
                                                        names):
    assert exact.compare(expected, copy.deepcopy(expected)) == []
    got = copy.deepcopy(expected)
    doctor(got)
    for problems in (exact.compare(expected, got),
                     exact.compare(got, expected)):
        assert len(problems) == 1
        assert all(name in problems[0] for name in names)


def test_call_count_mismatch_reports_expected_and_got(expected):
    got = copy.deepcopy(expected)
    one_more_call(got)
    want = expected["workloads"]["aged_mmap"]["mmu.py_calls_per_op"]
    have = got["workloads"]["aged_mmap"]["mmu.py_calls_per_op"]
    assert exact.compare(expected, got) == [
        f"aged_mmap mmu.py_calls_per_op: expected {want!r}, got {have!r}"]


def test_other_python_minor_skips_exactly_the_call_count_rows(expected):
    got = copy.deepcopy(expected)
    got["python"] = "0.0"
    assert exact.compare(expected, got) == []
    for rows in got["workloads"].values():
        for row in rows:
            rows[row] = "moved"
    reported = {line.split(":")[0] for line in exact.compare(expected, got)}
    every = {f"{name} {row}" for name, rows in expected["workloads"].items()
             for row in rows}
    skipped = every - reported
    assert skipped == {r for r in every if r.endswith(exact.PROFILE_ROWS)}
    assert len(skipped) == len(exact.run.WORKLOAD_NAMES) * sum(
        m.endswith(exact.PROFILE_ROWS) for m in exact.run.EXACT_PER_LAYER)
    assert {"aged_mmap digest", "serve_swh ops_per_rep",
            "aged_mmap mmu.tlb_miss_rate"} <= reported


def test_committed_expectation_matches_this_tree():
    """The gate itself: four workloads, one profiled repetition each."""
    assert exact.check() == []
