"""Smoke tests of the benchmark itself, at ``--scale 0.05``.

Not in ``testpaths``; run explicitly: ``pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import layers
import run

sys.path.insert(0, run._SRC)

SCALE = 0.05
SEED = 5


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(run._ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    """Every workload traced twice, under two hash seeds."""
    return {name: [run.run_child(name, SEED, 0, 1, SCALE, hashseed=h)
                   for h in ("0", "1")]
            for name in run.WORKLOAD_NAMES}


def test_names_match_benchmark_json(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert os.path.join(run._ROOT, spec["command"][1]) == run.__file__


@pytest.mark.parametrize("trace", [0, 1])
def test_contract_line(spec, trace):
    done = subprocess.run(
        [sys.executable, run.__file__, "--workload", "aging_churn",
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--scale", str(SCALE)], stdout=subprocess.PIPE, text=True,
        check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {n: m["unit"] for n, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}


def test_simulated_metrics_and_call_counts_repeat(traced):
    for name, (first, second) in traced.items():
        assert not first["problems"] and not second["problems"], name
        assert first["failed"] == second["failed"] == 0, name
        assert first["digest"] == second["digest"], name
        assert first["sim"] == second["sim"], name
        assert len(run.EXACT_PER_LAYER) > 2 * len(layers.LAYERS)
        for metric in run.EXACT_PER_LAYER:
            assert first["metrics"][metric] == second["metrics"][metric], \
                (name, metric)


def test_untraced_run_agrees_with_traced(traced):
    name = "ycsb_rocksdb"
    untraced = run.run_child(name, SEED, 0, 0, SCALE)
    assert untraced["digest"] == traced[name][0]["digest"]
    assert untraced["reps"] >= run.MIN_UNTRACED_REPS
    assert all(untraced["metrics"][m[0]] > 0 for m in run.END_TO_END)


def test_layer_shares_sum_to_one_and_separate(traced):
    share = {name: {layer: docs[0]["metrics"][f"{layer}.host_share"]
                    for layer in layers.LAYERS}
             for name, docs in traced.items()}
    for name, row in share.items():
        assert sum(row.values()) == pytest.approx(1.0), name
    assert share["aged_mmap"]["mmu"] >= 0.5
    assert share["serve_swh"]["mmu"] <= 0.02
    assert share["aging_churn"]["mmu"] <= 0.02
    assert [n for n, row in share.items() if row["serve"] > 0] == \
        ["serve_swh"]


def test_flipped_byte_counts_as_failed_op():
    from workloads import WORKLOADS, ServeSwh

    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES

    class FlipOneGet:
        """Delegates to the storage, corrupting the first ``get``."""

        def __init__(self, inner):
            self.inner = inner
            self.flipped = False

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def get(self, tenant, obj_id):
            data = self.inner.get(tenant, obj_id)
            if not self.flipped:
                self.flipped = True
                data = bytes([data[0] ^ 1]) + data[1:]
            return data

    def failed(wrap):
        workload = ServeSwh(wrap=wrap)
        workload.prepare(SEED, SCALE)
        state = workload.build()
        return workload.finish(state, workload.run(state)).failed

    assert failed(None) == 0
    assert failed(FlipOneGet) == 1


def test_layer_map_covers_the_tree():
    assert layers.check_coverage(layers.source_modules()) == []
    assert layers.check_coverage(["newpkg/mod.py"]) == \
        ["newpkg/mod.py: maps to no layer"]
    assert layers.layers_of("fs/common/dirindex.py") == ["fs.dirindex"]
