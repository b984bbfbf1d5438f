"""Parallel scenario runner: jobs=N must be byte-identical to serial.

Each benchmark cell builds its own simulated machine, so the only way
parallelism could leak into results is through merge order — which the
fleet pins to the sorted cell key, never to worker completion order.
``TestCampaignContract`` holds every registered campaign to that: a
fifth campaign inherits the contract by registering (and naming a tiny
grid below).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.cli import main
from repro.harness.fleet import (CAMPAIGNS, bench_cell, merge_numeric,
                                 run_fleet)

_TINY = dict(size_gib=0.0625, num_cpus=2, file_mib=2, io_kib=4)
_BENCH = CAMPAIGNS["bench"]

#: per campaign: (axis values, parameters) of a grid small enough to run
#: twice in a unit test
_TINY_GRIDS = {
    "bench": ((["PMFS", "WineFS"], ["rand-read"], [1, 2]), _TINY),
    "slo": ((["WineFS", "ext4-DAX"], [3]),
            dict(size_gib=0.125, num_cpus=2, ops=30)),
    "serve": ((["NOVA", "WineFS"], [1, 2]), dict(ops=60, queue_cap=2)),
    "snapshot": ((["WineFS"], ["agrawal", "wang-hpc"], [0.5], [3]),
                 dict(size_gib=0.0625, churn_multiple=0.25)),
}


class TestMergeNumeric:
    def test_sums_numeric_keeps_first_other(self):
        merged = merge_numeric([
            {"n": 1, "ns": 1.5, "fs": "WineFS", "ok": True},
            {"n": 2, "ns": 2.25, "fs": "WineFS", "ok": False},
        ])
        assert merged == {"n": 3, "ns": 3.75, "fs": "WineFS", "ok": True}

    def test_order_is_callers_order(self):
        # float accumulation follows iteration order; same order, same bits
        parts = [{"v": 0.1}, {"v": 0.2}, {"v": 0.3}]
        assert merge_numeric(parts)["v"] == ((0.1 + 0.2) + 0.3)


class TestBenchMatrix:
    def test_sorted_by_cell_key(self):
        cells = _BENCH.matrix(["PMFS", "ext4-DAX"],
                              ["seq-read", "rand-read"], [2, 1])
        keys = [(c["fs"], c["pattern"], c["seed"]) for c in cells]
        assert keys == sorted(keys)
        assert len(cells) == 8

    def test_cell_is_plain_data(self):
        (cell,) = _BENCH.matrix(["PMFS"], ["seq-read"], [1])
        assert json.loads(json.dumps(cell)) == cell


class TestFleetDeterminism:
    def test_run_fleet_input_order(self):
        cells = _BENCH.matrix(["PMFS"], ["rand-read"], [1, 2], **_TINY)
        serial = run_fleet(bench_cell, cells, jobs=1)
        fanned = run_fleet(bench_cell, cells, jobs=2)
        assert serial == fanned
        assert [r["seed"] for r in fanned] == [1, 2]

    def test_report_byte_identical_across_jobs(self):
        cells = _BENCH.matrix(["PMFS", "WineFS"], ["rand-read"], [1], **_TINY)
        blobs = {json.dumps(CAMPAIGNS["bench"].run(cells, jobs=jobs),
                            sort_keys=True)
                 for jobs in (1, 2, 4)}
        assert len(blobs) == 1

    def test_cli_bench_byte_identical(self, tmp_path):
        out = []
        for jobs in ("1", "2"):
            path = tmp_path / f"bench-{jobs}.json"
            code = main(["bench", "--fs", "PMFS", "--patterns", "rand-read",
                         "--seeds", "1,2", "--size-gib", "0.0625",
                         "--cpus", "2", "--jobs", jobs,
                         "--out", str(path)])
            assert code == 0
            out.append(path.read_bytes())
        assert out[0] == out[1]


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
class TestCampaignContract:
    """What ``Campaign`` promises, checked on everything registered."""

    def test_matrix_sorted_for_shuffled_axes(self, name):
        campaign = CAMPAIGNS[name]
        axis_values, params = _TINY_GRIDS[name]
        expected = campaign.matrix(*axis_values, **params)
        rng = random.Random(name)
        shuffled = [rng.sample(list(values), len(values))
                    for values in axis_values]
        cells = campaign.matrix(*shuffled, **params)
        assert cells == expected
        keys = [tuple(c[axis] for axis in campaign.axes) for c in cells]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_cells_are_plain_data_over_the_defaults(self, name):
        campaign = CAMPAIGNS[name]
        axis_values, params = _TINY_GRIDS[name]
        for cell in campaign.matrix(*axis_values, **params):
            assert json.loads(json.dumps(cell)) == cell
            assert set(cell) == set(campaign.axes) | set(campaign.defaults)
            shared = {key: cell[key] for key in campaign.defaults}
            assert shared == {**campaign.defaults, **params}

    def test_unknown_names_rejected_before_any_cell_runs(self, name,
                                                         monkeypatch):
        campaign = CAMPAIGNS[name]
        axis_values, params = _TINY_GRIDS[name]
        monkeypatch.setattr("repro.harness.fleet.run_fleet",
                            lambda *a, **k: pytest.fail("a worker started"))
        with pytest.raises(TypeError):
            campaign.matrix(*axis_values, **params, no_such_parameter=1)
        with pytest.raises(TypeError):
            campaign.matrix(*axis_values[:-1], **params)
        with pytest.raises(ValueError, match="unknown fs 'NoSuchFS'"):
            campaign.matrix(["NoSuchFS"], *axis_values[1:], **params)

    def test_report_byte_identical_across_jobs(self, name, tmp_path):
        campaign = CAMPAIGNS[name]
        axis_values, params = _TINY_GRIDS[name]
        cells = campaign.matrix(*axis_values, **params)
        blobs = []
        for jobs in (1, 2):
            # the corpus report archives under a root; the others take none
            extra = {"root": str(tmp_path / f"jobs{jobs}")} \
                if name == "snapshot" else {}
            report = campaign.run(cells, jobs=jobs, **extra)
            assert report["schema"] == campaign.schema
            assert len(report["cells"]) == len(cells)
            blobs.append(json.dumps(report, sort_keys=True))
        assert blobs[0] == blobs[1]


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown profile 'nope'"):
        CAMPAIGNS["snapshot"].matrix(["WineFS"], ["nope"], [0.5], [1])
