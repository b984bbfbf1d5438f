"""SLO telemetry: the recorder, the degraded intervals, the one report.

The guarantees under test:

* telemetry is default-off and **bit-identical-off** — an un-attached
  file system runs the plain class entry points, and an attached one
  never changes any simulated result;
* a report row's quantiles are exact: ``Summary.from_samples`` over the
  latencies the cells recorded for the row's operation class;
* degraded intervals: one per degradation (re-entry does not duplicate
  or overwrite), MTTR only over actual recoveries;
* a seeded fault campaign's SLO report is byte-identical between
  ``--jobs 1`` and ``--jobs 2`` (the CI ``slo-smoke`` contract).
"""

from __future__ import annotations

import json

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.errors import ObservabilityError, ReadOnlyError
from repro.faults import FaultPlan, campaign_plan, crash_plan
from repro.harness.fleet import CAMPAIGNS, slo_cell
from repro.harness.report import availability_table, slo_table
from repro.obs import DEFAULT_SLOS, Telemetry, slo_report
from repro.params import MIB
from repro.pm.device import PMDevice
from repro.structures.stats import Summary

SIZE = 128 * MIB


# -- error ledger ------------------------------------------------------------

class TestErrorLedger:
    def test_counts_and_merge(self):
        a, b = Telemetry(), Telemetry()
        for _ in range(3):
            a.record_op("WineFS", "write", 100.0)
        a.record_error("WineFS", "write", "EROFS")
        b.record_error("WineFS", "write", "EIO")
        plan = FaultPlan()
        plan.counts = {("poison", "injected"): 2, ("poison", "masked"): 1}
        b.absorb_fault_plan("WineFS", plan)
        report = slo_report([a.as_dict(), b.as_dict()])
        data, = [r for r in report["results"] if r["slo"] == "data"]
        assert data["ops"] == 5 and data["surfaced"] == 2
        assert report["surfaced"] == {"WineFS": {"write": {"EROFS": 1,
                                                           "EIO": 1}}}
        assert report["faults"] == {"WineFS": {"poison": {"injected": 2,
                                                          "masked": 1}}}
        # folding copies: the recorders are left as they were
        assert a.surfaced == {"WineFS": {"write": {"EROFS": 1}}}
        assert len(a.samples["WineFS"]["write"]) == 3


# -- degraded intervals ------------------------------------------------------

def _availability(telemetry):
    return slo_report([telemetry.as_dict()])["availability"]


class TestDegradedTimeline:
    def test_interval_and_mttr(self):
        telemetry = Telemetry()
        telemetry.mark_degraded("WineFS", "journal", 100.0)
        telemetry.mark_recovered("WineFS", 350.0)
        assert _availability(telemetry) == {"WineFS": {
            "degradations": 1, "degraded_ns": 250.0, "mttr_ns": 250.0}}

    def test_reentry_does_not_duplicate(self):
        # a second degradation reason on an already-degraded mount must
        # not emit a duplicate interval
        telemetry = Telemetry()
        telemetry.mark_degraded("WineFS", "first", 10.0)
        telemetry.mark_degraded("WineFS", "second", 20.0)
        assert len(telemetry.intervals) == 1
        assert telemetry.intervals[0]["reason"] == "first"

    def test_finalize_closes_open_interval_without_mttr(self):
        telemetry = Telemetry()
        telemetry.mark_degraded("WineFS", "poison", 50.0)
        assert _availability(telemetry)["WineFS"]["degraded_ns"] == 0.0
        telemetry.finalize(150.0)
        assert _availability(telemetry) == {"WineFS": {
            "degradations": 1, "degraded_ns": 100.0,
            "mttr_ns": None}}     # nothing recovered

    def test_recovery_before_degradation_rejected(self):
        telemetry = Telemetry()
        telemetry.mark_degraded("WineFS", "x", 100.0)
        with pytest.raises(ObservabilityError):
            telemetry.mark_recovered("WineFS", 50.0)


# -- FS hooks ----------------------------------------------------------------

def _winefs(plan=None):
    device = PMDevice(SIZE)
    fs = WineFS(device, num_cpus=2)
    if plan is not None:
        device.set_fault_plan(plan)
    ctx = make_context(2)
    fs.mkfs(ctx)
    return fs, ctx


class TestTelemetryAttachment:
    def test_off_is_bit_identical(self):
        def run(attach):
            fs, ctx = _winefs()
            if attach:
                fs.attach_telemetry(Telemetry())
            fs.write_file("/a", b"x" * 9000, ctx)
            fs.mkdir("/d", ctx)
            fs.rename("/a", "/d/a", ctx)
            data = fs.read_file("/d/a", ctx)
            return ctx.clock.snapshot(), data, ctx.counters.syscalls

        assert run(False) == run(True)

    def test_attached_records_latencies_and_detach_restores(self):
        fs, ctx = _winefs()
        telemetry = Telemetry()
        fs.attach_telemetry(telemetry)
        fs.write_file("/f", b"y" * 4096, ctx)
        created = telemetry.samples["WineFS"]["create"]
        assert len(created) == 1 and created[0] > 0
        assert telemetry.ops["WineFS"]["write"] >= 1
        fs.detach_telemetry()
        assert "create" not in fs.__dict__
        fs.write_file("/g", b"z" * 128, ctx)
        assert telemetry.ops["WineFS"]["create"] == 1  # unchanged

    def test_surfaced_errors_counted_not_sketched(self):
        fs, ctx = _winefs()
        telemetry = Telemetry()
        fs.attach_telemetry(telemetry)
        fs.remount_read_only("test degradation", ctx)
        with pytest.raises(ReadOnlyError):
            fs.create("/nope", ctx)
        assert telemetry.surfaced["WineFS"]["create"] == {"EROFS": 1}
        assert telemetry.ops["WineFS"]["create"] == 1
        assert "create" not in telemetry.samples.get("WineFS", {})

    def test_remount_reentry_keeps_first_reason(self):
        # a second reason must not overwrite degraded_reason or emit a
        # duplicate interval
        fs, ctx = _winefs()
        telemetry = Telemetry()
        fs.attach_telemetry(telemetry)
        fs.remount_read_only("first reason", ctx)
        fs.remount_read_only("second reason", ctx)
        assert fs.degraded_reason == "first reason"
        assert [i["reason"] for i in telemetry.intervals] == ["first reason"]

    def test_mkfs_heals_and_closes_interval(self):
        fs, ctx = _winefs()
        telemetry = Telemetry()
        fs.attach_telemetry(telemetry)
        ctx.charge(500.0)
        fs.remount_read_only("corruption", ctx)
        fs.mkfs(ctx)
        assert not fs.read_only and fs.degraded_reason is None
        interval, = telemetry.intervals
        assert interval["recovered"] is True
        # the interval opens at the context's clock, never at t = 0
        assert interval["start"] >= 500.0
        assert _availability(telemetry)["WineFS"]["mttr_ns"] is not None


# -- SLO evaluation ----------------------------------------------------------

class TestEvaluate:
    def test_budget_burn_and_violations(self):
        telemetry = Telemetry()
        for _ in range(99):
            telemetry.record_op("fsX", "read", 100.0)
        telemetry.record_error("fsX", "read", "EIO")
        rows = {(r["fs"], r["slo"]): r
                for r in slo_report([telemetry.as_dict()])["results"]}
        data = rows[("fsX", "data")]
        assert data["ops"] == 100 and data["surfaced"] == 1
        # 1% surfaced against a 0.1% budget: 10x burn, violated
        assert data["budget_burn"] == pytest.approx(10.0)
        assert not data["ok"]
        assert data["objectives"][-1] == "errors<=0.001: VIOLATED"

    def test_latency_objective_violation(self):
        telemetry = Telemetry()
        for _ in range(10):
            telemetry.record_op("fsY", "fsync", 9e6)   # 9 ms >> 1 ms p99
        row, = [r for r in slo_report([telemetry.as_dict()])["results"]
                if r["fs"] == "fsY" and r["slo"] == "sync"]
        assert not row["ok"] and row["surfaced"] == 0
        assert row["p99_ns"] == 9e6
        assert row["objectives"][0] == "p99<=1000000ns: VIOLATED"


# -- campaign / fleet determinism --------------------------------------------

def _tiny_cells():
    return CAMPAIGNS["slo"].matrix(["WineFS", "ext4-DAX"], [3],
                                   size_gib=0.125, num_cpus=2, ops=40)


class TestCampaign:
    def test_campaign_plan_is_seed_deterministic(self):
        a, b = campaign_plan(7), campaign_plan(7)
        assert a.to_json() == b.to_json()
        assert campaign_plan(8).to_json() != a.to_json()
        kinds = {spec.kind for spec in a.specs}
        assert kinds == {"latency", "enospc", "write_error"}
        assert {s.kind for s in crash_plan(7, 4096).specs} == {"poison"}

    def test_cell_degrades_and_recovers_winefs(self):
        report = slo_report([slo_cell(_tiny_cells()[0])])
        avail = report["availability"]["WineFS"]
        assert avail["degradations"] == 1
        assert avail["degraded_ns"] > 0
        assert avail["mttr_ns"] is not None
        # EROFS under degradation
        assert sum(r["surfaced"] for r in report["results"]) > 0
        assert any("surfaced" in by
                   for by in report["faults"]["WineFS"].values())

    def test_baseline_cell_runs_without_degradation(self):
        report = slo_report([slo_cell(_tiny_cells()[1])])
        assert report["availability"] == {}
        assert sum(r["ops"] for r in report["results"]
                   if r["fs"] == "ext4-DAX") > 0

    def test_jobs_1_and_2_reports_are_byte_identical(self):
        cells = _tiny_cells()
        serial = CAMPAIGNS["slo"].run(cells, jobs=1)
        fleet = CAMPAIGNS["slo"].run(cells, jobs=2)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(fleet, sort_keys=True)

    def test_report_has_quantiles_and_degraded_seconds(self):
        report = CAMPAIGNS["slo"].run(_tiny_cells(), jobs=1)
        assert report["schema"] == "repro.slo-report/1"
        rows = report["results"]
        assert any(r["fs"] == "WineFS" and r["p999_ns"] > 0 for r in rows)
        assert report["availability"]["WineFS"]["degraded_ns"] > 0
        # the report renders through harness.report (multi-line cells)
        text = slo_table(rows).render()
        assert "objectives" in text and "VIOLATED" in text
        assert availability_table(report["availability"]).render()

    def test_rows_take_exact_quantiles_from_the_cells_samples(self):
        cells = _tiny_cells()
        parts = [slo_cell(cell) for cell in cells]
        report = CAMPAIGNS["slo"].run(cells, jobs=1)
        spec_ops = {spec.name: spec.ops for spec in DEFAULT_SLOS}
        assert report["results"]
        for row in report["results"]:
            samples = [ns for part in parts
                       for op in spec_ops[row["slo"]]
                       for ns in part["samples"].get(row["fs"], {})
                       .get(op, ())]
            tail = Summary.from_samples(samples)
            assert (row["p50_ns"], row["p99_ns"], row["p999_ns"]) == \
                (tail.median, tail.p99, tail.p999), row
        outcomes = report["faults"]["WineFS"]
        assert any("masked" in by for by in outcomes.values())
        assert any("surfaced" in by for by in outcomes.values())
