"""SLO telemetry pipeline: sketches, ledger, timeline, exposition, fleet.

The guarantees under test (ISSUE 6 acceptance):

* sketches are exact and mergeable — the bucket ladder is bit-identical
  on any IEEE-754 host, a merge is elementwise addition, and payloads
  are byte-stable;
* telemetry is default-off and **bit-identical-off** — an un-attached
  file system runs the plain class entry points, and an attached one
  never changes any simulated result;
* the degraded-mode timeline records one interval per degradation
  (re-entry does not duplicate or overwrite) and MTTR only over actual
  recoveries;
* a seeded fault campaign's SLO report is byte-identical between
  ``--jobs 1`` and ``--jobs 2`` (the CI ``slo-smoke`` contract).
"""

from __future__ import annotations

import json

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.errors import ObservabilityError, ReadOnlyError
from repro.faults import campaign_plan, crash_plan
from repro.harness.fleet import CAMPAIGNS, slo_cell
from repro.harness.report import availability_table, slo_table
from repro.obs import (DEFAULT_SLOS, DegradedTimeline, ErrorLedger,
                       LatencySketch, SketchBank, Telemetry, evaluate_frame,
                       frame_of, merge_frames, openmetrics_exposition,
                       openmetrics_lines)
from repro.obs.names import METRIC_NAMES
from repro.obs.sketch import BOUNDARIES
from repro.params import MIB
from repro.pm.device import PMDevice

SIZE = 128 * MIB


# -- sketches ----------------------------------------------------------------

class TestLatencySketch:
    def test_boundaries_are_exact_binary_floats(self):
        # every boundary must be exactly representable: mantissa * 2^e
        # with mantissa in {1, 1.25, 1.5, 1.75} — so bucket assignment
        # can never differ across IEEE-754 hosts
        assert len(BOUNDARIES) == 160
        assert BOUNDARIES[0] == 1.0
        for bound in BOUNDARIES:
            num, den = float(bound).as_integer_ratio()
            assert den in (1, 2, 4), bound
        assert list(BOUNDARIES) == sorted(BOUNDARIES)

    def test_observe_and_exact_counts(self):
        sketch = LatencySketch()
        for v in (0.5, 1.0, 1.1, 100.0, 1e12):
            sketch.observe(v)
        assert sketch.count == 5
        assert sketch.sum == pytest.approx(0.5 + 1.0 + 1.1 + 100.0 + 1e12)
        assert sketch.minimum == 0.5
        assert sketch.maximum == 1e12
        # 0.5 and 1.0 share the first bucket (v <= 1.0)
        assert sketch.counts[0] == 2
        # 1e12 > 1.75 * 2^39 (~9.6e11): overflow bucket
        assert sketch.counts[len(BOUNDARIES)] == 1
        with pytest.raises(ObservabilityError):
            sketch.observe(-1.0)

    def test_quantile_reports_bucket_upper_boundary(self):
        sketch = LatencySketch()
        for _ in range(99):
            sketch.observe(10.0)       # bucket boundary 10.0
        sketch.observe(1000.0)
        assert sketch.p50 == 10.0
        assert sketch.quantile(99) == 10.0
        # the single tail sample owns the last percentile
        assert sketch.quantile(100) == 1024.0
        assert LatencySketch().quantile(50) == 0.0

    def test_overflow_quantile_reports_exact_maximum(self):
        sketch = LatencySketch()
        sketch.observe(1e13)            # far past the last boundary
        assert sketch.quantile(99) == 1e13

    def test_merge_is_exact_elementwise_addition(self):
        a, b, whole = LatencySketch(), LatencySketch(), LatencySketch()
        for i, v in enumerate((1.0, 3.0, 7.7, 100.0, 2500.0, 9.9e9)):
            (a if i % 2 else b).observe(v)
            whole.observe(v)
        a.merge(b)
        assert a.counts == whole.counts
        assert a.count == whole.count
        assert a.minimum == whole.minimum
        assert a.maximum == whole.maximum
        assert a.p50 == whole.p50 and a.p999 == whole.p999

    def test_payload_roundtrip_and_byte_stability(self):
        sketch = LatencySketch()
        for v in (1.5, 80.0, 80.0, 1e6):
            sketch.observe(v)
        payload = sketch.to_payload()
        again = LatencySketch.from_payload(payload)
        assert again.counts == sketch.counts
        assert json.dumps(payload, sort_keys=True) == \
            json.dumps(again.to_payload(), sort_keys=True)
        with pytest.raises(ObservabilityError):
            LatencySketch.from_payload({"schema": "bogus"})

    def test_bank_payload_is_insertion_order_independent(self):
        fwd, rev = SketchBank(), SketchBank()
        obs = [("b", "read", 10.0), ("a", "write", 20.0), ("a", "read", 5.0)]
        for fs, op, v in obs:
            fwd.observe(fs, op, v)
        for fs, op, v in reversed(obs):
            rev.observe(fs, op, v)
        assert json.dumps(fwd.to_payload(), sort_keys=True) == \
            json.dumps(rev.to_payload(), sort_keys=True)
        assert fwd.keys() == [("a", "read"), ("a", "write"), ("b", "read")]


# -- error ledger ------------------------------------------------------------

class TestErrorLedger:
    def test_counts_and_merge(self):
        a, b = ErrorLedger(), ErrorLedger()
        for _ in range(3):
            a.note_op("WineFS", "write")
        a.note_surfaced("WineFS", "write", "EROFS")
        b.note_op("WineFS", "write")
        b.note_surfaced("WineFS", "write", "EIO")
        b.absorb_fault_counts("WineFS", {("poison", "injected"): 2,
                                         ("poison", "masked"): 1})
        a.merge(b)
        assert a.ops("WineFS", "write") == 4
        assert a.surfaced("WineFS") == 2
        assert a.fault_total("WineFS", "injected") == 2
        assert a.fault_total("WineFS", "masked") == 1
        payload = a.to_payload()
        assert ErrorLedger.from_payload(payload).to_payload() == payload


# -- degraded timeline -------------------------------------------------------

class TestDegradedTimeline:
    def test_interval_and_mttr(self):
        tl = DegradedTimeline(tag="t")
        tl.mark_degraded("WineFS", "journal", 100.0)
        tl.mark_recovered("WineFS", 350.0)
        assert tl.degraded_ns("WineFS") == 250.0
        assert tl.mttr_ns("WineFS") == 250.0
        assert tl.degradations("WineFS") == 1

    def test_reentry_does_not_duplicate(self):
        # ISSUE satellite: a second degradation reason on an already-
        # degraded mount must not emit a duplicate interval
        tl = DegradedTimeline()
        tl.mark_degraded("WineFS", "first", 10.0)
        tl.mark_degraded("WineFS", "second", 20.0)
        assert tl.degradations("WineFS") == 1
        assert tl.intervals[0]["reason"] == "first"
        assert tl.event_count("degraded") == 1

    def test_finalize_closes_open_interval_without_mttr(self):
        tl = DegradedTimeline()
        tl.mark_degraded("WineFS", "poison", 50.0)
        tl.finalize(150.0)
        assert tl.degraded_ns("WineFS") == 100.0
        assert tl.mttr_ns("WineFS") is None    # nothing recovered
        tl2 = DegradedTimeline.from_payload(tl.to_payload())
        assert tl2.degraded_ns("WineFS") == 100.0

    def test_recovery_before_degradation_rejected(self):
        tl = DegradedTimeline()
        tl.mark_degraded("WineFS", "x", 100.0)
        with pytest.raises(ObservabilityError):
            tl.mark_recovered("WineFS", 50.0)


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
                fs.attach_telemetry(Telemetry(tag="on"))
            fs.write_file("/a", b"x" * 9000, ctx)
            fs.mkdir("/d", ctx)
            fs.rename("/a", "/d/a", ctx)
            data = fs.read_file("/d/a", ctx)
            return ctx.clock.snapshot(), data, ctx.counters.syscalls

        assert run(False) == run(True)

    def test_attached_records_latencies_and_detach_restores(self):
        fs, ctx = _winefs()
        telemetry = Telemetry(tag="t")
        fs.attach_telemetry(telemetry)
        fs.write_file("/f", b"y" * 4096, ctx)
        sketch = telemetry.sketches.get("WineFS", "create")
        assert sketch is not None and sketch.count == 1
        assert sketch.minimum > 0
        assert telemetry.ledger.ops("WineFS", "write") >= 1
        fs.detach_telemetry()
        assert "create" not in fs.__dict__
        fs.write_file("/g", b"z" * 128, ctx)
        assert telemetry.ledger.ops("WineFS", "create") == 1  # unchanged

    def test_surfaced_errors_counted_not_sketched(self):
        fs, ctx = _winefs()
        telemetry = Telemetry()
        fs.attach_telemetry(telemetry)
        fs.remount_read_only("test degradation", ctx)
        with pytest.raises(ReadOnlyError):
            fs.create("/nope", ctx)
        assert telemetry.ledger.surfaced("WineFS", "create") == 1
        assert telemetry.ledger.ops("WineFS", "create") == 1
        assert telemetry.sketches.get("WineFS", "create") is None

    def test_remount_reentry_keeps_first_reason(self):
        # ISSUE satellite: second reason must not overwrite
        # degraded_reason or emit a duplicate timeline interval
        fs, ctx = _winefs()
        telemetry = Telemetry()
        fs.attach_telemetry(telemetry)
        fs.remount_read_only("first reason", ctx)
        fs.remount_read_only("second reason", ctx)
        assert fs.degraded_reason == "first reason"
        assert telemetry.timeline.degradations("WineFS") == 1
        assert telemetry.timeline.intervals[0]["reason"] == "first reason"

    def test_mkfs_heals_and_closes_interval(self):
        fs, ctx = _winefs()
        telemetry = Telemetry()
        fs.attach_telemetry(telemetry)
        fs.remount_read_only("corruption", ctx)
        fs.mkfs(ctx)
        assert not fs.read_only and fs.degraded_reason is None
        assert telemetry.timeline.mttr_ns("WineFS") is not None
        assert telemetry.timeline.intervals[0]["recovered"] is True


# -- exposition --------------------------------------------------------------

def _sample_frame():
    telemetry = Telemetry(tag="sample")
    for v in (100.0, 200.0, 900.0):
        telemetry.record_op("WineFS", "read", v)
    telemetry.record_op("WineFS", "fsync", 5000.0)
    telemetry.record_error("WineFS", "create", "EROFS")
    telemetry.ledger.absorb_fault_counts(
        "WineFS", {("torn_store", "injected"): 1,
                   ("torn_store", "masked"): 1})
    telemetry.timeline.mark_degraded("WineFS", "test", 10.0)
    telemetry.timeline.mark_recovered("WineFS", 60.0)
    telemetry.finalize(100.0)
    return telemetry.as_payload()


class TestOpenMetrics:
    def test_exposition_is_byte_stable(self):
        a = openmetrics_exposition(_sample_frame())
        b = openmetrics_exposition(_sample_frame())
        assert a == b
        assert a.endswith("# EOF\n")
        assert 'vfs_op_latency_ns_bucket{fs="WineFS",op="read",le="+Inf"} 3' \
            in a
        assert 'slo_errors_total{errno="EROFS",fs="WineFS",op="create"} 1' \
            in a
        assert 'slo_mttr_seconds{fs="WineFS"} 5e-08' in a

    def test_every_family_is_registered_in_names(self):
        # ISSUE satellite: sketch/SLO families must appear in the metric
        # name registry — no baseline entries, no unregistered series
        families = set()
        for line in openmetrics_lines(_sample_frame()):
            if line.startswith("# TYPE "):
                families.add(line.split()[2])
        assert families
        assert families <= METRIC_NAMES

    def test_frame_schema_enforced(self):
        with pytest.raises(ObservabilityError):
            frame_of({"schema": "repro.bench/1"})


# -- SLO evaluation ----------------------------------------------------------

class TestEvaluate:
    def test_budget_burn_and_violations(self):
        telemetry = Telemetry()
        for _ in range(99):
            telemetry.record_op("fsX", "read", 100.0)
        telemetry.record_error("fsX", "read", "EIO")
        results = {(r.fs, r.spec.name): r for r in telemetry.evaluate()}
        data = results[("fsX", "data")]
        assert data.ops == 100 and data.surfaced == 1
        # 1% surfaced against a 0.1% budget: 10x burn, violated
        assert data.budget_burn == pytest.approx(10.0)
        assert not data.ok
        assert any("VIOLATED" in line for line in data.objective_lines)

    def test_latency_objective_violation(self):
        telemetry = Telemetry()
        for _ in range(10):
            telemetry.record_op("fsY", "fsync", 9e6)   # 9 ms >> 1 ms p99
        r = [x for x in telemetry.evaluate()
             if x.fs == "fsY" and x.spec.name == "sync"][0]
        assert not r.ok and r.surfaced == 0
        assert r.p99_ns > 1e6


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
        frame = slo_cell(_tiny_cells()[0])
        _bank, ledger, timeline = frame_of(frame)
        assert timeline.degradations("WineFS") == 1
        assert timeline.degraded_ns("WineFS") > 0
        assert timeline.mttr_ns("WineFS") is not None
        assert ledger.surfaced("WineFS") > 0       # EROFS under degradation
        assert ledger.fault_total("WineFS", "surfaced") >= 1

    def test_baseline_cell_runs_without_degradation(self):
        frame = slo_cell(_tiny_cells()[1])
        _bank, ledger, timeline = frame_of(frame)
        assert timeline.degradations("ext4-DAX") == 0
        assert ledger.ops("ext4-DAX") > 0

    def test_jobs_1_and_2_reports_are_byte_identical(self):
        cells = _tiny_cells()
        serial = CAMPAIGNS["slo"].run(cells, jobs=1)
        fleet = CAMPAIGNS["slo"].run(cells, jobs=2)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(fleet, sort_keys=True)
        assert openmetrics_exposition(serial["frame"]) == \
            openmetrics_exposition(fleet["frame"])

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

    def test_merge_frames_order_sensitivity_is_callers_job(self):
        frames = [slo_cell(c) for c in _tiny_cells()]
        merged = merge_frames(frames)
        # merging the same frames in the same order twice is byte-stable
        again = merge_frames([slo_cell(c) for c in _tiny_cells()])
        assert json.dumps(merged, sort_keys=True) == \
            json.dumps(again, sort_keys=True)
        results = evaluate_frame(merged, slos=DEFAULT_SLOS)
        assert {r.fs for r in results} == {"WineFS", "ext4-DAX"}
