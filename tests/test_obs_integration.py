"""Observability wired through the stack: spans from real operations,
tracing-off determinism, the per-phase report, and the CLI."""

import json

import pytest

from repro.cli import main
from repro.clock import EventCounters
from repro.harness import (ALL_SPECS, Table, fresh_fs,
                           phase_breakdown_table)
from repro.obs import Tracer
from repro.params import KIB, MIB
from repro.workloads import mmap_rw_benchmark, run_scalability


def _run_mmap(trace=None, seed=3):
    fs, ctx = fresh_fs("WineFS", size_gib=0.25, trace=trace)
    mmap_rw_benchmark(fs, ctx, file_size=8 * MIB, io_size=2 * MIB,
                      pattern="rand-write", seed=seed)
    return ctx


def _run_scalability(trace=None):
    # more workload CPUs than FS journals: the shared per-journal lock
    # serializes writers, guaranteeing simulated lock contention
    from repro.clock import make_context
    from repro.harness import SPECS_BY_NAME
    from repro.params import GIB
    from repro.pm.device import PMDevice
    device = PMDevice(int(0.25 * GIB))
    fs = SPECS_BY_NAME["WineFS"].build(device, num_cpus=2, track_data=False)
    ctx = make_context(8, trace=trace)
    fs.mkfs(ctx)
    ctx.clock.reset()
    run_scalability(fs, ctx, threads=8, ops_per_thread=30)
    return ctx


class TestDeterminism:
    def test_tracing_off_is_bit_identical(self):
        # same seed, one run with a live tracer and one without: every
        # counter and every clock must match exactly
        plain = _run_mmap(trace=None)
        traced = _run_mmap(trace=Tracer())
        assert traced.counters == plain.counters
        assert traced.counters.as_dict() == plain.counters.as_dict()
        assert traced.clock.snapshot() == plain.clock.snapshot()

    def test_tracing_off_identical_under_contention(self):
        plain = _run_scalability(trace=None)
        traced = _run_scalability(trace=Tracer())
        assert traced.counters == plain.counters
        assert traced.clock.snapshot() == plain.clock.snapshot()
        assert traced.locks.contended_waits == plain.locks.contended_waits


class TestStackSpans:
    def test_vfs_ops_produce_nested_spans(self):
        tracer = Tracer()
        ctx = _run_mmap(trace=tracer)
        spans = tracer.spans()
        names = {s.name for s in spans}
        assert "vfs.create" in names
        assert "vfs.write" in names
        assert "journal.commit" in names
        assert "alloc" in names
        # journal.commit and alloc happen inside VFS operations
        by_id = {s.span_id: s for s in spans}
        nested = [s for s in spans if s.name in ("journal.commit", "alloc")
                  and s.parent_id in by_id]
        assert nested, "expected nested core spans under VFS operations"
        for s in nested:
            parent = by_id[s.parent_id]
            assert parent.start_ns <= s.start_ns <= s.end_ns <= parent.end_ns
        assert ctx.trace is tracer

    def test_fault_spans_recorded(self):
        tracer = Tracer()
        _run_mmap(trace=tracer)
        faults = [s for s in tracer.spans() if s.name == "mmu.fault"]
        assert faults
        assert all("huge" in s.attrs and "page" in s.attrs for s in faults)
        assert all(s.end_ns > s.start_ns for s in faults)

    def test_lock_wait_spans_under_contention(self):
        tracer = Tracer()
        ctx = _run_scalability(trace=tracer)
        waits = [s for s in tracer.spans() if s.name == "lock.wait"]
        assert ctx.locks.contended_waits > 0
        assert len(waits) == ctx.locks.contended_waits
        assert sum(s.duration_ns for s in waits) == pytest.approx(
            ctx.counters.lock_wait_ns)
        assert all("lock" in s.attrs for s in waits)


MODELS = [spec.name for spec in ALL_SPECS]
MIX_VERBS = ("create", "open", "write", "read", "fallocate", "truncate",
             "fsync", "mmap", "mkdir", "rename", "unlink", "rmdir")


def _op_mix(name, trace=None):
    """Every traced VFS verb once (the write is an overwrite, so SplitFS's
    syscall-free append path does not hide it)."""
    fs, ctx = fresh_fs(name, size_gib=0.125, num_cpus=2, track_data=True,
                       trace=trace)
    if trace is not None:
        trace.clear()
    fs.mkdir("/d", ctx)
    f = fs.create("/d/a", ctx)
    fs.fallocate(f.ino, 0, 64 * KIB, ctx)
    fs.write(f.ino, 0, b"w" * 10_000, ctx)
    assert fs.read(f.ino, 0, 10_000, ctx) == b"w" * 10_000
    fs.truncate(f.ino, 32 * KIB, ctx)
    fs.fsync(f.ino, ctx)
    region = fs.mmap(f.ino, ctx)
    region.read(0, 64, ctx)
    region.unmap()
    fs.open("/d/a", ctx)
    fs.rename("/d/a", "/d/b", ctx)
    fs.unlink("/d/b", ctx)
    fs.rmdir("/d", ctx)
    return ctx


class TestSpanCoverage:
    @pytest.mark.parametrize("name", MODELS)
    def test_every_verb_opens_its_span(self, name):
        tracer = Tracer()
        traced = _op_mix(name, trace=tracer)
        spans = tracer.spans()
        for verb in MIX_VERBS:
            hits = [s for s in spans if s.name == f"vfs.{verb}"]
            assert hits, f"no vfs.{verb} span on {name}"
            assert all(s.attrs["fs"] == name for s in hits)
        plain = _op_mix(name)
        assert traced.clock.snapshot() == plain.clock.snapshot()
        assert traced.counters.as_dict() == plain.counters.as_dict()

    def test_winefs_core_spans_nest_under_vfs(self):
        tracer = Tracer()
        _op_mix("WineFS", trace=tracer)
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}

        def under_vfs(span):
            while span.parent_id in by_id:
                span = by_id[span.parent_id]
                if span.name.startswith("vfs."):
                    return True
            return False

        for name in ("journal.begin", "journal.commit", "alloc"):
            hits = [s for s in spans if s.name == name]
            assert hits and all(under_vfs(s) for s in hits), name

    @pytest.mark.parametrize("name", ["WineFS", "NOVA"])
    def test_traced_prefault_matches_untraced(self, name):
        from repro.workloads import PARTModel

        def build(trace):
            # the 64 KiB tail cannot map huge: prefault installs it as runs
            fs, ctx = fresh_fs(name, size_gib=0.125, trace=trace)
            model = PARTModel(fs, ctx, pool_bytes=8 * MIB + 64 * KIB,
                              hot_keys=64)
            return ctx, model.region

        tracer = Tracer()
        traced, traced_region = build(tracer)
        plain, plain_region = build(None)
        assert traced.clock.snapshot() == plain.clock.snapshot()
        assert traced.counters.as_dict() == plain.counters.as_dict()
        assert traced_region.page_table._base == plain_region.page_table._base
        assert traced_region.page_table._huge == plain_region.page_table._huge
        faults = [s for s in tracer.spans() if s.name == "mmu.fault"]
        c = traced.counters
        assert any(s.attrs.get("pages", 1) > 1 for s in faults)
        assert sum(s.attrs.get("pages", 1) for s in faults) == \
            c.page_faults_4k + c.page_faults_2m


class TestPhaseBreakdown:
    def test_table_from_counters(self):
        ctx = _run_mmap()
        table = phase_breakdown_table({"WineFS": ctx.counters})
        text = table.render()
        assert "fault_ns" in text and "lock_wait_ns" in text
        assert "WineFS" in text
        # the phase columns are the counters' fields, the total their sum
        c = ctx.counters
        phases = [c.fault_ns, c.copy_ns, c.journal_ns, c.lock_wait_ns]
        expected = Table("t", ["fs"] + ["ns"] * 5)
        expected.add_row("WineFS", *phases, sum(phases))
        assert table.rows[0][:6] == expected.rows[0]

    def test_empty_phases_render_dash(self):
        text = phase_breakdown_table({"idle": EventCounters()}).render()
        assert "-" in text


class TestCli:
    def test_trace_chrome_output(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "mmap", "--fs", "WineFS", "--size-gib", "0.25",
                   "--trace-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        assert {"vfs.create", "vfs.write"} <= {e["name"] for e in events}
        assert "Per-phase time breakdown" in capsys.readouterr().out

    def test_trace_jsonl_output(self, tmp_path):
        out = tmp_path / "spans.jsonl"
        rc = main(["trace", "posix", "--size-gib", "0.25",
                   "--format", "jsonl", "--trace-out", str(out),
                   "--trace-capacity", "128"])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert 0 < len(lines) <= 128
        assert all(json.loads(line)["name"] for line in lines)

    def test_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main(["trace", "mmap", "--size-gib", "0.25",
                   "--trace-out", str(out), "--metrics-out", str(metrics)])
        assert rc == 0
        snapshot = json.loads(metrics.read_text())
        assert list(snapshot) == sorted(EventCounters._fields)
        assert snapshot["page_faults_4k"] + snapshot["page_faults_2m"] > 0
        assert snapshot["fault_ns"] > 0

    def test_scalability_metrics_out_merges_rows(self, tmp_path):
        metrics = tmp_path / "m.json"
        rc = main(["scalability", "--size-gib", "0.25",
                   "--threads", "1,2", "--metrics-out", str(metrics)])
        assert rc == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["syscalls"] > 0
