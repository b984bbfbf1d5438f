"""Fault-injection matrix: every fault kind, at every layer it can hit.

Three guarantees under test (ISSUE acceptance):

* default-off and **bit-identical-off** — an absent plan, an empty plan,
  and an active plan that never fires all produce the same clocks,
  counters, and device byte totals;
* every injected fault is either *masked* (healed poison, relocated
  write) or *surfaced* as the documented errno — never a silently-wrong
  read;
* degradation is targeted: metadata hits remount read-only, data hits
  surface ``EIO`` and leave the file system writable.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.core.journal import ENTRY_BYTES, JournalEntry, TYPE_DATA
from repro.errors import (ChecksumError, InvalidArgumentError, MediaError,
                          NoSpaceError, ReadOnlyError)
from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec, \
    MAX_WRITE_RETRIES
from repro.fs.common.inode import INODE_BYTES
from repro.harness.report import fault_table
from repro.obs.trace import Tracer
from repro.params import BLOCK_SIZE, MIB
from repro.pm.device import PMDevice

SIZE = 128 * MIB


def _winefs(track_stores=False, mode="strict", plan=None):
    device = PMDevice(SIZE, track_stores=track_stores)
    fs = WineFS(device, num_cpus=2, mode=mode, track_data=True)
    if plan is not None:
        device.set_fault_plan(plan)
    ctx = make_context(2)
    fs.mkfs(ctx)
    return fs, ctx, device


class TestPlanMechanics:
    def test_kind_validation(self):
        with pytest.raises(InvalidArgumentError):
            FaultSpec("cosmic_ray")
        with pytest.raises(InvalidArgumentError):
            FaultSpec("poison")                 # needs addr
        with pytest.raises(InvalidArgumentError):
            FaultSpec("latency", latency_mult=0.5)
        with pytest.raises(InvalidArgumentError):
            FaultSpec("enospc", at_op=-1)

    def test_empty_plan_is_inactive(self):
        assert not FaultPlan(seed=9).is_active
        assert FaultPlan(specs=[FaultSpec("enospc")]).is_active

    def test_json_round_trip(self):
        plan = FaultPlan(seed=3, specs=[
            FaultSpec("poison", addr=4096, length=128),
            FaultSpec("write_error", blocks=(7, 9), count=2),
            FaultSpec("latency", at_op=5, count=10, latency_mult=2.5)])
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.seed == plan.seed
        assert clone.specs == plan.specs

    def test_report_rows_and_counts(self):
        plan = FaultPlan(specs=[FaultSpec("enospc", at_op=0)])
        assert plan.take_enospc()
        assert plan.count("enospc", "surfaced") == 1
        rows = plan.report_rows()
        assert ("enospc", 1, 0, 1) in rows

    def test_device_attach_counts_poison(self):
        plan = FaultPlan(specs=[FaultSpec("poison", addr=0, length=256)])
        device = PMDevice(SIZE, faults=plan)
        assert device.faults is plan
        assert plan.count("poison", "injected") == 4    # 256B = 4 lines


# the nine documents `repro faults --plan` used to die on (eight with a
# traceback, the last by expanding 6e10 poisoned lines)
HOSTILE_PLANS = {
    "list": '[]',
    "null": 'null',
    "spec-not-object": '{"specs":[5]}',
    "seed-str": '{"seed":"abc"}',
    "addr-str": '{"specs":[{"kind":"poison","addr":"0","length":64}]}',
    "unknown-field":
        '{"specs":[{"kind":"poison","addr":0,"length":64,"bogus":1}]}',
    "mult-str": '{"specs":[{"kind":"latency","latency_mult":"x"}]}',
    "blocks-int": '{"specs":[{"kind":"write_error","blocks":7}]}',
    "poison-4tb":
        '{"specs":[{"kind":"poison","addr":0,"length":4000000000000}]}',
}
hostile = pytest.mark.parametrize("text", list(HOSTILE_PLANS.values()),
                                  ids=list(HOSTILE_PLANS))

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
_FIELD = st.sampled_from(["kind", "addr", "length", "at_op", "count",
                          "latency_mult", "blocks", "bogus"])
_SPEC = st.dictionaries(
    _FIELD, _JSON | st.sampled_from(FAULT_KINDS)
    | st.integers(-1, 2 ** 70), max_size=7)


def _load_and_attach(text):
    """The `repro faults --plan` path: parse, then attach to a device."""
    plan = FaultPlan.from_json(text)
    PMDevice(MIB).set_fault_plan(plan)
    return plan


class TestHostilePlanJson:
    """Contract: a typed error or a plan — never another exception — in
    time and memory bounded by the document and the device."""

    @hostile
    def test_hostile_document_is_einval(self, text):
        with pytest.raises(InvalidArgumentError):
            _load_and_attach(text)

    @hostile
    def test_cli_exits_2_with_one_line(self, text, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "plan.json"
        path.write_text(text)
        assert main(["faults", "--plan", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("repro faults: --plan ")

    def test_rejected_plan_is_not_installed(self):
        device = PMDevice(MIB)
        plan = FaultPlan.from_json(HOSTILE_PLANS["poison-4tb"])
        with pytest.raises(InvalidArgumentError):
            device.set_fault_plan(plan)
        assert device.faults is None and not plan._poisoned

    @settings(max_examples=300, deadline=None)
    @given(doc=_JSON | st.fixed_dictionaries(
        {}, optional={"seed": _JSON, "specs": st.lists(_SPEC, max_size=3)}))
    def test_arbitrary_json(self, doc):
        try:
            plan = _load_and_attach(json.dumps(doc))
        except InvalidArgumentError:
            return
        assert len(plan._poisoned) <= MIB // 64
        assert FaultPlan.from_json(plan.to_json()).specs == plan.specs

    @settings(max_examples=100, deadline=None)
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes(self, blob):
        try:
            FaultPlan.from_json(blob)
        except InvalidArgumentError:
            pass


class TestBitIdenticalOff:
    """The whole point of default-off: zero observable effect."""

    @staticmethod
    def _run(plan=None, track_stores=False):
        fs, ctx, device = _winefs(track_stores=track_stores, plan=plan)
        fs.write_file("/a", b"x" * 100_000, ctx)
        f = fs.open("/a", ctx)
        f.pwrite(4096, b"y" * 8192, ctx)        # CoW overwrite
        f.append(b"z" * 10_000, ctx)
        f.close()
        fs.mkdir("/d", ctx)
        fs.rename("/a", "/d/a", ctx)
        data = fs.read_file("/d/a", ctx)
        fs.truncate(fs.getattr("/d/a").ino, 5000, ctx)
        fs.unmount(ctx)
        return (list(ctx.clock._cpu_ns), ctx.counters.as_dict(),
                device.materialized_bytes, device.bytes_read,
                device.bytes_written, data)

    def test_empty_plan_bit_identical(self):
        assert self._run() == self._run(plan=FaultPlan(seed=42))

    def test_never_firing_plan_bit_identical(self):
        # active plan (persist falls through to the store path) whose
        # specs can never trigger: charges must still be bit-identical
        plan = FaultPlan(seed=7, specs=[
            FaultSpec("torn_store", at_op=10 ** 9),
            FaultSpec("enospc", at_op=10 ** 9),
            FaultSpec("write_error", blocks=(SIZE // BLOCK_SIZE - 1,),
                      count=1)])
        assert self._run() == self._run(plan=plan)

    def test_empty_plan_bit_identical_tracked(self):
        a = self._run(track_stores=True)
        b = self._run(plan=FaultPlan(seed=1), track_stores=True)
        assert a == b


class TestPoison:
    def _poisoned_fs(self, mode="strict"):
        fs, ctx, device = _winefs(mode=mode)
        fs.write_file("/victim", b"v" * (16 * BLOCK_SIZE), ctx)
        extents = list(fs.file_extents(fs.getattr("/victim").ino))
        addr = extents[0].start * BLOCK_SIZE
        plan = FaultPlan(specs=[FaultSpec("poison", addr=addr, length=64)])
        fs.attach_fault_plan(plan)
        return fs, ctx, device, plan, addr

    def test_data_read_surfaces_eio_no_degrade(self):
        fs, ctx, device, plan, _addr = self._poisoned_fs()
        before = device.bytes_read
        with pytest.raises(MediaError) as exc:
            fs.read_file("/victim", ctx)
        assert exc.value.errno_name == "EIO"
        # the fault fired before any accounting: no bytes counted as read
        assert device.bytes_read == before
        # a data-path hit never degrades the mount
        assert not fs.read_only
        fs.write_file("/other", b"ok", ctx)
        assert plan.count("poison", "surfaced") == 1

    def test_full_line_overwrite_heals(self):
        # relaxed mode writes in place, so the overwrite lands on the
        # poisoned line itself (strict mode would CoW around it)
        fs, ctx, _device, plan, _addr = self._poisoned_fs(mode="relaxed")
        f = fs.open("/victim", ctx)
        f.pwrite(0, b"n" * BLOCK_SIZE, ctx)     # covers the poisoned line
        f.close()
        assert plan.count("poison", "masked") == 1
        assert not plan._poisoned
        data = fs.read_file("/victim", ctx)
        assert data[:BLOCK_SIZE] == b"n" * BLOCK_SIZE

    def test_poisoned_inode_slot_degrades_mount(self):
        device = PMDevice(SIZE, track_stores=True)
        fs = WineFS(device, num_cpus=2, track_data=True)
        ctx = make_context(2)
        fs.mkfs(ctx)
        fs.write_file("/keep", b"k" * 8192, ctx)
        fs.write_file("/victim", b"v" * 8192, ctx)
        vino = fs.getattr("/victim").ino
        fs.unmount(ctx)
        plan = FaultPlan(specs=[
            FaultSpec("poison", addr=fs.layout.inode_addr(vino),
                      length=INODE_BYTES)])
        device.set_fault_plan(plan)
        fs2 = WineFS(device, num_cpus=2, track_data=True)
        ctx2 = make_context(2)
        fs2.mount(ctx2)
        # metadata hit -> read-only mount, victim dropped, rest readable
        assert fs2.read_only
        assert "unreadable inode slots" in fs2.degraded_reason
        assert not fs2.exists("/victim")
        assert fs2.read_file("/keep", ctx2) == b"k" * 8192
        with pytest.raises(ReadOnlyError) as exc:
            fs2.create("/new", ctx2)
        assert exc.value.errno_name == "EROFS"
        with pytest.raises(ReadOnlyError):
            fs2.write_file("/keep2", b"x", ctx2)
        # a re-format clears the degradation
        fs2.mkfs(ctx2)
        assert not fs2.read_only

    def test_poisoned_journal_record_degrades_mount(self):
        device = PMDevice(SIZE, track_stores=True)
        fs = WineFS(device, num_cpus=2, track_data=True)
        ctx = make_context(2)
        fs.mkfs(ctx)
        fs.write_file("/f", b"d" * 4096, ctx)
        # crash (no unmount): journal bytes are still on PM; poison the
        # first record of CPU 0's journal before remounting
        base = fs.journal.journals[0].base
        plan = FaultPlan(specs=[FaultSpec("poison", addr=base, length=64)])
        device.set_fault_plan(plan)
        fs2 = WineFS(device, num_cpus=2, track_data=True)
        ctx2 = make_context(2)
        fs2.mount(ctx2)
        assert fs2.journal.skipped_records >= 1
        assert fs2.read_only
        assert "journal recovery skipped" in fs2.degraded_reason
        fs2.readdir("/", ctx2)                   # namespace still consistent


class TestTornStores:
    def test_torn_journal_entry_detected(self):
        # a torn 8-byte-granular prefix of a journal entry must fail its
        # CRC (or vanish entirely when nothing landed) — never parse as a
        # valid record
        seed = 5
        keep = 8 * random.Random(seed).randrange(0, ENTRY_BYTES // 8)
        device = PMDevice(SIZE, track_stores=True)
        fs = WineFS(device, num_cpus=2, track_data=True)
        ctx = make_context(2)
        fs.mkfs(ctx)
        journal = fs.journal.journals[0]
        entry = JournalEntry(TYPE_DATA, wraparound=1, txn_id=9,
                             addr=0x4000, undo=b"u" * 16)
        plan = FaultPlan(seed=seed,
                         specs=[FaultSpec("torn_store", at_op=0)])
        device.set_fault_plan(plan)
        device.persist(journal.base, entry.pack())
        assert plan.count("torn_store", "injected") == 1
        if keep:
            with pytest.raises(ChecksumError):
                JournalEntry.unpack(device.load(journal.base, ENTRY_BYTES))
        entries, skipped, _dirty = journal.scan()
        assert entry not in entries
        assert skipped == (1 if keep else 0)

    def test_recover_skips_torn_record(self):
        device = PMDevice(SIZE, track_stores=True)
        fs = WineFS(device, num_cpus=2, track_data=True)
        ctx = make_context(2)
        fs.mkfs(ctx)
        journal = fs.journal.journals[0]
        # a valid entry in slot 1, garbage (failing CRC) in slot 0
        device.persist(journal.base, b"\x02" + b"\xff" * (ENTRY_BYTES - 1))
        device.persist(journal.base + ENTRY_BYTES,
                       JournalEntry(TYPE_DATA, 1, 3, 0x4000,
                                    b"old").pack())
        fs.journal.recover()
        assert fs.journal.skipped_records == 1


class TestLatency:
    def test_latency_spike_slows_without_changing_results(self):
        def run(plan):
            fs, ctx, _device = _winefs(plan=plan)
            fs.write_file("/f", b"q" * 50_000, ctx)
            data = fs.read_file("/f", ctx)
            return max(ctx.clock._cpu_ns), data

        slow_plan = FaultPlan(specs=[
            FaultSpec("latency", at_op=0, count=10 ** 6,
                      latency_mult=8.0)])
        base_ns, base_data = run(None)
        slow_ns, slow_data = run(slow_plan)
        assert slow_data == base_data
        assert slow_ns > base_ns
        assert slow_plan.count("latency", "injected") > 0


class TestEnospc:
    def test_injected_enospc_then_recovers(self):
        fs, ctx, _device = _winefs()
        fs.create("/f", ctx).close()
        plan = FaultPlan(specs=[FaultSpec("enospc", at_op=0, count=1)])
        fs.attach_fault_plan(plan)
        f = fs.open("/f", ctx)
        with pytest.raises(NoSpaceError) as exc:
            f.append(b"a" * 4096, ctx)
        assert exc.value.errno_name == "ENOSPC"
        # one-shot: the next attempt succeeds, fs never degraded
        f.append(b"a" * 4096, ctx)
        f.close()
        assert not fs.read_only
        assert fs.read_file("/f", ctx)[-10:] == b"a" * 10
        assert plan.count("enospc", "surfaced") == 1


class TestWriteErrors:
    def test_in_place_write_relocates_and_masks(self):
        fs, ctx, _device = _winefs(mode="relaxed")
        fs.write_file("/f", b"0" * (4 * BLOCK_SIZE), ctx)
        ino = fs.getattr("/f").ino
        bad = fs.file_extents(ino).physical_block(1)
        plan = FaultPlan(specs=[
            FaultSpec("write_error", blocks=(bad,), count=1)])
        fs.attach_fault_plan(plan)
        f = fs.open("/f", ctx)
        f.pwrite(BLOCK_SIZE, b"N" * BLOCK_SIZE, ctx)    # in-place, relaxed
        f.close()
        assert plan.count("write_error", "masked") == 1
        # the logical block moved off the bad physical block...
        assert fs.file_extents(ino).physical_block(1) != bad
        assert bad in fs.quarantined
        # ...and both the new data and the surrounding blocks are intact
        data = fs.read_file("/f", ctx)
        assert data == b"0" * BLOCK_SIZE + b"N" * BLOCK_SIZE \
            + b"0" * (2 * BLOCK_SIZE)
        assert not fs.read_only

    def test_cow_write_avoids_bad_destination(self):
        fs, ctx, _device = _winefs(mode="strict")
        fs.write_file("/f", b"0" * (4 * BLOCK_SIZE), ctx)
        plan = FaultPlan(specs=[FaultSpec("write_error", count=1)])
        fs.attach_fault_plan(plan)                      # wildcard, one shot
        f = fs.open("/f", ctx)
        f.pwrite(BLOCK_SIZE, b"N" * BLOCK_SIZE, ctx)    # CoW path
        f.close()
        assert plan.count("write_error", "masked") == 1
        assert fs.quarantined
        data = fs.read_file("/f", ctx)
        assert data[BLOCK_SIZE:2 * BLOCK_SIZE] == b"N" * BLOCK_SIZE

    def test_unlimited_write_errors_surface_after_retries(self):
        fs, ctx, _device = _winefs(mode="relaxed")
        fs.write_file("/f", b"0" * (2 * BLOCK_SIZE), ctx)
        plan = FaultPlan(specs=[FaultSpec("write_error", count=0)])
        fs.attach_fault_plan(plan)                      # wildcard, unlimited
        f = fs.open("/f", ctx)
        with pytest.raises(MediaError) as exc:
            f.pwrite(0, b"N" * BLOCK_SIZE, ctx)
        assert exc.value.errno_name == "EIO"
        assert plan.count("write_error", "masked") == MAX_WRITE_RETRIES
        assert plan.count("write_error", "surfaced") == 1
        assert not fs.read_only                         # data path: no degrade


class TestObservability:
    def test_every_kind_traces_as_fault_dot_kind(self):
        """One plan fires each kind once with tracing on: every event
        :meth:`FaultPlan.note` records is one ``fault.<kind>`` record,
        so a trace reader finds all five kinds under one prefix."""
        device = PMDevice(MIB)
        plan = FaultPlan(specs=[
            FaultSpec("poison", addr=0, length=64),
            FaultSpec("torn_store", at_op=1),
            FaultSpec("latency", at_op=2, count=1, latency_mult=4.0),
            FaultSpec("enospc", at_op=0, count=1),
            FaultSpec("write_error", blocks=(7,), count=1)])
        device.set_fault_plan(plan)
        ctx = make_context(1, trace=Tracer())
        with pytest.raises(MediaError):
            device.load(0, 64, ctx)                     # device op 0
        device.store(BLOCK_SIZE, b"t" * 64, ctx)        # op 1: torn
        device.store(2 * BLOCK_SIZE, b"l" * 64, ctx)    # op 2: slowed
        assert plan.take_enospc(ctx)
        assert plan.failing_block([6, 7], ctx) == 7
        fired = {kind for kind, _outcome in plan.counts}
        assert fired == set(FAULT_KINDS)
        assert {span.name for span in ctx.trace.spans()} \
            == {f"fault.{kind}" for kind in fired}

    def test_fault_report_text(self):
        plan = FaultPlan(specs=[FaultSpec("enospc", at_op=0)])
        plan.take_enospc()
        assert fault_table(plan, title="demo").render().splitlines() == [
            "demo",
            "kind    injected  masked  surfaced",
            "----------------------------------",
            "enospc  1         0       1"]
        # an empty ledger is a header and no rows
        assert fault_table(FaultPlan()).render().splitlines() == [
            "Fault report",
            "kind  injected  masked  surfaced",
            "--------------------------------"]

    def test_every_kind_has_a_documented_errno(self):
        # the degradation ladder's errno table (DESIGN.md "Fault model")
        assert MediaError("x").errno_name == "EIO"
        assert ChecksumError("x").errno_name == "EUCLEAN"
        assert NoSpaceError("x").errno_name == "ENOSPC"
        assert ReadOnlyError("x").errno_name == "EROFS"
        assert set(FAULT_KINDS) == {"poison", "torn_store", "latency",
                                    "enospc", "write_error"}
