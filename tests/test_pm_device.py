"""PM device tests: data path, persistence semantics, crash images."""

import pytest

from repro.clock import make_context
from repro.errors import PMError
from repro.params import CACHELINE, MIB
from repro.pm.device import PMDevice
from repro.pm.numa import NumaTopology


class TestDataPath:
    def test_store_load_roundtrip(self):
        dev = PMDevice(1 * MIB)
        dev.store(100, b"hello")
        assert dev.load(100, 5) == b"hello"

    def test_unwritten_reads_zero(self):
        dev = PMDevice(1 * MIB)
        assert dev.load(0, 8) == b"\x00" * 8

    def test_cross_page_write(self):
        dev = PMDevice(1 * MIB)
        data = bytes(range(256)) * 40
        dev.store(4096 - 100, data)
        assert dev.load(4096 - 100, len(data)) == data

    def test_out_of_range_rejected(self):
        dev = PMDevice(1 * MIB)
        with pytest.raises(PMError):
            dev.load(1 * MIB - 2, 4)
        with pytest.raises(PMError):
            dev.store(-1, b"x")

    def test_bad_size_rejected(self):
        with pytest.raises(PMError):
            PMDevice(1000)    # not a page multiple
        with pytest.raises(PMError):
            PMDevice(0)

    def test_costs_charged(self):
        dev = PMDevice(1 * MIB)
        ctx = make_context(1)
        dev.store(0, b"x" * 1024, ctx)
        assert ctx.now > 0
        assert ctx.counters.pm_bytes_written == 1024
        before = ctx.now
        dev.load(0, 1024, ctx)
        assert ctx.now > before
        assert ctx.counters.pm_bytes_read == 1024

    def test_sparse_materialization(self):
        dev = PMDevice(64 * MIB)
        assert dev.materialized_bytes == 0
        dev.store(0, b"x")
        assert dev.materialized_bytes == 4096


class TestPersistence:
    def test_unfenced_store_is_in_flight(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"abc")
        assert len(dev.in_flight_stores()) == 1

    def test_fence_without_flush_leaves_in_flight(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"abc")
        dev.sfence()
        assert len(dev.in_flight_stores()) == 1

    def test_flush_plus_fence_makes_durable(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"abc")
        dev.clwb(0, 3)
        dev.sfence()
        assert dev.in_flight_stores() == []

    def test_persist_shorthand(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(64, b"durable")
        assert dev.in_flight_stores() == []

    def test_crash_image_drops_unfenced(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(0, b"old")
        dev.store(0, b"new")
        img = dev.crash_image()
        assert img.load(0, 3) == b"old"

    def test_crash_image_subset_survives(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(0, b"AAAA")
        dev.store(0, b"B")       # seq n
        dev.store(2, b"C")       # seq n+1
        flights = dev.in_flight_stores()
        img = dev.crash_image([flights[1].seq])
        assert img.load(0, 4) == b"AACA"

    def test_crash_image_unknown_seq_rejected(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        with pytest.raises(PMError):
            dev.crash_image([12345])

    def test_crash_image_requires_tracking(self):
        dev = PMDevice(1 * MIB)
        with pytest.raises(PMError):
            dev.crash_image()

    def test_drain_makes_everything_durable(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.store(0, b"x" * 200)
        dev.drain()
        assert dev.in_flight_stores() == []
        assert dev.crash_image().load(0, 200) == b"x" * 200

    def test_crash_image_after_drain_equals_the_volatile_image(self):
        """drain() writes back exactly the records no clwb has covered:
        whatever state a store was left in, it is durable afterwards."""
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(0, b"f" * 100)                  # already fenced
        dev.store(4096, b"u" * 300)                 # never flushed
        dev.store(8192, b"p" * 300)                 # partly flushed: one of
        dev.clwb(8192, 64)                          # its five lines
        dev.store(12288, b"w" * 70)                 # flushed, never fenced
        dev.clwb(12288, 70)
        dev.store(4096 + 64, b"o" * 64)             # overlaps an older store
        assert len(dev.in_flight_stores()) == 4
        assert dev.crash_image().load(4096, 300) == bytes(300)
        dev.drain()
        assert dev.in_flight_stores() == []
        assert dev.crash_image().load(0, 16384) == dev.load(0, 16384)
        assert dev.load(4096, 300) == b"u" * 64 + b"o" * 64 + b"u" * 172
        # and a later store starts from a clean log
        dev.store(0, b"z")
        assert [r.addr for r in dev.in_flight_stores()] == [0]

    def test_clone_independent(self):
        dev = PMDevice(1 * MIB)
        dev.store(0, b"one")
        clone = dev.clone()
        dev.store(0, b"two")
        assert clone.load(0, 3) == b"one"


class TestEpochCapture:
    def test_capture_groups_by_fence(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.start_capture()
        dev.persist(0, b"A")     # epoch 0
        dev.persist(64, b"B")    # epoch 1
        dev.store(128, b"C")     # never fenced
        groups = dev.end_capture()
        assert len(groups) == 3
        assert groups[0][0] == 0 and len(groups[0][1]) == 1
        assert groups[1][0] == 1
        assert groups[2][0] is None

    def test_capture_crash_image_before_epoch(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.persist(0, b"base")
        dev.start_capture()
        dev.persist(0, b"new1")
        dev.persist(0, b"new2")
        # crash before epoch 0 retired, nothing survives -> base state
        img = dev.capture_crash_image(0, [])
        assert img.load(0, 4) == b"base"
        # crash before epoch 1: epoch-0 store durable
        img = dev.capture_crash_image(1, [])
        assert img.load(0, 4) == b"new1"
        # final crash point: both fenced epochs durable
        img = dev.capture_crash_image(None, [])
        assert img.load(0, 4) == b"new2"

    def test_capture_survivor_subset(self):
        dev = PMDevice(1 * MIB, track_stores=True)
        dev.start_capture()
        dev.store(0, b"X")
        dev.store(1, b"Y")
        dev.clwb(0, 2)
        dev.sfence()
        groups = dev.end_capture()
        epoch, seqs = groups[0]
        img = dev.capture_crash_image(epoch, [seqs[1]])
        assert img.load(0, 2) == b"\x00Y"

    def test_capture_requires_tracking(self):
        dev = PMDevice(1 * MIB)
        with pytest.raises(PMError):
            dev.start_capture()


class TestNuma:
    def test_topology_validation(self):
        with pytest.raises(Exception):
            NumaTopology(num_cpus=3, nodes=2, pm_bytes=1 * MIB)

    def test_node_mapping(self):
        topo = NumaTopology(num_cpus=4, nodes=2, pm_bytes=2 * MIB)
        assert topo.node_of_cpu(0) == 0
        assert topo.node_of_cpu(3) == 1
        assert topo.node_of_addr(0) == 0
        assert topo.node_of_addr(1 * MIB) == 1
        assert topo.is_remote(0, 1 * MIB)
        assert not topo.is_remote(3, 1 * MIB)

    def test_remote_write_costs_more(self):
        topo = NumaTopology(num_cpus=2, nodes=2, pm_bytes=2 * MIB)
        dev = PMDevice(2 * MIB, topology=topo)
        local = make_context(2, cpu=0)
        remote = make_context(2, cpu=0)
        dev.store(0, b"x" * 4096, local)            # node 0, local
        dev.store(1 * MIB, b"x" * 4096, remote)     # node 1, remote
        assert remote.now > local.now
