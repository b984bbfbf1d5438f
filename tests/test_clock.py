"""Tests for the simulated-time substrate (clock, locks, counters)."""

import pytest

from repro.clock import (EventCounters, LockManager, SimClock, SimContext,
                         make_context)
from repro.errors import SimulationError


class TestSimClock:
    def test_charge_advances_one_cpu(self):
        clock = SimClock(4)
        clock.charge(1, 100.0)
        assert clock.now(1) == 100.0
        assert clock.now(0) == 0.0

    def test_elapsed_is_makespan(self):
        clock = SimClock(4)
        clock.charge(0, 50.0)
        clock.charge(2, 200.0)
        assert clock.elapsed == 200.0

    def test_total_cpu_time_sums(self):
        clock = SimClock(2)
        clock.charge(0, 10.0)
        clock.charge(1, 20.0)
        assert sum(clock.snapshot()) == 30.0

    def test_negative_charge_rejected(self):
        clock = SimClock(1)
        with pytest.raises(SimulationError):
            clock.charge(0, -1.0)

    def test_advance_to_never_goes_backwards(self):
        clock = SimClock(1)
        clock.charge(0, 100.0)
        clock.advance_to(0, 50.0)
        assert clock.now(0) == 100.0
        clock.advance_to(0, 150.0)
        assert clock.now(0) == 150.0

    def test_zero_cpus_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(0)

    def test_reset(self):
        clock = SimClock(2)
        clock.charge(0, 5.0)
        clock.reset()
        assert clock.elapsed == 0.0

    def test_snapshot_is_copy(self):
        clock = SimClock(2)
        snap = clock.snapshot()
        snap[0] = 99.0
        assert clock.now(0) == 0.0


class TestLockManager:
    def test_uncontended_acquire_costs_nothing(self):
        clock = SimClock(2)
        locks = LockManager(clock)
        locks.acquire("L", 0)
        locks.release("L", 0)
        assert clock.now(0) == 0.0
        assert locks.contended_waits == 0

    def test_contended_acquire_waits(self):
        clock = SimClock(2)
        locks = LockManager(clock)
        locks.acquire("L", 0)
        clock.charge(0, 100.0)     # hold for 100ns
        locks.release("L", 0)
        locks.acquire("L", 1)      # cpu1 at t=0 must wait until t=100
        assert clock.now(1) == 100.0
        assert locks.contended_waits == 1

    def test_different_locks_do_not_interact(self):
        clock = SimClock(2)
        locks = LockManager(clock)
        locks.acquire("A", 0)
        clock.charge(0, 100.0)
        locks.release("A", 0)
        locks.acquire("B", 1)
        assert clock.now(1) == 0.0

    def test_holding_reports_owner(self):
        clock = SimClock(2)
        locks = LockManager(clock)
        locks.acquire("L", 1)
        assert locks._holder.get("L") == 1
        locks.release("L", 1)
        assert locks._holder == {}      # released locks leave no entry

    def test_forget_drops_only_the_freed_name(self):
        clock = SimClock(2)
        locks = LockManager(clock)
        for name in ("ino:7g1", "ino:8g2"):
            locks.acquire(name, 0)
            clock.charge(0, 100.0)
            locks.release(name, 0)
        locks.forget("ino:7g1")
        locks.forget("ino:7g1")         # idempotent
        locks.forget("never-taken")
        assert list(locks._free_at) == ["ino:8g2"]
        locks.acquire("ino:8g2", 1)     # the live lock still makes cpu 1 wait
        assert clock.now(1) == 200.0
        assert locks.contended_waits == 1

    def test_atomic_uncontended_charges_hold(self):
        clock = SimClock(2)
        locks = LockManager(clock)
        locks.atomic("J", 0, 30.0)
        assert clock.now(0) == 30.0

    def test_atomic_saturates_at_capacity(self):
        # demand above 1/hold: the busy horizon outruns the clocks
        clock = SimClock(4)
        locks = LockManager(clock)
        for _ in range(100):
            for cpu in range(4):
                locks.atomic("J", cpu, 50.0)
        # total serial demand = 400 * 50 = 20000ns; per-CPU clock must be
        # at least demand/num_cpus if perfectly parallel, but the serial
        # resource forces the makespan toward the full 20000ns
        assert clock.elapsed >= 0.8 * 400 * 50.0

    def test_atomic_light_load_no_waits(self):
        clock = SimClock(4)
        locks = LockManager(clock)
        for cpu in range(4):
            clock.charge(cpu, 10000.0)   # lots of other work
            locks.atomic("J", cpu, 10.0)
        assert locks.contended_waits == 0

    def test_atomic_negative_hold_rejected(self):
        clock = SimClock(1)
        locks = LockManager(clock)
        with pytest.raises(SimulationError):
            locks.atomic("J", 0, -5.0)


class TestEventCounters:
    def test_page_faults_totals(self):
        c = EventCounters(page_faults_4k=10, page_faults_2m=2)
        assert c.page_faults == 12

    def test_merged_with(self):
        a = EventCounters(tlb_misses=3, pm_bytes_read=100)
        b = EventCounters(tlb_misses=4, pm_bytes_written=7)
        m = a.merged_with(b)
        assert m.tlb_misses == 7
        assert m.pm_bytes_read == 100
        assert m.pm_bytes_written == 7

    def test_merged_with_covers_every_field(self):
        # a merge must carry every counter field, not just the common ones
        a = EventCounters(**{f: i + 1
                             for i, f in enumerate(EventCounters._fields)})
        b = EventCounters(**{f: 10 * (i + 1)
                             for i, f in enumerate(EventCounters._fields)})
        m = a.merged_with(b)
        for i, f in enumerate(EventCounters._fields):
            assert getattr(m, f) == 11 * (i + 1), f
        # the originals are untouched
        for i, f in enumerate(EventCounters._fields):
            assert getattr(a, f) == i + 1
            assert getattr(b, f) == 10 * (i + 1)

    def test_page_faults_property_after_merge(self):
        # regression: page_faults must stay 4k + 2m on the merged object
        a = EventCounters(page_faults_4k=3, page_faults_2m=1)
        b = EventCounters(page_faults_4k=7, page_faults_2m=4)
        m = a.merged_with(b)
        assert m.page_faults_4k == 10
        assert m.page_faults_2m == 5
        assert m.page_faults == m.page_faults_4k + m.page_faults_2m == 15

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            EventCounters(nonsense=1)

    def test_misspelled_field_raises(self):
        # a typo'd counter write must fail loudly, not grow a new field
        c = EventCounters()
        with pytest.raises(AttributeError):
            c.tlb_mises = 1
        assert c.as_dict() == EventCounters().as_dict()

    def test_reset_zeroes_every_field_as_int(self):
        c = EventCounters(page_faults_2m=6, lock_wait_ns=12.5)
        c.add_repeat("fault_ns", 0.1, 3)
        c.reset()
        d = c.as_dict()
        assert list(d) == list(EventCounters._fields)
        assert all(type(v) is int and v == 0 for v in d.values())

    def test_add_repeat_is_sequential_adds(self):
        c = EventCounters()
        c.add_repeat("copy_ns", 0.1, 7)
        v = 0
        for _ in range(7):
            v += 0.1
        assert c.copy_ns == v

    def test_equality_compares_values(self):
        assert EventCounters(syscalls=2) == EventCounters(syscalls=2)
        assert EventCounters(syscalls=2) != EventCounters(syscalls=3)


class TestSimContext:
    def test_make_context(self):
        ctx = make_context(4, cpu=2)
        assert ctx.cpu == 2
        ctx.charge(10)
        assert ctx.now == 10

    def test_on_cpu_shares_state(self):
        ctx = make_context(4)
        other = ctx.on_cpu(3)
        other.charge(5)
        assert ctx.clock.now(3) == 5
        assert other.counters is ctx.counters
        assert other.locks is ctx.locks

    def test_bad_cpu_rejected(self):
        ctx = make_context(2)
        with pytest.raises(SimulationError):
            ctx.on_cpu(5)

    def test_lock_manager_default_factory(self):
        # SimContext builds its own LockManager and binds it to the clock
        ctx = SimContext(clock=SimClock(2))
        ctx.locks.acquire("L", 0)
        ctx.charge(50.0)
        ctx.locks.release("L", 0)
        ctx.on_cpu(1).locks.acquire("L", 1)
        assert ctx.clock.now(1) == 50.0

    def test_unbound_lock_manager_rejected(self):
        with pytest.raises(SimulationError):
            LockManager().acquire("L", 0)

    def test_bind_is_idempotent(self):
        first = SimClock(1)
        locks = LockManager(first)
        locks.bind(SimClock(1))
        assert locks._clock is first

    def test_contention_feeds_lock_wait_counter(self):
        ctx = make_context(2)
        ctx.locks.acquire("L", 0)
        ctx.charge(100.0)
        ctx.locks.release("L", 0)
        ctx.on_cpu(1).locks.acquire("L", 1)
        assert ctx.counters.lock_wait_ns == 100.0
