"""NUMA policy tests (paper §3.6 "Minimizing remote NUMA accesses")."""

import pytest

from repro.clock import make_context
from repro.core.filesystem import WineFS
from repro.core.numa_policy import NumaPolicy
from repro.errors import SimulationError
from repro.params import MIB
from repro.pm.device import PMDevice
from repro.pm.numa import NumaTopology


def _policy(free_per_node=None):
    topo = NumaTopology(num_cpus=4, nodes=2, pm_bytes=64 * MIB)
    free = free_per_node if free_per_node is not None else {0: 100, 1: 200}
    return NumaPolicy(topo, lambda node: free[node]), free


class TestHomeNode:
    def test_home_assigned_on_first_write(self):
        policy, _ = _policy()
        ctx = make_context(4, cpu=0)
        assert policy.home_of(1) is None
        policy.cpu_for_write(1, ctx)
        # node 1 has more free space -> becomes home
        assert policy.home_of(1) == 1

    def test_write_routed_to_home_cpu(self):
        policy, _ = _policy()
        ctx = make_context(4, cpu=0)     # cpu0 lives on node 0
        cpu = policy.cpu_for_write(1, ctx)
        # the returned CPU belongs to the home node (node 1 => cpus 2,3)
        assert cpu in (2, 3)

    def test_no_migration_when_local(self):
        policy, _ = _policy(free_per_node={0: 500, 1: 100})
        ctx = make_context(4, cpu=0)     # node 0 is the home
        cpu = policy.cpu_for_write(1, ctx)
        assert cpu == 0
        assert policy.migrations_of(1) == 0

    def test_home_switches_when_full(self):
        free = {0: 500, 1: 100}
        policy, _ = _policy(free_per_node=free)
        ctx = make_context(4, cpu=0)
        policy.cpu_for_write(1, ctx)
        assert policy.home_of(1) == 0
        free[0] = 0                      # home ran out of space
        policy.cpu_for_write(1, ctx)
        assert policy.home_of(1) == 1

    def test_children_inherit_home(self):
        policy, _ = _policy()
        ctx = make_context(4, cpu=0)
        policy.cpu_for_write(1, ctx)
        policy.register_process(2, parent_pid=1)
        assert policy.home_of(2) == policy.home_of(1)

    def test_duplicate_pid_rejected(self):
        policy, _ = _policy()
        policy.register_process(7)
        with pytest.raises(SimulationError):
            policy.register_process(7)


class TestWineFSNuma:
    def test_numa_winefs_mounts(self):
        topo = NumaTopology(num_cpus=4, nodes=2, pm_bytes=256 * MIB)
        device = PMDevice(256 * MIB, topology=topo)
        fs = WineFS(device, num_cpus=4)
        ctx = make_context(4)
        fs.mkfs(ctx)
        assert fs.numa_policy is not None
        f = fs.create("/f", ctx)
        f.append(b"numa data", ctx)
        assert fs.read_file("/f", ctx) == b"numa data"

    def test_single_node_has_no_policy(self):
        device = PMDevice(256 * MIB)
        fs = WineFS(device, num_cpus=4)
        assert fs.numa_policy is None

    def test_free_space_per_node_tracked(self):
        topo = NumaTopology(num_cpus=4, nodes=2, pm_bytes=256 * MIB)
        device = PMDevice(256 * MIB, topology=topo)
        fs = WineFS(device, num_cpus=4)
        ctx = make_context(4)
        fs.mkfs(ctx)
        total = sum(fs._free_space_of_node(n) for n in range(2))
        assert total == fs.statfs().free_blocks
