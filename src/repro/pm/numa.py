"""NUMA topology model.

The paper (§3.6, "Minimizing remote NUMA accesses") observes that remote PM
*writes* are much more expensive than remote reads, and WineFS therefore
routes writes to a process's "home" NUMA node.  This module models the
topology: which CPUs and which PM address ranges belong to which socket,
and whether an access from a CPU to an address is remote.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import SimulationError


@dataclass(frozen=True)
class NumaTopology:
    """Evenly interleaves CPUs and the PM address space across sockets.

    With ``nodes == 1`` (the paper's evaluation default, §5.1 disables NUMA
    awareness) every access is local.
    """

    num_cpus: int
    nodes: int
    pm_bytes: int

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise SimulationError("need at least one NUMA node")
        if self.num_cpus % self.nodes:
            raise SimulationError("CPUs must divide evenly across nodes")
        if self.pm_bytes % self.nodes:
            raise SimulationError("PM size must divide evenly across nodes")

    @property
    def cpus_per_node(self) -> int:
        return self.num_cpus // self.nodes

    @property
    def bytes_per_node(self) -> int:
        return self.pm_bytes // self.nodes

    def node_of_cpu(self, cpu: int) -> int:
        if not 0 <= cpu < self.num_cpus:
            raise SimulationError(f"cpu {cpu} out of range")
        return cpu // self.cpus_per_node

    def node_of_addr(self, addr: int) -> int:
        if not 0 <= addr < self.pm_bytes:
            raise SimulationError(f"PM address {addr:#x} out of range")
        return addr // self.bytes_per_node

    def cpus_of_node(self, node: int) -> List[int]:
        if not 0 <= node < self.nodes:
            raise SimulationError(f"node {node} out of range")
        start = node * self.cpus_per_node
        return list(range(start, start + self.cpus_per_node))

    def is_remote(self, cpu: int, addr: int) -> bool:
        return self.node_of_cpu(cpu) != self.node_of_addr(addr)
