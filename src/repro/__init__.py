"""repro: a reproduction of WineFS (Kadekodi et al., SOSP 2021).

A hugepage-aware persistent-memory file system, its six baseline file
systems, and the paper's full evaluation, implemented on a simulated PM
machine (device, MMU/TLB, VFS) because the original is a Linux kernel
module tied to Optane hardware.

Quick start::

    from repro import make_machine, WineFS

    machine = make_machine(size_gib=1, num_cpus=4)
    fs = WineFS(machine.device, num_cpus=4)
    fs.mkfs(machine.ctx)
    f = fs.create("/data", machine.ctx)
    f.append(b"hello persistent world", machine.ctx)
    region = f.mmap(machine.ctx)

See README.md and DESIGN.md at the repository root.
"""

from dataclasses import dataclass

from .clock import EventCounters, SimClock, SimContext, make_context
from .obs import (NULL_TRACER, Tracer, chrome_trace, write_chrome_trace,
                  write_metrics_json, write_span_jsonl)
from .params import DEFAULT_MACHINE, GIB, HUGE_PAGE, KIB, MIB, MachineParams
from .pm.device import PMDevice
from .core.filesystem import WineFS
from .fs import Ext4DAX, NovaFS, PMFS, SplitFS, StrataFS, XfsDAX

__version__ = "1.0.0"


@dataclass
class Machine:
    """A bundled simulated machine: device + clock context."""

    device: PMDevice
    ctx: SimContext

    @property
    def elapsed_ns(self) -> float:
        return self.ctx.clock.elapsed


def make_machine(size_gib: float = 1.0, num_cpus: int = 4,
                 track_stores: bool = False,
                 machine_params: MachineParams = DEFAULT_MACHINE) -> Machine:
    """Build a simulated PM machine for examples and tests."""
    size = int(size_gib * GIB)
    size -= size % HUGE_PAGE
    device = PMDevice(size, machine_params, track_stores=track_stores)
    return Machine(device=device, ctx=make_context(num_cpus=num_cpus))


__all__ = [
    "Machine", "make_machine", "make_context",
    "SimClock", "SimContext", "EventCounters",
    "NULL_TRACER", "Tracer", "chrome_trace",
    "write_chrome_trace", "write_metrics_json", "write_span_jsonl",
    "MachineParams", "DEFAULT_MACHINE", "PMDevice",
    "WineFS", "Ext4DAX", "NovaFS", "PMFS", "XfsDAX", "SplitFS", "StrataFS",
    "KIB", "MIB", "GIB", "HUGE_PAGE",
]
