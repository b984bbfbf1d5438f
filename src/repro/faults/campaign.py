"""Seeded fault campaigns for SLO reporting.

A *campaign* is the fault schedule behind ``repro slo``: a deterministic
mix of runtime faults (latency spikes, an allocator blip, a failing
block write) plus, for file systems that support degraded mounts, a
post-crash media scar that forces tolerant recovery to skip journal
records and remount read-only.  Everything derives from one integer
seed via :func:`repro.rng.make_rng`, so the same seed always produces
the same plan and therefore the same SLO report.

Two builders, matching the two phases of a campaign cell
(:func:`repro.harness.fleet.slo_cell`):

* :func:`campaign_plan` — runtime faults active while the workload runs;
* :func:`crash_plan` — the damage applied between a simulated crash and
  the remount (a poisoned journal head), which is what opens the
  degraded interval behind the campaign's MTTR.
"""

from __future__ import annotations

from ..rng import make_rng
from .plan import FaultPlan, FaultSpec

__all__ = ["campaign_plan", "crash_plan", "serve_campaign_plan"]

#: poisoned bytes at the journal head for :func:`crash_plan` (one
#: cacheline — enough to break the first record's checksum)
CRASH_SCAR_BYTES = 64


def campaign_plan(seed: int) -> FaultPlan:
    """Runtime fault mix for one campaign cell.

    The mix exercises every masked/surfaced path that feeds the error
    ledger without depending on the workload's exact op count:

    * two transient device latency windows (hit every file system);
    * one allocator ``enospc`` blip (surfaced as ENOSPC; inert on
      baselines, which never consult the allocator hook);
    * one failing block write (masked by WineFS's retry-with-relocation;
      inert on baselines).

    Placement and magnitude come from the campaign seed, so distinct
    seeds stress distinct op windows.
    """
    rng = make_rng(seed)
    specs = [
        FaultSpec("latency", at_op=50 + rng.randrange(0, 400),
                  count=150 + rng.randrange(0, 100),
                  latency_mult=float(2 + rng.randrange(0, 3))),
        FaultSpec("latency", at_op=1500 + rng.randrange(0, 1000),
                  count=250, latency_mult=4.0),
        FaultSpec("enospc", at_op=10 + rng.randrange(0, 30), count=1),
        FaultSpec("write_error", blocks=(), count=1),
    ]
    return FaultPlan(seed=seed, specs=specs)


def serve_campaign_plan(seed: int) -> FaultPlan:
    """Runtime fault mix for one *served* campaign cell.

    The service reaches the file system through mapped shards, so what
    the plan can meet is counted differently from :func:`campaign_plan`:
    a request is one or two device operations (a get is one load, a put
    its body and its commit word), and the allocator is called once per
    prepared shard — twice per tenant while a load warms up (the first
    rotation on the serving core, then its successor on the idle core),
    once per rotation after.  Hence:

    * two transient device latency windows, sized so service-class tail
      objectives survive while the ledger records them: the first opens
      within 140 device operations, which any load crosses, the second
      after 400-800, which a load of a few hundred requests reaches;
    * one allocator ``enospc`` blip, two calls wide, starting anywhere
      in a four-tenant warm-up (allocator calls 0-7).  Starting on a
      tenant's first rotation it outlasts the one retry that gives up
      the other tenants' idle successors, so that put is answered
      ENOSPC: an error response, and the tenant is rescanned.  Starting
      on a background prepare it costs that tenant its successor and
      the next rotation its first attempt — stalls, and no failed verb
      as long as some tenant holds a successor to give up.

    Nothing under the service takes the ``write(2)`` path, so there is
    no ``write_error``; a masked fault needs a poisoned line under free
    shard space, whose address only a caller that has mapped one knows.
    """
    rng = make_rng(seed, salt=1)
    specs = [
        FaultSpec("latency", at_op=20 + rng.randrange(0, 120),
                  count=100 + rng.randrange(0, 80),
                  latency_mult=float(2 + rng.randrange(0, 3))),
        FaultSpec("latency", at_op=400 + rng.randrange(0, 400),
                  count=150, latency_mult=3.0),
        FaultSpec("enospc", at_op=rng.randrange(0, 8), count=2),
    ]
    return FaultPlan(seed=seed, specs=specs)


def crash_plan(seed: int, journal_base: int,
               length: int = CRASH_SCAR_BYTES) -> FaultPlan:
    """Post-crash media damage for the remount phase.

    Poisons *length* bytes at *journal_base* (the head of CPU 0's
    journal, read from the pre-crash instance) so the tolerant journal
    scan on the next mount skips at least one record and the file
    system degrades to read-only — the deterministic trigger for a
    degraded interval.
    """
    return FaultPlan(seed=seed, specs=[
        FaultSpec("poison", addr=journal_base, length=length)])
