"""Deterministic PM fault injection (``repro.faults``).

A :class:`FaultPlan` is a seed-driven, JSON-serializable schedule of
failures injected at the :class:`~repro.pm.device.PMDevice` layer and
in WineFS's block allocator (:class:`~repro.core.filesystem.WineFS`):

* ``poison``      — uncorrectable media errors on cachelines (loads raise
  :class:`~repro.errors.MediaError`; a full-line overwrite heals the line);
* ``torn_store``  — a store at a chosen crash point lands only an
  8-byte-granular prefix (journal checksums catch the tear);
* ``latency``     — transient load/store latency spikes over an op window;
* ``enospc``      — allocator space exhaustion on chosen allocations;
* ``write_error`` — block writes to chosen (or all) physical blocks fail,
  exercising the bounded retry-with-relocation path in WineFS.

Injection is **default-off and bit-identical-off**: a device without a
plan (or with an empty plan) takes exactly the code paths and float-add
sequences it does on current main.  The degradation responses live in the
layers themselves (journal, filesystem, allocator, vfs); this package only
decides *when* a fault fires and counts what happened to it.
"""

from .campaign import campaign_plan, crash_plan, serve_campaign_plan
from .plan import (FAULT_KINDS, FaultPlan, FaultSpec, MAX_WRITE_RETRIES)

__all__ = ["FAULT_KINDS", "FaultPlan", "FaultSpec", "MAX_WRITE_RETRIES",
           "campaign_plan", "crash_plan", "serve_campaign_plan"]
