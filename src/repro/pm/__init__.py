"""Simulated persistent-memory device.

* :mod:`repro.pm.device` — the PM address space: sparse byte store, a
  persistence log of stores/flushes/fences for crash-state enumeration, and
  the latency/bandwidth cost model from :mod:`repro.params`.

The device is one socket's PM, with no remote-socket cost: the paper's
§5.1 evaluation runs on one socket with its §3.6 socket-awareness
disabled, and no experiment here measures a remote access.
"""

from .device import PMDevice

__all__ = ["PMDevice"]
