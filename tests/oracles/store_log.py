"""The store log of a store-tracking :class:`~repro.pm.device.PMDevice`,
read back as one record per store: what the tests inspect to see which
stores a crash could still lose.  The device keeps the log as columns
and never builds these records itself."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import PMError


@dataclass(frozen=True)
class StoreRecord:
    """One logged store: bytes written to [addr, addr+len) at seq order."""

    seq: int
    addr: int
    data: bytes
    flushed: bool = False   # a clwb has been issued for this store's lines


def in_flight_stores(device) -> List[StoreRecord]:
    """Stores that are not yet guaranteed durable (no fence covers them)."""
    if not device.track_stores:
        raise PMError("store tracking is disabled on this device")
    return [StoreRecord(seq, addr, data, flushed=bool(fl))
            for seq, addr, data, fl in
            zip(device._log_seqs, device._log_addrs, device._log_data,
                device._log_flushed)]
