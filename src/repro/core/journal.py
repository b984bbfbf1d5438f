"""WineFS per-CPU fine-grained undo journals.

Per paper §3.5/§3.6:

* one journal per logical CPU; a transaction starts in the CPU's journal
  and stays there even if the thread migrates;
* each entry is one 64B cacheline, persisted immediately (all metadata
  operations are synchronous);
* entry types START / DATA / COMMIT; DATA entries hold *undo* images
  (address + old bytes) so uncommitted transactions roll back in place;
* transaction IDs come from one atomic counter shared by all per-CPU
  journals, so recovery can order rollbacks globally;
* every entry carries a CRC32 over its full cacheline, so recovery can
  tell a torn or media-corrupted record from a valid one and skip it
  (counted in :attr:`JournalManager.skipped_records`; the mounting file
  system degrades to read-only when the count is non-zero);
* a per-CPU wraparound counter distinguishes live entries from stale ones
  after the circular journal wraps;
* a transaction reserves its worst-case entries (<= 10, i.e. 640B) before
  starting and waits for reclaim if the journal is full — since operations
  are synchronous, committed space is reclaimed immediately.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..clock import SimContext
from ..errors import ChecksumError, CorruptionError, FSError, MediaError
from ..params import BLOCK_SIZE, CACHELINE
from ..pm.device import PMDevice
from .layout import Layout

ENTRY_BYTES = CACHELINE
TYPE_NONE = 0
TYPE_START = 1
TYPE_DATA = 2
TYPE_COMMIT = 3

#: entry header: type(1) pad(1) undo_len(2) wraparound(4) crc(4)
#: txn_id(8) addr(8).  The CRC32 covers the full 64B entry with the crc
#: field zeroed, so recovery detects torn 8-byte stores and bit rot.
_HEAD = struct.Struct("<BBHIIQQ")
_CRC_OFF = 8                                # byte offset of the crc field
UNDO_BYTES = ENTRY_BYTES - _HEAD.size      # 36B of undo payload per entry
MAX_TXN_ENTRIES = 10                        # §3.6: at most 10 entries / 640B
_EMPTY_ENTRY = bytes(ENTRY_BYTES)           # an erased slot


@dataclass(frozen=True)
class JournalEntry:
    etype: int
    wraparound: int
    txn_id: int
    addr: int
    undo: bytes

    def pack(self) -> bytes:
        if len(self.undo) > UNDO_BYTES:
            raise FSError("undo image exceeds one cacheline entry")
        head = _HEAD.pack(self.etype, 0, len(self.undo), self.wraparound,
                          0, self.txn_id, self.addr)
        raw = (head + self.undo).ljust(ENTRY_BYTES, b"\x00")
        crc = zlib.crc32(raw)
        return raw[:_CRC_OFF] + struct.pack("<I", crc) + raw[_CRC_OFF + 4:]

    @staticmethod
    def unpack(raw: bytes) -> Optional["JournalEntry"]:
        if len(raw) != ENTRY_BYTES:
            raise CorruptionError(
                f"journal entry of {len(raw)} bytes, not {ENTRY_BYTES}")
        etype, _pad, undo_len, wrap, crc, txn_id, addr = _HEAD.unpack(
            raw[:_HEAD.size])
        if etype == TYPE_NONE:
            return None
        if etype not in (TYPE_START, TYPE_DATA, TYPE_COMMIT):
            raise CorruptionError(f"bad journal entry type {etype}")
        if undo_len > UNDO_BYTES:
            raise CorruptionError("undo length overflows entry")
        if zlib.crc32(raw[:_CRC_OFF] + b"\x00\x00\x00\x00"
                      + raw[_CRC_OFF + 4:ENTRY_BYTES]) != crc:
            raise ChecksumError(
                f"journal entry checksum mismatch (txn {txn_id})")
        return JournalEntry(etype, wrap, txn_id, addr,
                            raw[_HEAD.size:_HEAD.size + undo_len])


class PerCPUJournal:
    """One circular journal region on PM."""

    def __init__(self, device: PMDevice, layout: Layout, cpu: int) -> None:
        self.device = device
        self.cpu = cpu
        self.base = layout.journal_start(cpu) * BLOCK_SIZE
        self.capacity = layout.journal_blocks * BLOCK_SIZE // ENTRY_BYTES
        self.head = 0            # next slot to write (DRAM cursor)
        self.tail = 0            # oldest un-reclaimed slot
        self.wraparound = 1      # starts at 1 so zeroed PM reads as stale
        # every entry is exactly one cacheline, so its persist cost is a
        # constant of the machine; computing it per append is pure waste
        self._entry_persist_ns = device.machine.persist_ns(ENTRY_BYTES)

    # -- space ----------------------------------------------------------------

    def _used(self) -> int:
        return self.head - self.tail

    def reserve(self, entries: int, ctx: SimContext) -> None:
        """Reserve worst-case space; waits (simulated) on a full journal."""
        if entries > MAX_TXN_ENTRIES:
            raise FSError(f"transaction needs {entries} > {MAX_TXN_ENTRIES} "
                          "entries")
        if self._used() + entries > self.capacity:
            # §3.6: "the thread waits till enough space is reclaimed".  All
            # our transactions are synchronous so reclaim is immediate; hit
            # this only on pathological misuse.
            self.tail = self.head

    def _slot_addr(self, slot: int) -> int:
        return self.base + (slot % self.capacity) * ENTRY_BYTES

    def append(self, etype: int, txn_id: int, ctx: SimContext,
               addr: int = 0, undo: bytes = b"") -> None:
        """Append one entry under the current wrap generation: the one
        place an entry is written.

        Only a tracked device can produce crash images, so only there are
        the bytes written, and uncharged: the cost is :meth:`append_run`'s
        on every device, so tracking stores never moves simulated time.
        """
        if self.device.track_stores:
            head = self.head
            wrap = self.wraparound + (head % self.capacity == 0 and head > 0)
            self.device.persist(self._slot_addr(head), JournalEntry(
                etype, wrap, txn_id, addr, undo).pack())
        self.append_run(1, ctx)

    def append_run(self, n: int, ctx: SimContext) -> None:
        """Advance the journal by *n* entries: the one place the cost of
        a journal entry is charged, and all of an entry on a fast device,
        whose journal bytes nobody can observe (clock and journal_ns adds
        stay per-entry because float addition does not regroup).
        """
        if n <= 0:
            return
        head = self.head
        cap = self.capacity
        pns = self._entry_persist_ns
        # inlined charge_repeat/add_repeat: same one-at-a-time adds on
        # locals (pns >= 0, n > 0), so the float results are bit-identical
        cell = ctx.clock._cpu_ns
        cpu = ctx.cpu
        counters = ctx.counters
        v = cell[cpu]
        jv = counters.journal_ns
        for _ in range(n):
            if head % cap == 0 and head > 0:
                self.wraparound += 1
            head += 1
            v += pns
            jv += pns
        self.head = head
        cell[cpu] = v
        counters.journal_ns = jv
        counters.pm_bytes_written += ENTRY_BYTES * n

    # -- recovery scan ----------------------------------------------------------

    def scan(self) -> Tuple[List[JournalEntry], int, List[int]]:
        """Read back every live entry in append order (oldest first), the
        number of slots skipped, and the slots that are not all zeros.

        Uses the wraparound counter to find the newest region: entries
        carry the wrap generation they were written under, so a slot whose
        generation is *newer* than its predecessor marks the write frontier.
        A slot whose load hits a poisoned line or whose record fails its
        checksum is skipped and counted instead of aborting recovery; it
        is not all zeros either, so an erase still overwrites it.
        """
        entries: List[Tuple[int, JournalEntry]] = []
        skipped = 0
        dirty: List[int] = []
        for slot in range(self.capacity):
            try:
                raw = self.device.load(self.base + slot * ENTRY_BYTES,
                                       ENTRY_BYTES)
                if raw == _EMPTY_ENTRY:
                    continue
                e = JournalEntry.unpack(raw)
            except (MediaError, CorruptionError):
                e = None
                skipped += 1
            dirty.append(slot)
            if e is not None:
                entries.append((slot, e))
        # order: higher wraparound generation is newer; within a
        # generation, slot order is append order
        entries.sort(key=lambda se: (se[1].wraparound, se[0]))
        return [e for _slot, e in entries], skipped, dirty


class _Transaction:
    """Handle for one open transaction; created via JournalManager.begin."""

    __slots__ = ("journal", "txn_id", "entries_used", "committed",
                 "_logged", "frees")

    def __init__(self, journal: PerCPUJournal, txn_id: int) -> None:
        self.journal = journal
        self.txn_id = txn_id
        self.entries_used = 1     # START
        self.committed = False
        self._logged: set = set()   # addresses already undo-logged this txn
        #: extents to free once committed: a rollback may still need them
        self.frees: list = []

    def log_undo(self, addr: int, ctx: SimContext,
                 length: int = UNDO_BYTES) -> None:
        """Record the current PM contents of ``[addr, addr + length)``.

        Call *before* updating the metadata in place; the area takes one
        DATA entry per ``UNDO_BYTES``.  An address is logged at most once
        per transaction (the first image is the one rollback needs).
        """
        if addr in self._logged:
            return
        if self.committed:
            raise FSError("transaction already committed")
        self._logged.add(addr)
        n = (length + UNDO_BYTES - 1) // UNDO_BYTES
        self.entries_used += n
        journal = self.journal
        if not journal.device.track_stores:
            # the undo images are unobservable on a fast device; only
            # their journal traffic matters
            journal.append_run(n, ctx)
            return
        old = journal.device.load(addr, length)
        for pos in range(0, length, UNDO_BYTES):
            journal.append(TYPE_DATA, self.txn_id, ctx, addr + pos,
                           old[pos:pos + UNDO_BYTES])

    def commit(self, ctx: SimContext) -> None:
        if self.committed:
            raise FSError("double commit")
        with ctx.trace.span(ctx, "journal.commit", txn=self.txn_id,
                            entries=self.entries_used):
            journal = self.journal
            journal.append(TYPE_COMMIT, self.txn_id, ctx)
            self.committed = True
            # synchronous ops are durable at commit: reclaim everything
            journal.tail = journal.head


class JournalManager:
    """All per-CPU journals plus the shared atomic transaction-ID counter."""

    def __init__(self, device: PMDevice, layout: Layout) -> None:
        self.device = device
        self.layout = layout
        self.journals = [PerCPUJournal(device, layout, cpu)
                         for cpu in range(layout.num_cpus)]
        self._next_txn_id = 1
        self.transactions_started = 0
        #: corrupt/poisoned records skipped by the last :meth:`recover`
        self.skipped_records = 0

    def begin(self, ctx: SimContext, entries_hint: int = MAX_TXN_ENTRIES
              ) -> _Transaction:
        """Start a transaction in the calling CPU's journal (§3.6: it stays
        in that journal even if the thread later migrates)."""
        with ctx.trace.span(ctx, "journal.begin", cpu=ctx.cpu):
            journal = self.journals[ctx.cpu % len(self.journals)]
            journal.reserve(entries_hint, ctx)
            txn_id = self._next_txn_id
            self._next_txn_id += 1
            self.transactions_started += 1
            journal.append(TYPE_START, txn_id, ctx)
            return _Transaction(journal, txn_id)

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> Tuple[int, int]:
        """Roll back uncommitted transactions across all journals.

        Returns (committed_seen, rolled_back).  Rollback applies undo
        images in reverse global-transaction-ID order (§3.6: "WineFS
        rolls-back journal entries across per-CPU journals based on the
        transaction ID order").

        Records that fail their checksum or sit on poisoned lines are
        skipped (graceful degradation), counted in
        :attr:`skipped_records`; the caller decides whether a non-zero
        count forces a read-only mount.  An undo record whose target
        range lies outside the device raises :class:`CorruptionError`
        before any undo is applied.
        """
        committed_ids = set()
        txn_entries = {}
        dirty_slots = []
        self.skipped_records = 0
        for journal in self.journals:
            entries, skipped, dirty = journal.scan()
            self.skipped_records += skipped
            dirty_slots.append(dirty)
            for entry in entries:
                if entry.etype == TYPE_COMMIT:
                    committed_ids.add(entry.txn_id)
                elif entry.etype == TYPE_DATA:
                    if entry.addr + len(entry.undo) > self.device.size:
                        raise CorruptionError(
                            f"undo record of txn {entry.txn_id} targets "
                            f"[{entry.addr:#x}, +{len(entry.undo)}) outside "
                            "the device")
                    txn_entries.setdefault(entry.txn_id, []).append(entry)
                elif entry.etype == TYPE_START:
                    txn_entries.setdefault(entry.txn_id, [])
        uncommitted = [tid for tid in txn_entries if tid not in committed_ids]
        for tid in sorted(uncommitted, reverse=True):
            for entry in reversed(txn_entries[tid]):
                self.device.persist(entry.addr, entry.undo)
        # journals restart clean after recovery: zero every slot the scan
        # did not find all zeros (the slots found so are already erased)
        for journal, dirty in zip(self.journals, dirty_slots):
            for slot in dirty:
                self.device.persist(journal.base + slot * ENTRY_BYTES,
                                    _EMPTY_ENTRY)
            journal.head = journal.tail = 0
            journal.wraparound += 1
        self._next_txn_id = max(list(committed_ids) + list(txn_entries) + [0]) + 1
        return len(committed_ids), len(uncommitted)
