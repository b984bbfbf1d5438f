"""The persistent-memory device.

Design
------
The device is a byte-addressable address space backed by a *sparse* store
(dict of 4KB pages): aging benches churn hundreds of gigabytes of
allocator metadata without ever materializing data pages, while correctness
tests read back exactly what they wrote.  A ``bytes`` write of any length
is held as a reference to the writer's immutable object, not copied, and a
read of exactly that object's span returns the object itself, so a mapped
application's payloads exist once on the host (see :class:`_SparsePages`).

Persistence semantics follow x86 + Optane: a ``store`` lands in the (volatile)
CPU cache; ``clwb`` schedules its cacheline for write-back; ``sfence`` orders
previously flushed lines, making them durable.  The device keeps an ordered
log of stores with flush/fence markers so the crash explorer
(:mod:`repro.crashmon`) can enumerate exactly the states CrashMonkey would:
persisted-prefix + any subset of in-flight (unfenced) stores.

Costs are charged to the :class:`~repro.clock.SimContext` of the caller using
the :class:`~repro.params.MachineParams` ratios.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..clock import SimContext
from ..errors import PMError
from ..params import CACHELINE, BASE_PAGE, DEFAULT_MACHINE, MachineParams

#: a page of the sparse store: materialized, or a tuple of segments
Page = Union[bytearray, tuple]


#: a page that would hold more segments than this is materialized: at
#: about 150 host bytes a segment (its tuple and ints), sixteen still
#: cost less than a 4 KiB buffer, and they bound the scan each write
#: into the page makes
_MAX_SEGMENTS = 16


def _materialize(page: tuple) -> bytearray:
    """The bytes a segment page stands for, as a new page buffer."""
    out = bytearray(BASE_PAGE)
    for off, obj, obj_off, n in page:
        out[off:off + n] = obj[obj_off:obj_off + n]
    return out


class _SparsePages:
    """Sparse byte store over the PM address space.

    A page is absent (it reads as zeros), *materialized* — a
    ``bytearray`` — or a *segment page*: an immutable tuple of
    ``(off, obj, obj_off, n)`` segments, each saying that the page's
    bytes [off, off+n) are ``obj[obj_off:obj_off+n]`` of a ``bytes``
    object a write stored.  Bytes no segment covers read as zero.

    - A ``bytes`` write into an absent or a segment page adds a segment
      and punches its range out of the segments it overlaps: an
      immutable payload is referenced, at any length, never copied.
    - A ``bytes`` write into a materialized page copies into it, except
      that a page the write covers in full becomes a one-segment page.
    - Any other source (a ``bytearray``, a buffer view) may change after
      the store returns: it materializes the page and is copied.
    - A page that would hold more than :data:`_MAX_SEGMENTS` segments is
      materialized.

    A read of exactly the span one object was written to returns that
    object while every page still holds all of it.
    """

    def __init__(self, size: int) -> None:
        self._size = size
        self._pages: Dict[int, Page] = {}
        # last page touched by a page-confined write that does not cover
        # it in full as ``bytes`` (inode slots and dir entries hammer the
        # same page): skips the dict probe on a hit.  ``_last_page`` is
        # always the object ``_pages[_last_no]`` holds.  Both are in the
        # snapshot stream, so when they move is part of the format.
        self._last_no = -1
        self._last_page: Optional[Page] = None

    def read(self, addr: int, length: int) -> bytes:
        pages = self._pages
        page_no, off = divmod(addr, BASE_PAGE)
        page = pages.get(page_no)
        if type(page) is tuple:
            # the span one object was written to: that object, if every
            # page still holds its bytes where the write put them
            for seg_off, obj, obj_off, n in page:
                if seg_off != off:
                    continue
                if obj_off == 0 and len(obj) == length:
                    pos, reach, later = n, off + n, page_no
                    while pos < length and reach == BASE_PAGE:
                        later += 1
                        reach = 0
                        following = pages.get(later)
                        if type(following) is tuple:
                            for seg in following:
                                if seg[0] == 0:
                                    if seg[1] is obj and seg[2] == pos:
                                        pos += seg[3]
                                        reach = seg[3]
                                    break
                    if pos == length:
                        return obj
                break
        out = bytearray(length)
        pos = 0
        while True:
            take = BASE_PAGE - off
            if take > length - pos:
                take = length - pos
            if type(page) is bytearray:
                out[pos:pos + take] = page[off:off + take]
            elif page is not None:
                end = off + take
                for seg_off, obj, obj_off, n in page:
                    lo = off if off > seg_off else seg_off
                    hi = seg_off + n
                    if hi > end:
                        hi = end
                    if lo < hi:
                        out[pos + lo - off:pos + hi - off] = \
                            obj[obj_off + lo - seg_off:obj_off + hi - seg_off]
            pos += take
            if pos >= length:
                return bytes(out)
            page_no += 1
            off = 0
            page = pages.get(page_no)

    def write(self, addr: int, data: bytes) -> None:
        length = len(data)
        page_no, off = divmod(addr, BASE_PAGE)
        immutable = type(data) is bytes
        # a write inside one page that does not cover it in full as
        # ``bytes`` goes through the single-page cache
        confined = off + length <= BASE_PAGE \
            and (length < BASE_PAGE or not immutable)
        if confined:
            if page_no == self._last_no:
                page = self._last_page
            else:
                page = self._pages.get(page_no)
            if type(page) is bytearray:
                # common case: inode slots, journal entries and indirect
                # blocks are page-confined writes into materialized pages
                page[off:off + length] = data
                self._last_no = page_no
                self._last_page = page
                return
        pages = self._pages
        pos = 0
        while True:
            take = BASE_PAGE - off
            if take > length - pos:
                take = length - pos
            if take == BASE_PAGE and immutable:
                pages[page_no] = ((0, data, pos, BASE_PAGE),)
                if page_no == self._last_no:
                    self._last_no = -1
                    self._last_page = None
            else:
                if not confined:
                    page = pages.get(page_no)
                if type(page) is bytearray:
                    page[off:off + take] = data[pos:pos + take]
                else:
                    if not immutable:
                        page = bytearray(BASE_PAGE) if page is None \
                            else _materialize(page)
                        page[off:off + take] = data[pos:pos + take]
                    elif page is None:
                        page = ((off, data, pos, take),)
                    else:
                        # the new segment, then the old ones with
                        # [off, end) cut out of them
                        end = off + take
                        segs = ((off, data, pos, take),)
                        count = 1
                        for seg in page:
                            seg_off, obj, obj_off, n = seg
                            if seg_off + n <= off or seg_off >= end:
                                segs += (seg,)
                                count += 1
                                continue
                            if seg_off < off:
                                segs += ((seg_off, obj, obj_off,
                                          off - seg_off),)
                                count += 1
                            if seg_off + n > end:
                                segs += ((end, obj, obj_off + end - seg_off,
                                          seg_off + n - end),)
                                count += 1
                        page = segs if count <= _MAX_SEGMENTS \
                            else _materialize(segs)
                    pages[page_no] = page
                    if page_no == self._last_no:
                        self._last_page = page
            pos += take
            if pos >= length:
                break
            page_no += 1
            off = 0
        if confined:
            self._last_no = page_no
            self._last_page = page

    def materialized_bytes(self) -> int:
        return len(self._pages) * BASE_PAGE

    def clone(self) -> "_SparsePages":
        """An independent copy with every page materialized."""
        out = _SparsePages(self._size)
        out._pages = {k: bytearray(v) if type(v) is bytearray
                      else _materialize(v) for k, v in self._pages.items()}
        return out


class PMDevice:
    """A simulated Optane PM module (or interleaved set of them).

    Parameters
    ----------
    size:
        Capacity in bytes; must be hugepage-aligned for the file systems.
    machine:
        Cost model; defaults to the paper-derived :data:`DEFAULT_MACHINE`.
    track_stores:
        When True, every store is logged for crash-state enumeration.  Off
        by default because aging benches issue millions of stores.
    faults:
        Optional :class:`~repro.faults.FaultPlan`.  ``None`` (or a plan
        with no specs) is bit-identical to the plain device: every fault
        hook hides behind one ``_faults_active`` flag check.
    """

    def __init__(self, size: int, machine: MachineParams = DEFAULT_MACHINE,
                 track_stores: bool = False, faults=None) -> None:
        if size <= 0 or size % BASE_PAGE:
            raise PMError("PM size must be a positive multiple of 4KB")
        self.size = size
        self.machine = machine
        self._store = _SparsePages(size)
        # without store tracking there is no crash-state enumeration, so
        # the store log is pure overhead: every store is treated as
        # immediately durable and only costs are charged
        self.track_stores = track_stores
        # store log as parallel columns (SoA): seqs ascend in append
        # order, flags[i] is 1 once a clwb covered store i's lines.
        # Fenced records never live in the log — sfence folds them into
        # the durable image and compacts the columns in place, so clwb
        # and sfence never rebuild per-record objects.
        self._log_seqs: List[int] = []
        self._log_addrs: List[int] = []
        self._log_data: List[bytes] = []
        self._log_flushed = bytearray()
        self._seq = 0
        # durable image, maintained only when tracking stores
        self._durable: Optional[_SparsePages] = _SparsePages(size) if track_stores else None
        self.bytes_written = 0
        self.bytes_read = 0
        # epoch capture (CrashMonkey mid-operation crash points)
        self._capturing = False
        self._capture_base: Optional[_SparsePages] = None
        self._capture_records: Dict[int, Tuple[int, bytes]] = {}
        self._capture_epoch_of: Dict[int, Optional[int]] = {}
        self._capture_epoch = 0
        # fault injection (default-off, bit-identical-off)
        self.faults = None
        self._faults_active = False
        if faults is not None:
            self.set_fault_plan(faults)

    def set_fault_plan(self, plan) -> None:
        """Attach (or detach, with ``None``) a fault plan.

        An empty plan deactivates the hooks entirely, so attaching
        ``FaultPlan(seed, [])`` leaves every charge bit-identical to a
        device that never heard of faults.
        """
        if plan is not None:
            plan.attach(self)  # may reject the plan: install it only after
        self.faults = plan
        self._faults_active = plan is not None and plan.is_active

    # -- bounds ------------------------------------------------------------------

    def _check(self, addr: int, length: int) -> None:
        if length < 0 or addr < 0 or addr + length > self.size:
            raise PMError(f"access [{addr:#x}, +{length}) outside device "
                          f"of size {self.size:#x}")

    # -- data path ----------------------------------------------------------------

    def load(self, addr: int, length: int, ctx: Optional[SimContext] = None) -> bytes:
        """Read bytes; charges streaming read bandwidth + one load latency.

        With an active fault plan, a load touching a poisoned cacheline
        raises :class:`~repro.errors.MediaError` before any byte (or
        cost) is accounted — the media error aborts the read.
        """
        self._check(addr, length)
        if self._faults_active:
            self.faults.on_load(addr, length, ctx)
        self.bytes_read += length
        if ctx is not None:
            ns = self.machine.pm_load_ns + self.machine.pm_read_ns(length)
            ctx.charge(ns)
            ctx.counters.pm_bytes_read += length
        return self._store.read(addr, length)

    def store(self, addr: int, data: bytes, ctx: Optional[SimContext] = None) -> None:
        """Write bytes into the (volatile) cache tier of the device."""
        self._check(addr, len(data))
        if not data:
            return
        if self._faults_active:
            # may tear the store to a shorter prefix, heal poisoned
            # lines the store fully overwrites, or charge latency
            data = self.faults.on_store(addr, data, ctx)
            if not len(data):
                return      # fully torn: nothing reached even the cache
        self._store.write(addr, data)
        self.bytes_written += len(data)
        if ctx is not None:
            ctx.charge(self.machine.pm_write_ns(len(data)))
            ctx.counters.pm_bytes_written += len(data)
        if not self.track_stores:
            return
        raw = bytes(data)
        self._log_seqs.append(self._seq)
        self._log_addrs.append(addr)
        self._log_data.append(raw)
        self._log_flushed.append(0)
        if self._capturing:
            self._capture_records[self._seq] = (addr, raw)
            self._capture_epoch_of[self._seq] = None
        self._seq += 1

    def clwb(self, addr: int, length: int, ctx: Optional[SimContext] = None) -> None:
        """Issue write-backs for every cacheline in [addr, addr+length)."""
        self._check(addr, length)
        if length == 0:
            return
        first = addr // CACHELINE
        last = (addr + length - 1) // CACHELINE
        if ctx is not None:
            ctx.charge((last - first + 1) * self.machine.clwb_ns)
        if not self.track_stores:
            return
        # flag flip in place on the flush column — no record rebuild
        addrs = self._log_addrs
        data = self._log_data
        flushed = self._log_flushed
        for i in range(len(addrs)):
            if not flushed[i]:
                rfirst = addrs[i] // CACHELINE
                rlast = (addrs[i] + len(data[i]) - 1) // CACHELINE
                if rfirst <= last and first <= rlast:
                    flushed[i] = 1

    def sfence(self, ctx: Optional[SimContext] = None) -> None:
        """Order flushed lines: everything clwb'ed so far becomes durable."""
        if ctx is not None:
            ctx.charge(self.machine.sfence_ns)
        if not self.track_stores:
            return
        seqs = self._log_seqs
        addrs = self._log_addrs
        data = self._log_data
        flushed = self._log_flushed
        durable = self._durable
        assert durable is not None
        fenced_any = False
        w = 0
        for i in range(len(seqs)):
            if flushed[i]:
                # fenced: fold into the durable image and drop
                durable.write(addrs[i], data[i])
                if self._capturing and seqs[i] in self._capture_epoch_of:
                    self._capture_epoch_of[seqs[i]] = self._capture_epoch
                    fenced_any = True
            else:
                if w != i:
                    seqs[w] = seqs[i]
                    addrs[w] = addrs[i]
                    data[w] = data[i]
                    flushed[w] = flushed[i]
                w += 1
        if w != len(seqs):
            del seqs[w:], addrs[w:], data[w:], flushed[w:]
        if self._capturing and fenced_any:
            self._capture_epoch += 1

    def persist(self, addr: int, data: bytes, ctx: Optional[SimContext] = None) -> None:
        """store + clwb + sfence in one call (the common durable-write path)."""
        if not (self.track_stores or self._faults_active):
            # one pass, same three charges in the same order as the calls
            # below would make them — just without their per-call dispatch
            # (there is no store log to keep on an untracked device)
            length = len(data)
            if length < 0 or addr < 0 or addr + length > self.size:
                self._check(addr, length)   # raises with the full message
            if length:
                self._store.write(addr, data)
                self.bytes_written += length
            if ctx is None:
                return
            machine = self.machine
            cpu_ns = ctx.clock._cpu_ns
            cpu = ctx.cpu
            # same adds in the same order as the store/clwb/sfence calls
            # below would make them, accumulated on a local
            v = cpu_ns[cpu]
            if length:
                # inlined machine.pm_write_ns (identical float ops)
                v += length / machine.pm_write_bw * 1e9
                ctx.counters.pm_bytes_written += length
                nlines = ((addr + length - 1) // CACHELINE
                          - addr // CACHELINE + 1)
                v += nlines * machine.clwb_ns
            v += machine.sfence_ns
            cpu_ns[cpu] = v
            return
        self.store(addr, data, ctx)
        self.clwb(addr, len(data), ctx)
        self.sfence(ctx)

    # -- crash support -----------------------------------------------------------

    def start_capture(self) -> None:
        """Begin recording fence epochs for mid-operation crash points.

        Everything pending is drained first: the capture baseline is the
        durable image at the moment of the call.  Until ``end_capture``,
        every store is remembered along with the fence epoch that made it
        durable (None = still in flight at capture end).
        """
        if not self.track_stores:
            raise PMError("store tracking is disabled on this device")
        self.drain()
        assert self._durable is not None
        self._capture_base = self._durable.clone()
        self._capture_records = {}
        self._capture_epoch_of = {}
        self._capture_epoch = 0
        self._capturing = True

    def end_capture(self) -> List[Tuple[Optional[int], List[int]]]:
        """Stop capturing; returns [(epoch, [seq, ...]), ...] in order.

        Each entry is one crash point: the stores fenced together at that
        epoch (epoch None groups stores never fenced during the capture).
        """
        self._capturing = False
        groups: Dict[Optional[int], List[int]] = {}
        for seq, epoch in self._capture_epoch_of.items():
            groups.setdefault(epoch, []).append(seq)
        numbered = sorted((e for e in groups if e is not None))
        out: List[Tuple[Optional[int], List[int]]] = [
            (e, sorted(groups[e])) for e in numbered]
        if None in groups:
            out.append((None, sorted(groups[None])))
        return out

    def capture_crash_image(self, epoch: Optional[int],
                            surviving: Iterable[int]) -> "PMDevice":
        """Crash image at the instant *before* fence *epoch* retired.

        All stores fenced in earlier epochs are durable; *surviving* is the
        subset of that epoch's (or, for epoch None, the never-fenced)
        stores that happened to reach media anyway.
        """
        if self._capture_base is None:
            raise PMError("no capture in progress or completed")
        survivors = set(surviving)
        image = PMDevice(self.size, self.machine, track_stores=True)
        image._store = self._capture_base.clone()
        for seq in sorted(self._capture_records):
            addr, data = self._capture_records[seq]
            rec_epoch = self._capture_epoch_of.get(seq)
            durable_before = (rec_epoch is not None and epoch is not None
                              and rec_epoch < epoch)
            if epoch is None:
                durable_before = rec_epoch is not None
            if durable_before or seq in survivors:
                image._store.write(addr, data)
        assert image._durable is not None
        image._durable = image._store.clone()
        return image

    def crash_image(self, surviving: Iterable[int] = ()) -> "PMDevice":
        """The device as it would look after a crash.

        *surviving* is a set of in-flight store sequence numbers that happen
        to have reached the media before power was lost (CrashMonkey's
        reordering model: any subset of unfenced stores may survive).
        """
        if not self.track_stores:
            raise PMError("store tracking is disabled on this device")
        assert self._durable is not None
        survivors = set(surviving)
        unknown = survivors - set(self._log_seqs)
        if unknown:
            raise PMError(f"unknown in-flight store seqs: {sorted(unknown)}")
        image = PMDevice(self.size, self.machine, track_stores=True)
        image._store = self._durable.clone()
        # the seq column ascends in append order: replay is already sorted
        for seq, addr, data in zip(self._log_seqs, self._log_addrs,
                                   self._log_data):
            if seq in survivors:
                image._store.write(addr, data)
        assert image._durable is not None
        image._durable = image._store.clone()
        return image

    def drain(self) -> None:
        """Flush + fence everything dirty (clean unmount / power-safe)."""
        if not self.track_stores:
            return
        # unflushed records are exactly the stores with dirty lines left;
        # a clwb only flips flags, so the columns keep their length
        for addr, data, flushed in zip(self._log_addrs, self._log_data,
                                       self._log_flushed):
            if not flushed:
                self.clwb(addr, len(data))
        self.sfence()

    @property
    def materialized_bytes(self) -> int:
        """4 KiB times the pages the sparse store holds, whether a page
        is a buffer or references the objects written into it; not the
        host memory the store uses."""
        return self._store.materialized_bytes()
