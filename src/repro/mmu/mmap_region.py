"""Memory-mapped regions.

A :class:`MappedRegion` is what an application gets back from ``mmap()`` on
a simulated file system: a window of virtual address space backed by the
file's physical extents.  Accessing it triggers the full hardware pipeline:

1. page fault on first touch of an unmapped page (4KB or 2MB, depending on
   whether the backing extent is hugepage-aligned and contiguous);
2. TLB lookup per touched page on every access, in the accessing CPU's
   TLB (``SimClock.tlbs``, shared by every mapping touched there);
3. on a 4KB TLB miss, a page walk that pollutes the LLC (Fig 4 effect);
4. the data copy itself at PM bandwidth.

All costs are charged to the caller's :class:`~repro.clock.SimContext` and
counted in its :class:`~repro.clock.EventCounters`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..clock import SimContext
from ..errors import InvalidArgumentError
from ..params import BASE_PAGE, HUGE_PAGE, MachineParams
from ..pm.device import PMDevice
from ..pm.zeros import Zeros, zero_bytes
from ..structures.extents import ExtentList
from .cache import CacheModel
from .page_table import PageTable
from .tlb import TLB

_PAGES_PER_HUGE = HUGE_PAGE // BASE_PAGE
_next_region_id = [0]


class MappedRegion:
    """One mmap of one file.

    Parameters
    ----------
    device, machine:
        The PM device and its cost model.
    extents:
        The file's physical block map at mmap time.  File systems hand this
        out; a region sees a *snapshot* (remapping after file growth
        requires a fresh mmap, as with real ``mmap``).
    block_size:
        FS block size in bytes (4KB everywhere in this repro).
    fault_zero_fill:
        True if this file system zeroes pages inside the fault handler
        (ext4-DAX behaviour, §5.4 PmemKV discussion); False if allocation
        time already zeroed them (NOVA behaviour).
    track_data:
        When True, reads/writes move real bytes through the PM device;
        when False only costs and counters are produced (large benches).
    """

    def __init__(self, device: PMDevice, machine: MachineParams,
                 extents: ExtentList, length: int, block_size: int,
                 fault_zero_fill: bool = False, track_data: bool = True) -> None:
        if length <= 0:
            raise InvalidArgumentError("mmap length must be positive")
        self.device = device
        self.machine = machine
        self.extents = extents
        self.length = length
        self.block_size = block_size
        self._check_extents_cover()
        self.page_table = PageTable()
        #: the per-CPU TLBs unmap shoots down: the faulting clock's (a
        #: fault precedes any TLB access)
        self._tlbs: Optional[list] = None
        #: LLC model for page-walk pollution and read_element probes
        #: (P-ART attaches one); None charges every probe a PM load
        self.cache: Optional[CacheModel] = None
        self.fault_zero_fill = fault_zero_fill
        self.track_data = track_data
        self.region_id = _next_region_id[0]
        _next_region_id[0] += 1
        #: last-run memo: [_memo_lo, _memo_hi] is a span of pages verified
        #: base-mapped while the page table was at generation _memo_gen;
        #: sequential access inside it skips the page-table dict entirely
        self._memo_lo = 0
        self._memo_hi = -1
        self._memo_gen = -1
        #: per-fault charge for a zero-filling fault, precomputed: the sum
        #: is the same float every fault, so hoisting it out of
        #: fault changes nothing bit-wise
        self._fault_base_zero_ns = machine.fault_base_ns \
            + machine.pm_write_ns(BASE_PAGE) * machine.fault_zero_page_mult
        self._fault_huge_zero_ns = machine.fault_huge_ns \
            + machine.pm_write_ns(HUGE_PAGE) * machine.fault_zero_page_mult

    def _check_extents_cover(self) -> None:
        """Refuse a mapping longer than the extents backing it."""
        covered = self.extents.total_blocks * self.block_size
        if covered < self.length:
            raise InvalidArgumentError(
                f"extents cover {covered} bytes, cannot map {self.length}")

    # -- fault handling -----------------------------------------------------------

    def _phys_of_virt_page(self, virt_page: int) -> int:
        """Physical byte address backing a virtual 4KB page."""
        logical_block = virt_page * (BASE_PAGE // self.block_size)
        return self.extents.physical_block(logical_block) * self.block_size

    def _huge_phys_or_none(self, virt_page: int) -> Optional[int]:
        """Physical address for a 2MB mapping at *virt_page*, or None.

        A 2MB mapping needs virtual & physical 2MB alignment and 512
        physically contiguous blocks (paper §2.2).  Returning the
        physical address lets the fault handler skip a second extent
        lookup when the mapping is possible.
        """
        if virt_page % _PAGES_PER_HUGE:
            return None
        if (virt_page + _PAGES_PER_HUGE) * BASE_PAGE > self.length:
            return None
        base_phys = self._phys_of_virt_page(virt_page)
        if base_phys % HUGE_PAGE:
            return None
        # contiguity: every covered page must be at the expected offset
        logical0 = virt_page * (BASE_PAGE // self.block_size)
        blocks_needed = HUGE_PAGE // self.block_size
        try:
            runs = self.extents.slice_logical(logical0, blocks_needed)
        except IndexError:
            return None
        return base_phys if len(runs) == 1 else None

    def fault(self, virt_page: int, ctx: SimContext) -> bool:
        """Handle a page fault at *virt_page*; returns True if huge.

        Mirrors the kernel DAX fault path: try a PMD (2MB) mapping first,
        fall back to a PTE (4KB) mapping.
        """
        clock = ctx.clock
        self._tlbs = clock.tlbs
        cpu_ns = clock._cpu_ns
        cpu = ctx.cpu
        start = cpu_ns[cpu]
        huge_base = virt_page - (virt_page % _PAGES_PER_HUGE)
        # (a PMD install is only possible when no PTE in the range is
        # already populated — otherwise the kernel falls back to 4KB);
        # checking coverage first skips the contiguity probe for every
        # later fault inside an already part-populated 2MB range
        huge_phys = None if self.page_table.covered(huge_base) \
            else self._huge_phys_or_none(huge_base)
        # clock writes are inlined (the read_element pattern): same
        # values in the same order as ctx.charge, minus the call — this
        # path runs once per unique page in every aged/rand workload
        counters = ctx.counters
        huge = huge_phys is not None
        if huge:
            self.page_table.install_huge(huge_base, huge_phys)
            if self.fault_zero_fill and self._page_unwritten(huge_base):
                ns = self._fault_huge_zero_ns
            else:
                ns = self.machine.fault_huge_ns
            counters.page_faults_2m += 1
        else:
            phys = self._phys_of_virt_page(virt_page)
            self.page_table.install_base(virt_page, phys)
            if self.fault_zero_fill and self._page_unwritten(virt_page):
                ns = self._fault_base_zero_ns
            else:
                ns = self.machine.fault_base_ns
            counters.page_faults_4k += 1
        # an add, not start + ns: demand allocation inside the physical
        # lookups above may already have charged this clock
        cpu_ns[cpu] += ns
        counters.fault_ns += ns
        if ctx.trace.enabled:
            ctx.trace.record("mmu.fault", cpu, start, cpu_ns[cpu],
                             page=virt_page, huge=huge)
        return huge

    def _page_unwritten(self, virt_page: int) -> bool:
        """Does this page lie beyond the file's written bytes?

        DAX file systems only zero *unwritten* (fallocated or demand-
        allocated) extents inside the fault handler; populated file
        contents are mapped as-is.  The base region has no file, so it
        treats everything as unwritten.
        """
        return True

    def _first_unwritten_page(self) -> int:
        """First page :meth:`_page_unwritten` holds for (written bytes end
        at a single high-water mark, so the predicate is monotone)."""
        return 0

    def _prefault_run_ready(self, first_page: int, last_page: int) -> bool:
        """True when faulting [first_page, last_page] cannot demand-
        allocate (all backing blocks already exist)."""
        return True

    def _prefault_base_run(self, start: int, last: int,
                           ctx: SimContext) -> int:
        """Fault-in the unmapped run at *start* (bounded by *last*, inside
        one 2MB range whose coverage already forbids a PMD install),
        charging bit-identically to per-page :meth:`fault` calls and
        tracing the run as one ``mmu.fault`` of ``pages=n``.
        Returns the next page for the prefault loop to consider.
        """
        pt = self.page_table
        n = pt.base_unmapped_run(start, last - start + 1)
        if n == 0:
            return start
        begin = ctx.clock._cpu_ns[ctx.cpu]
        machine = self.machine
        base_ns = machine.fault_base_ns
        counters = ctx.counters
        if self.fault_zero_fill:
            zbound = self._first_unwritten_page()
            n_written = min(max(zbound - start, 0), n)
            zero_ns = self._fault_base_zero_ns
        else:
            n_written = n
            zero_ns = base_ns
        # pages ascend, so written pages (below the high-water mark)
        # precede zero-filled ones: two charge_repeat calls reproduce the
        # per-page charge sequence exactly
        if n_written:
            ctx.charge_repeat(base_ns, n_written)
            counters.add_repeat("fault_ns", base_ns, n_written)
        n_zero = n - n_written
        if n_zero:
            ctx.charge_repeat(zero_ns, n_zero)
            counters.add_repeat("fault_ns", zero_ns, n_zero)
        counters.page_faults_4k += n
        # block_size == BASE_PAGE on this path, so logical blocks and
        # pages coincide; install one run per physically contiguous extent
        page = start
        for run in self.extents.slice_logical(start, n):
            pt.install_base_run(page, run.length, run.start * BASE_PAGE)
            page += run.length
        if ctx.trace.enabled:
            ctx.trace.record("mmu.fault", ctx.cpu, begin, ctx.now,
                             page=start, pages=n, huge=False)
        return start + n

    def prefault(self, ctx: SimContext) -> None:
        """Touch every page once (MAP_POPULATE / application warm-up)."""
        page = 0
        total_pages = (self.length + BASE_PAGE - 1) // BASE_PAGE
        huge_tbl = self.page_table._huge
        base_tbl = self.page_table._base
        can_batch = self.block_size == BASE_PAGE
        while page < total_pages:
            # mapped pages are skipped by raw-table membership probes
            if page // _PAGES_PER_HUGE in huge_tbl:
                page += _PAGES_PER_HUGE
                continue
            if page in base_tbl:
                page += 1
                continue
            if self.fault(page, ctx):
                page += _PAGES_PER_HUGE
                continue
            page += 1
            if not can_batch:
                continue
            # a base page now populates this 2MB range, so every later
            # fault inside it can only install base pages: bulk-install
            # the rest of the range
            range_end = ((page - 1) // _PAGES_PER_HUGE + 1) * _PAGES_PER_HUGE
            last = min(range_end, total_pages) - 1
            if last >= page and self._prefault_run_ready(page, last):
                page = self._prefault_base_run(page, last, ctx)

    # -- TLB/walk accounting ----------------------------------------------------------

    def _new_tlb(self, ctx: SimContext) -> TLB:
        """Build *ctx*'s CPU's TLB from this mapping's machine: accesses
        take ``ctx.clock.tlbs[ctx.cpu] or self._new_tlb(ctx)``."""
        machine = self.machine
        tlb = ctx.clock.tlbs[ctx.cpu] = TLB(machine.tlb_4k_entries,
                                            machine.tlb_2m_entries)
        return tlb

    def _memo_note(self, lo: int, hi: int, gen: int) -> None:
        """Record a verified base-mapped span, merging adjacent spans."""
        if gen == self._memo_gen and lo <= self._memo_hi + 1 \
                and hi >= self._memo_lo - 1:
            if lo < self._memo_lo:
                self._memo_lo = lo
            if hi > self._memo_hi:
                self._memo_hi = hi
        else:
            self._memo_gen = gen
            self._memo_lo = lo
            self._memo_hi = hi

    def _charge_base_run(self, start_page: int, n: int,
                         ctx: SimContext) -> None:
        """TLB accounting for *n* consecutive base pages, bit-identical to
        n per-event touches."""
        tlb = ctx.clock.tlbs[ctx.cpu] or self._new_tlb(ctx)
        hits, misses = tlb.access_run(self.region_id, start_page, n, False)
        counters = ctx.counters
        if hits:
            counters.tlb_hits += hits
        if misses:
            counters.tlb_misses += misses
            # inlined charge_repeat: same one-at-a-time adds on a local
            cpu_ns = ctx.clock._cpu_ns
            cpu = ctx.cpu
            v = cpu_ns[cpu]
            walk_ns = self.machine.page_walk_ns
            for _ in range(misses):
                v += walk_ns
            cpu_ns[cpu] = v
            if self.cache is not None:
                self.cache.pollute_batch(misses)

    def _charge_tlb_huge(self, key_page: int, ctx: SimContext) -> None:
        """One TLB access against a 2MB entry (no pollute on miss, as in
        the per-event path)."""
        tlb = ctx.clock.tlbs[ctx.cpu] or self._new_tlb(ctx)
        if tlb.access(self.region_id, key_page, True):
            ctx.counters.tlb_hits += 1
        else:
            ctx.counters.tlb_misses += 1
            ctx.charge(self.machine.page_walk_ns)

    def _walk_pages(self, offset: int, size: int, ctx: SimContext) -> None:
        # one TLB charge per mapping run (the touched slice of one 2MB
        # mapping, or a span of consecutive 4KB ones), in the order of the
        # per-event reference walk (tests/oracles/walk.py).  Mapped pages
        # are resolved by raw-table membership probes (value-opaque, so
        # both page-table engines branch identically).  Faults still go
        # through fault() at the position the page occupies.
        pt = self.page_table
        huge_tbl = pt._huge
        base_tbl = pt._base
        page = offset // BASE_PAGE
        last = (offset + size - 1) // BASE_PAGE
        while page <= last:
            if pt.generation == self._memo_gen and \
                    self._memo_lo <= page <= self._memo_hi:
                run_end = self._memo_hi if self._memo_hi < last else last
                self._charge_base_run(page, run_end - page + 1, ctx)
                page = run_end + 1
                continue
            idx = page // _PAGES_PER_HUGE
            if idx in huge_tbl:
                self._charge_tlb_huge(idx * _PAGES_PER_HUGE, ctx)
                page = (idx + 1) * _PAGES_PER_HUGE
                continue
            if page in base_tbl:
                n = pt.base_run_length(page, last - page + 1)
                self._memo_note(page, page + n - 1, pt.generation)
                self._charge_base_run(page, n, ctx)
                page += n
                continue
            # both table probes missed: fault, and derive the huge-case
            # key page arithmetically (install_huge pins the mapping to
            # the 2MB-aligned base)
            if self.fault(page, ctx):
                hb = page - page % _PAGES_PER_HUGE
                self._charge_tlb_huge(hb, ctx)
                page = hb + _PAGES_PER_HUGE
            else:
                n = pt.base_run_length(page, last - page + 1)
                self._memo_note(page, page + n - 1, pt.generation)
                self._charge_base_run(page, n, ctx)
                page += n

    # -- data access -----------------------------------------------------------------

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.length:
            raise InvalidArgumentError(
                f"access [{offset}, +{size}) outside mapping of {self.length}")

    def read(self, offset: int, size: int, ctx: SimContext) -> bytes:
        """memcpy out of the mapping."""
        self._check_range(offset, size)
        if size == 0:
            return b""
        machine = self.machine
        first = offset // BASE_PAGE
        last = (offset + size - 1) // BASE_PAGE
        if last - first < 8:
            # small-read fast path (the mmap_rand profile: 1-2 touched
            # pages per op).  Applies only when every touched page is
            # already base-mapped: then _walk_pages would charge the
            # span as ONE base run (base_run_length counts consecutive
            # mapped pages), so one access_run + grouped charges below
            # replays its float-add sequence exactly (and, like it,
            # records no span when tracing: nothing faults here).  The adds
            # accumulate on a local with a single clock store; stores
            # don't change float values, so the result is bit-identical.
            base = self.page_table._base
            page = first
            while page <= last and page in base:
                page += 1
            if page > last:
                clock = ctx.clock
                cpu = ctx.cpu
                tlb = clock.tlbs[cpu] or self._new_tlb(ctx)
                hits, misses = tlb.access_run(self.region_id, first,
                                              last - first + 1, False)
                counters = ctx.counters
                cpu_ns = clock._cpu_ns
                v = cpu_ns[cpu]
                if hits:
                    counters.tlb_hits += hits
                if misses:
                    counters.tlb_misses += misses
                    walk_ns = machine.page_walk_ns
                    for _ in range(misses):
                        v += walk_ns
                    if self.cache is not None:
                        self.cache.pollute_batch(misses)
                ns = machine.pm_read_ns(size)
                v += ns
                cpu_ns[cpu] = v
                counters.copy_ns += ns
                counters.pm_bytes_read += size
                if not self.track_data:
                    return zero_bytes(size)
                return self._copy_out(offset, size, ctx)
        self._walk_pages(offset, size, ctx)
        ns = machine.pm_read_ns(size)
        # inlined ctx.charge: the same single add, minus the call (this
        # tail runs on every fault-path read, the mmap_rand common case)
        ctx.clock._cpu_ns[ctx.cpu] += ns
        counters = ctx.counters
        counters.copy_ns += ns
        counters.pm_bytes_read += size
        if not self.track_data:
            return zero_bytes(size)
        return self._copy_out(offset, size, ctx)

    def write(self, offset: int, data: bytes, ctx: SimContext) -> None:
        """memcpy into the mapping (non-temporal stores + fence).

        *data* may be a tuple of parts, a gathered write: it is charged
        exactly as one write of the parts joined, and where the range is
        one physical run each part reaches the device as the caller's own
        object (see :meth:`_copy_in`).
        """
        size = sum(map(len, data)) if type(data) is tuple else len(data)
        self._check_range(offset, size)
        if not size:
            return
        self._walk_pages(offset, size, ctx)
        ns = self.machine.pm_write_ns(size) + self.machine.sfence_ns
        # inlined ctx.charge (see read())
        ctx.clock._cpu_ns[ctx.cpu] += ns
        counters = ctx.counters
        counters.copy_ns += ns
        counters.pm_bytes_written += size
        if self.track_data:
            self._copy_in(offset, data, size)

    def write_zeros(self, offset: int, length: int, ctx: SimContext) -> None:
        """:meth:`write` of *length* zero bytes without materializing a
        payload buffer (aging churn, zero-fill benches)."""
        if self.track_data:
            self.write(offset, zero_bytes(length), ctx)
        else:
            self.write(offset, Zeros(length), ctx)

    def read_element(self, offset: int, ctx: SimContext) -> float:
        """One dependent 64B load (the Fig 4 / Fig 8 pointer-chase probe).

        Returns the access latency in ns (also charged to the context).
        """
        if offset < 0 or offset + 1 > self.length:
            self._check_range(offset, 1)
        page = offset // BASE_PAGE
        pt = self.page_table
        machine = self.machine
        counters = ctx.counters
        clock = ctx.clock
        cpu_ns = clock._cpu_ns
        cpu = ctx.cpu
        # the latency includes the fault, if the probe takes one
        before = cpu_ns[cpu]
        # raw-table probes treat values as opaque: key presence alone
        # decides, so both page-table engines take the same branch
        huge = page // _PAGES_PER_HUGE in pt._huge
        if not huge and page not in pt._base:
            huge = self.fault(page, ctx)
        key_page = page - page % _PAGES_PER_HUGE if huge else page
        # the per-event walk's TLB touch and charges, inlined: same events,
        # same float adds, minus the calls.  The clock writes are deferred
        # onto a local, which keeps the add sequence identical.
        v = cpu_ns[cpu]
        tlb = clock.tlbs[cpu] or self._new_tlb(ctx)
        if tlb.access(self.region_id, key_page, huge):
            counters.tlb_hits += 1
        else:
            counters.tlb_misses += 1
            v += machine.page_walk_ns
            if self.cache is not None and not huge:
                self.cache.pollute()
        cache = self.cache
        if cache is not None:
            hit = cache.access_hot_line()
            lat = cache.access_latency_ns(hit)
            if hit:
                counters.llc_hits += 1
            else:
                counters.llc_misses += 1
        else:
            lat = machine.pm_load_ns
            counters.llc_misses += 1
        v += lat
        cpu_ns[cpu] = v
        return v - before

    # -- raw data movement helpers ----------------------------------------------------

    def _segments(self, offset: int, size: int) -> List[Tuple[int, int]]:
        """(physical address, length) runs covering [offset, +size)."""
        bs = self.block_size
        first = offset // bs
        skip = offset - first * bs
        merged: List[Tuple[int, int]] = []
        for ext in self.extents.slice_logical(
                first, (offset + size - 1) // bs - first + 1):
            addr = ext.start * bs + skip
            ln = min(ext.length * bs - skip, size)
            size -= ln
            skip = 0
            # merge physically adjacent runs
            if merged and merged[-1][0] + merged[-1][1] == addr:
                merged[-1] = (merged[-1][0], merged[-1][1] + ln)
            else:
                merged.append((addr, ln))
        return merged

    def _copy_out(self, offset: int, size: int, ctx: SimContext) -> bytes:
        chunks = []
        for addr, ln in self._segments(offset, size):
            chunks.append(self.device.load(addr, ln))
        return b"".join(chunks)

    def _copy_in(self, offset: int, data: bytes, size: int) -> None:
        device = self.device
        segments = self._segments(offset, size)
        if type(data) is tuple:
            if len(segments) == 1 and not (device.track_stores
                                           or device._faults_active):
                # one physical run: store part by part, so each part
                # reaches the device as the caller's object, which the
                # device may reference instead of copying
                addr, ln = segments[0]
                for part in data:
                    device.store(addr, part)
                    addr += len(part)
                device.clwb(segments[0][0], ln)
                device.sfence()
                return
            # several runs, or a device that logs stores for crash states
            # or draws from a fault plan per store: the joined bytes, one
            # store per run, exactly as for the same write unsplit
            data = b"".join(data)
        pos = 0
        for addr, ln in segments:
            device.store(addr, data[pos:pos + ln])
            device.clwb(addr, ln)
            pos += ln
        device.sfence()

    # -- metrics -------------------------------------------------------------------------

    @property
    def hugepage_fraction(self) -> float:
        """Fraction of the mapping currently covered by 2MB mappings."""
        total_pages = (self.length + BASE_PAGE - 1) // BASE_PAGE
        return self.page_table.hugepage_fraction(total_pages)

    def mappable_hugepages(self) -> int:
        return self.extents.mappable_hugepages()

    def unmap(self) -> int:
        """Tear down; returns the number of TLB entries shot down, summed
        over every CPU's TLB."""
        dropped = 0
        for tlb in self._tlbs or ():
            if tlb is not None:
                dropped += tlb.invalidate_region(self.region_id)
        self.page_table.unmap_all()
        return dropped
