"""Machine cost parameters for the simulated PM machine.

Every constant here is derived from a statement in the WineFS paper
(Kadekodi et al., SOSP 2021) or from the Optane characterization work it
cites.  The simulation charges these costs to per-CPU virtual clocks; the
paper's results are *ratios* between file systems on the same hardware, so
reproducing the ratios only requires a shared, internally consistent cost
model, not the authors' exact testbed numbers.

All times are in nanoseconds, all sizes in bytes, unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass

# ---------------------------------------------------------------------------
# Fundamental sizes
# ---------------------------------------------------------------------------

CACHELINE = 64
BASE_PAGE = 4 * 1024           # 4KB base page
HUGE_PAGE = 2 * 1024 * 1024    # 2MB hugepage
BLOCK_SIZE = BASE_PAGE         # file systems allocate in 4KB blocks
BLOCKS_PER_HUGEPAGE = HUGE_PAGE // BLOCK_SIZE

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class MachineParams:
    """Cost model of the simulated one-socket Optane machine (paper §5.1).

    The defaults encode the paper's stated ratios:

    * §2.1: "PM reads have 2-3x higher latency than DRAM, while writes have
      similar latency.  PM read bandwidth is 1/3rd that of DRAM, while write
      bandwidth is about 0.17x that of DRAM."
    * §1: "the cost of handling a page fault (1-2 us) is significantly
      higher than the cost of a 64 byte PM read or write (100-200 ns)."
    * Fig 2: writing a 2MB mapped file is ~2x faster with hugepages; without
      them two-thirds of the time is fault handling.
    * Fig 4: median latency of a pre-faulted random read is ~10x higher with
      base pages because PTE fetches evict application data from the LLC.
    """

    # -- DRAM reference ----------------------------------------------------
    dram_load_ns: float = 90.0            # cached-miss DRAM load latency
    dram_read_bw: float = 90.0 * GIB      # bytes/second, streaming
    dram_write_bw: float = 75.0 * GIB

    # -- PM media (ratios from §2.1) ----------------------------------------
    pm_load_ns: float = 240.0             # ~2.7x DRAM load latency
    pm_store_ns: float = 100.0            # "writes have similar latency"
    pm_read_bw: float = 30.0 * GIB        # 1/3 of DRAM read bandwidth
    pm_write_bw: float = 13.0 * GIB       # ~0.17x of DRAM write bandwidth

    # -- persistence instructions -------------------------------------------
    clwb_ns: float = 25.0                 # per-cacheline write-back issue
    sfence_ns: float = 30.0               # ordering fence

    # -- page faults (§1: 1-2us per 4KB fault) ------------------------------
    fault_base_ns: float = 1600.0         # one 4KB minor fault, mapping only
    fault_huge_ns: float = 2600.0         # one 2MB fault, mapping only (one
                                          # PMD entry, slightly costlier trap)
    fault_zero_page_mult: float = 1.0     # extra x of page write bw if the FS
                                          # zeroes the page inside the fault

    # -- TLB / page walk -----------------------------------------------------
    # (a TLB hit is free: its latency is folded into the load latency)
    page_walk_ns: float = 120.0           # 4-level walk out of caches
    tlb_4k_entries: int = 1536            # L2 STLB reach for 4KB entries
    tlb_2m_entries: int = 1024            # shared entries usable by 2MB pages

    # -- caches ---------------------------------------------------------------
    llc_bytes: int = 38 * MIB             # 28-core Cascade Lake LLC
    llc_hit_ns: float = 22.0
    # A 4KB-page TLB miss caches 8+ PTE lines; model the resulting pollution
    # as a probability that the *next* touch of a hot line misses the LLC.
    pte_pollution: float = 0.9

    # -- kernel crossings ------------------------------------------------------
    syscall_ns: float = 700.0             # trap + VFS dispatch (§2.1: "cost of
                                          # trapping into the kernel ... adds
                                          # significant overhead")

    # -- journaling (WineFS's entry size and transaction bound are
    # ENTRY_BYTES / MAX_TXN_ENTRIES in repro.core.journal) -------------------
    jbd2_commit_ns: float = 22000.0       # JBD2 stop-the-world commit overhead

    def pm_read_ns(self, nbytes: int) -> float:
        """Streaming read cost for *nbytes* from PM."""
        return nbytes / self.pm_read_bw * 1e9

    def pm_write_ns(self, nbytes: int) -> float:
        """Streaming write cost for *nbytes* to PM (excludes clwb/fence)."""
        return nbytes / self.pm_write_bw * 1e9

    def persist_ns(self, nbytes: int) -> float:
        """Write + flush + fence cost for a durable store of *nbytes*.

        Small updates (journal entries, inode fields) go through the
        store+clwb path and pay per-line write-back; bulk writes use
        non-temporal stores, whose persistence cost is already the PM
        write bandwidth — so the clwb charge is capped at a few lines.
        """
        lines = max(1, (nbytes + CACHELINE - 1) // CACHELINE)
        flush = min(lines, 8) * self.clwb_ns
        return self.pm_write_ns(nbytes) + flush + self.sfence_ns


DEFAULT_MACHINE = MachineParams()
