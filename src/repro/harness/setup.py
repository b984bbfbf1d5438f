"""Experiment setup: machines, file systems, aging, comparison groups.

The paper compares two groups (§5.1):

* metadata consistency: ext4-DAX, xfs-DAX, PMFS, NOVA-relaxed, SplitFS,
  and WineFS in relaxed mode;
* data + metadata consistency: NOVA, Strata, and WineFS (strict, the
  default).

Aged experiments use Geriatrix with the Agrawal profile at 75% target
utilization (§5.1), scaled to the simulated partition size: the paper's
165TB on 500GB is ~330 partition-volumes; our default churn is
``churn_multiple`` partition-volumes, which reaches the same qualitative
fragmentation regime in minutes instead of weeks.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..aging import AGRAWAL, AgingProfile, Geriatrix
from ..clock import SimContext, make_context
from ..params import DEFAULT_MACHINE, GIB
from ..pm.device import PMDevice
from ..snapshot import store as snapshot_store
from ..vfs.interface import FileSystem
from ..core.filesystem import WineFS
from ..fs import Ext4DAX, NovaFS, PMFS, SplitFS, StrataFS, XfsDAX
from ..fs.common.inode import _GENERATION


@dataclass(frozen=True)
class FSSpec:
    """How to construct one evaluated file system."""

    name: str
    factory: Callable[..., FileSystem]
    kwargs: tuple = ()
    data_consistent: bool = False
    #: PMFS "takes weeks to age" (§5.1) — the paper uses it un-aged
    ageable: bool = True

    def build(self, device: PMDevice, num_cpus: int,
              track_data: bool = False) -> FileSystem:
        return self.factory(device, num_cpus=num_cpus,
                            track_data=track_data, **dict(self.kwargs))


ALL_SPECS: List[FSSpec] = [
    FSSpec("WineFS", WineFS, (("mode", "strict"),), data_consistent=True),
    FSSpec("WineFS-relaxed", WineFS, (("mode", "relaxed"),)),
    FSSpec("NOVA", NovaFS, (("mode", "strict"),), data_consistent=True),
    FSSpec("NOVA-relaxed", NovaFS, (("mode", "relaxed"),)),
    FSSpec("ext4-DAX", Ext4DAX),
    FSSpec("xfs-DAX", XfsDAX),
    FSSpec("PMFS", PMFS, ageable=False),
    FSSpec("SplitFS", SplitFS),
    FSSpec("Strata", StrataFS, data_consistent=True),
]

SPECS_BY_NAME: Dict[str, FSSpec] = {s.name: s for s in ALL_SPECS}

#: §5.1 comparison groups: metadata-only consistency (Fig 7a-c) and
#: data + metadata consistency (Fig 7d-f)
METADATA_GROUP = [s.name for s in ALL_SPECS if not s.data_consistent]
DATA_GROUP = [s.name for s in ALL_SPECS if s.data_consistent]


def make_fs(name: str, *, size_gib: float = 1.0, num_cpus: int = 4,
            track_data: bool = False, trace=None
            ) -> Tuple[FileSystem, SimContext]:
    """Build + mkfs one named file system on a fresh machine.

    *trace* is an optional :class:`~repro.obs.trace.Tracer`; when omitted
    the context carries the shared no-op handle (tracing off).
    """
    spec = SPECS_BY_NAME[name]
    size = int(size_gib * GIB)
    device = PMDevice(size)
    fs = spec.build(device, num_cpus, track_data=track_data)
    ctx = make_context(num_cpus, trace=trace)
    fs.mkfs(ctx)
    return fs, ctx


def fresh_fs(name: str, **kwargs) -> Tuple[FileSystem, SimContext]:
    """Alias of make_fs: a newly created (un-aged) file system."""
    return make_fs(name, **kwargs)


def _reset_after_setup(fs: FileSystem, ctx: SimContext) -> None:
    """Zero every accumulator once setup (mkfs + aging) is done.

    Aging time is setup, not measurement (paper §5.1), and that holds for
    *all* simulated history: the per-CPU clocks, the lock timeline (lock
    free times are absolute timestamps — left behind, the first
    acquisition after a clock reset pays the whole aging makespan as a
    spurious wait), the event counters and the device byte totals.
    """
    ctx.clock.reset()
    ctx.locks.reset_timeline()
    ctx.counters.reset()
    fs.device.bytes_read = 0
    fs.device.bytes_written = 0


#: version of the code that ages an image: Geriatrix, the aging profiles
#: and every model's allocator.  Part of every aged-image key, so a warm
#: archive never serves an image that older aging code built.  Bump it
#: with any change that moves an aged image; the fragmentation report of
#: one tiny cold-aged image is pinned beside it in
#: ``tests/data/aging_version_golden.json``.
AGING_VERSION = 1


def aged_cache_key(name: str, *, size_gib: float = 1.0, num_cpus: int = 4,
                   utilization: float = 0.75, churn_multiple: float = 10.0,
                   profile: AgingProfile = AGRAWAL, seed: int = 7,
                   track_data: bool = False) -> str:
    """The snapshot-store key :func:`aged_fs` files an image under.

    Public so the fleet corpus builder (and anything else that archives
    aged images out-of-band) lands on exactly the keys a later
    ``aged_fs`` call will look up.  Defaults mirror :func:`aged_fs`.
    """
    return snapshot_store.cache_key({
        "kind": "aged_fs",
        "aging_version": AGING_VERSION,
        "fs": name,
        "size_bytes": int(size_gib * GIB),
        "num_cpus": num_cpus,
        "utilization": utilization,
        "churn_multiple": churn_multiple,
        "profile": profile,
        "seed": seed,
        "track_data": track_data,
        "machine": DEFAULT_MACHINE,
    })


def _restore_aged(key: str, name: str
                  ) -> Tuple[Optional[Tuple[FileSystem, SimContext]], str]:
    """Restore the aged image under *key*; ``(pair, status)``.

    *status* is a :data:`repro.snapshot.store.LOAD_STATUSES` entry; a
    decoded value of the wrong shape counts as ``decode_error``.  Any
    non-``hit`` status makes the caller re-age, and :func:`aged_fs`
    warns about the non-``miss`` failures — a cache that silently
    re-ages every run must not look healthy.
    """
    root, status = snapshot_store.load_ex(key)
    if status != "hit":
        return None, status
    if not isinstance(root, dict):
        return None, "decode_error"
    fs = root.get("fs")
    ctx = root.get("ctx")
    if not isinstance(fs, FileSystem) or not isinstance(ctx, SimContext):
        return None, "decode_error"
    # inode generations must stay unique across restore + fresh allocations
    # (they key VFS lock names); fast-forward the process-wide counter
    for inode in fs._itable.live_inodes():
        _GENERATION.advance_past(inode.gen)
    return (fs, ctx), "hit"


def aged_fs(name: str, *, size_gib: float = 1.0, num_cpus: int = 4,
            utilization: float = 0.75, churn_multiple: float = 10.0,
            profile: AgingProfile = AGRAWAL, seed: int = 7,
            track_data: bool = False, trace=None, snapshot: bool = True
            ) -> Tuple[FileSystem, SimContext]:
    """Build, format and age one named file system (§5.1 setup).

    PMFS is returned clean — the paper does the same because PMFS cannot
    complete the aging run; its clean numbers are an upper bound.

    With *snapshot* (the default), the aged image is cached under
    ``$REPRO_SNAPSHOT_DIR`` (default ``~/.cache/repro``) keyed by every
    aging parameter and :data:`AGING_VERSION`, and later calls restore
    it bit-identically instead of re-aging.  Set ``REPRO_SNAPSHOT=0``
    (or ``snapshot=False``) to force re-aging; tracing a run disables
    the cache automatically since a restore would replay no spans.
    """
    use_cache = (snapshot and trace is None
                 and os.environ.get("REPRO_SNAPSHOT", "1") != "0")
    key = ""
    load_status = "miss"
    if use_cache:
        key = aged_cache_key(name, size_gib=size_gib, num_cpus=num_cpus,
                             utilization=utilization,
                             churn_multiple=churn_multiple,
                             profile=profile, seed=seed,
                             track_data=track_data)
        restored, load_status = _restore_aged(key, name)
        if restored is not None:
            return restored
    fs, ctx = make_fs(name, size_gib=size_gib, num_cpus=num_cpus,
                      track_data=track_data, trace=trace)
    spec = SPECS_BY_NAME[name]
    if spec.ageable:
        ager = Geriatrix(fs, profile, target_utilization=utilization,
                         seed=seed)
        ager.age(ctx, write_volume=int(churn_multiple * size_gib * GIB))
    _reset_after_setup(fs, ctx)
    if use_cache and fs.device.faults is None:
        snapshot_store.save(key, {"fs": fs, "ctx": ctx}, meta={
            "fs": name, "size_gib": size_gib, "num_cpus": num_cpus,
            "utilization": utilization, "churn_multiple": churn_multiple,
            "profile": profile, "seed": seed, "track_data": track_data})
    if load_status not in ("hit", "miss"):
        # the cache had a record for this key but could not serve it
        warnings.warn(f"aged {name} image could not be restored "
                      f"({load_status}); re-aged it", RuntimeWarning,
                      stacklevel=2)
    return fs, ctx
