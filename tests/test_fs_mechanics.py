"""The mechanics ``fs/common/base.py`` owns once for every model: the
durable store of file bytes, the pool carve, the free to the owning pool,
the allocation loop's largest-run fallback and its ``alloc`` span; and
the read-only contract of a degraded mount, verb by verb."""

import random

import pytest

from repro.clock import make_context
from repro.crashmon.checker import capture_state
from repro.errors import (CorruptionError, FSError, InvalidArgumentError,
                          NoSpaceError, ReadOnlyError)
from repro.harness import ALL_SPECS, SPECS_BY_NAME
from repro.obs.trace import Tracer
from repro.params import BLOCK_SIZE as B, HUGE_PAGE, MIB
from repro.pm.device import PMDevice
from repro.structures.extents import Extent
from repro.vfs.interface import FileSystem

from tests.oracles.store_log import in_flight_stores

SIZE = 256 * MIB
ALL = [spec.name for spec in ALL_SPECS]
#: the models whose pools BaseFS carves (WineFS carves one pool per CPU,
#: each a whole number of hugepages, from its Layout)
BASE_POOLS = ["ext4-DAX", "xfs-DAX", "PMFS", "SplitFS", "Strata", "NOVA",
              "NOVA-relaxed"]


def _fs(name, *, track_stores=False, size=SIZE, num_cpus=4, trace=None):
    device = PMDevice(size, track_stores=track_stores)
    fs = SPECS_BY_NAME[name].build(device, num_cpus, track_data=True)
    ctx = make_context(num_cpus, trace=trace)
    fs.mkfs(ctx)
    return fs, ctx


def _unfenced_file_data(fs, ino):
    """In-flight store records that overlap a data block of *ino*."""
    extents = list(fs.file_extents(ino))
    out = []
    for rec in in_flight_stores(fs.device):
        first = rec.addr // B
        last = (rec.addr + len(rec.data) - 1) // B
        if any(ext.start <= last and first < ext.start + ext.length
               for ext in extents):
            out.append(rec)
    return out


@pytest.mark.parametrize("name", ALL)
def test_acknowledged_write_is_fenced(name):
    """Once ``write`` / ``write_zeros`` returns, no store to the file's
    data blocks is still waiting for a fence — whatever path the model
    took (in place, data journal, copy-on-write, staged append)."""
    fs, ctx = _fs(name, track_stores=True)
    rng = random.Random(24)
    big = fs.create("/big", ctx)
    small = fs.create("/small", ctx.on_cpu(1))
    steps = [
        (big, 0, rng.randbytes(HUGE_PAGE + 3 * B)),    # aligned extent
        (big, 5 * B + 9, rng.randbytes(2 * B)),        # overwrite inside it
        (small, 0, rng.randbytes(4 * B + 100)),        # append into holes
        (small, B - 50, rng.randbytes(B + 100)),       # unaligned overwrite
        (small, 4 * B, rng.randbytes(2 * B)),          # straddles EOF
        (small, 9 * B, rng.randbytes(10)),             # past EOF
    ]
    for handle, offset, data in steps:
        handle.pwrite(offset, data, ctx)
        assert _unfenced_file_data(fs, handle.ino) == []
        assert handle.pread(offset, len(data), ctx) == data
    small.pwrite_zeros(2 * B + 1, 3 * B, ctx)
    assert _unfenced_file_data(fs, small.ino) == []
    assert small.pread(2 * B + 1, 3 * B, ctx) == bytes(3 * B)
    # and it reached the media: the crash image holds every byte
    image = fs.device.crash_image()
    for handle in (big, small):
        size = fs.getattr_ino(handle.ino).size
        want = handle.pread(0, size, ctx)
        blocks = [b for ext in fs.file_extents(handle.ino)
                  for b in range(ext.start, ext.start + ext.length)]
        got = b"".join(image.load(b * B, B) for b in blocks)[:size]
        assert got == want


@pytest.mark.parametrize("name", BASE_POOLS)
def test_pools_tile_the_data_area(name):
    """The carve leaves no block of the data area outside a pool, the
    remainder of an uneven split included."""
    fs, _ = _fs(name, size=SIZE + 5 * B)
    pools = fs._pools
    assert len(pools) == fs._num_pools()
    assert pools[0].range_start == fs.meta_blocks
    for left, right in zip(pools, pools[1:]):
        assert left.range_end == right.range_start
    assert pools[-1].range_end == fs.total_blocks
    assert sum(p.free_blocks for p in pools) == \
        fs.total_blocks - fs.meta_blocks == fs.statfs().free_blocks
    # every pool but the last has the same size
    assert len({p.range_end - p.range_start for p in pools[:-1]}) <= 1


@pytest.mark.parametrize("name", ["xfs-DAX", "NOVA", "WineFS"])
def test_freed_extent_returns_to_the_pool_owning_its_range(name):
    fs, ctx = _fs(name)
    before = [p.free_blocks for p in fs._pools]
    # one extent inside pool 2, one lying across the 1 | 2 boundary
    boundary = fs._pools[2].range_start
    inside = fs._pools[2].alloc_exact(boundary + 64, 32)
    left = fs._pools[1].alloc_exact(boundary - 8, 8)
    right = fs._pools[2].alloc_exact(boundary, 24)
    assert None not in (inside, left, right)
    fs._free([inside, Extent(boundary - 8, 32)], ctx)
    assert [p.free_blocks for p in fs._pools] == before
    for pool in fs._pools:
        pool.check_invariants()


@pytest.mark.parametrize("name", BASE_POOLS + ["WineFS"])
def test_free_of_a_range_no_pool_owns_is_a_typed_error(name):
    """xfs-DAX used to drop such an extent silently (its ``for`` had no
    ``else``) while NOVA raised: one shared free, one behaviour."""
    fs, ctx = _fs(name)
    free_before = fs.statfs().free_blocks
    with pytest.raises(CorruptionError) as err:
        fs._free([Extent(fs.total_blocks + 8, 4)], ctx)
    assert isinstance(err.value, FSError)
    assert "no pool owns" in str(err.value)
    with pytest.raises(CorruptionError):
        fs._free([Extent(fs.meta_blocks - 2, 1)], ctx)     # metadata area
    assert fs.statfs().free_blocks == free_before


@pytest.mark.parametrize("name", BASE_POOLS)
def test_fragmented_request_is_pieced_from_the_largest_runs(name):
    """No run fits the request: the loop takes the largest run there is,
    again and again; when nothing is left it gives everything back."""
    fs, ctx = _fs(name, size=64 * MIB, num_cpus=2)
    # leave only isolated free runs of 1..6 blocks
    held = []
    for pool in fs._pools:
        cursor, n = pool.range_start, 0
        while cursor + 8 <= pool.range_end:
            held.append(pool.alloc_exact(cursor, 8 - (n % 6 + 1)))
            cursor += 8
            n += 1
        if cursor < pool.range_end:
            held.append(pool.alloc_exact(cursor, pool.range_end - cursor))
    free = fs.statfs().free_blocks
    assert max(p.largest() for p in fs._pools) == 6
    got = fs._alloc(40, ctx)
    assert sum(e.length for e in got) == 40
    assert all(e.length <= 6 for e in got)
    assert got[0].length == 6           # largest first
    assert fs.statfs().free_blocks == free - 40
    with pytest.raises(NoSpaceError):
        fs._alloc(free, ctx)            # more than is left
    assert fs.statfs().free_blocks == free - 40   # the partial grab came back
    fs._free(got, ctx)
    assert fs.statfs().free_blocks == free


@pytest.mark.parametrize("name", ALL)
def test_allocating_fallocate_records_an_alloc_span(name):
    """Every model allocates through the one loop, so every model's
    trace shows the allocation: an ``alloc`` span for the request,
    nested under the ``vfs.fallocate`` that made it."""
    tracer = Tracer()
    fs, ctx = _fs(name, trace=tracer)
    f = fs.create("/f", ctx)
    f.fallocate(0, HUGE_PAGE + 3 * B, ctx)
    spans = {s.span_id: s for s in tracer.spans()}
    (syscall,) = [s for s in spans.values() if s.name == "vfs.fallocate"]
    allocs = [s for s in spans.values() if s.name == "alloc"
              and s.attrs["blocks"] == HUGE_PAGE // B + 3]
    assert len(allocs) == 1
    parent = spans.get(allocs[0].parent_id)
    while parent is not None and parent is not syscall:
        parent = spans.get(parent.parent_id)
    assert parent is syscall


@pytest.mark.parametrize("name", ALL)
def test_failed_write_leaves_the_high_water_mark(name):
    """A write that runs out of space raises the written high-water mark
    no further: bytes below it count as written, so a later DAX fault
    there would skip the zero-fill and map bytes that never were."""
    size = 64 * MIB     # on two CPUs, the smallest Strata's metadata fits
    fs, ctx = _fs(name, size=size, num_cpus=2)
    f = fs.create("/f", ctx)
    f.pwrite(0, b"w" * B, ctx)
    before = fs._inode_for_data(f.ino).written_hwm
    with pytest.raises(NoSpaceError):
        f.pwrite(0, bytes(size + 8 * MIB), ctx)
    assert fs._inode_for_data(f.ino).written_hwm == before


#: every mutating verb of the VFS, as a call on a file system holding
#: ``/d/f`` (inode *ino*) and an empty directory ``/e``
MUTATING_VERBS = {
    "create": lambda fs, ino, ctx: fs.create("/d/new", ctx),
    "unlink": lambda fs, ino, ctx: fs.unlink("/d/f", ctx),
    "mkdir": lambda fs, ino, ctx: fs.mkdir("/d/sub", ctx),
    "rmdir": lambda fs, ino, ctx: fs.rmdir("/e", ctx),
    "rename": lambda fs, ino, ctx: fs.rename("/d/f", "/e/g", ctx),
    "overwrite": lambda fs, ino, ctx: fs.write(ino, 0, b"o" * B, ctx),
    "append": lambda fs, ino, ctx: fs.write(
        ino, fs.getattr_ino(ino).size, b"a" * B, ctx),
    "write_zeros": lambda fs, ino, ctx: fs.write_zeros(ino, 0, 2 * B, ctx),
    "truncate": lambda fs, ino, ctx: fs.truncate(ino, 0, ctx),
    "fallocate": lambda fs, ino, ctx: fs.fallocate(ino, 0, HUGE_PAGE, ctx),
    "setxattr": lambda fs, ino, ctx: fs.setxattr("/d/f", "user.k", b"v", ctx),
}


def _observable(fs, ino):
    """Everything a refused call must leave alone: the device's bytes
    and store count, ``statfs()``, the namespace with every file's
    content, and the file's size and extents."""
    dev = fs.device
    pages = {no: dev._store.read(no * B, B) for no in sorted(dev._store._pages)}
    return (pages, dev.bytes_written, fs.statfs(), capture_state(fs),
            fs.getattr_ino(ino).size, list(fs.file_extents(ino)))


@pytest.mark.parametrize("name,verb", [
    pytest.param(name, verb, id=f"{name}-{verb}")
    for name in ALL for verb in MUTATING_VERBS])
def test_read_only_mount_refuses_every_mutating_verb(name, verb):
    """``errors=remount-ro``: once a mount degrades, every mutating verb
    fails with ``ReadOnlyError`` (``setxattr`` on a model without xattrs
    with ``InvalidArgumentError``) and changes nothing on the device or
    in the namespace."""
    fs, ctx = _fs(name)
    fs.mkdir("/d", ctx)
    fs.mkdir("/e", ctx)
    ino = fs.write_file("/d/f", random.Random(7).randbytes(2 * B + 100),
                        ctx).ino
    fs.remount_read_only("read-only table", ctx)
    before = _observable(fs, ino)
    expected = ReadOnlyError
    if verb == "setxattr" and type(fs).setxattr is FileSystem.setxattr:
        expected = InvalidArgumentError
    with pytest.raises(expected):
        MUTATING_VERBS[verb](fs, ino, ctx)
    assert _observable(fs, ino) == before
