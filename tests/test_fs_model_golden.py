"""All nine FS models against one recorded scenario.

``tests/data/fs_model_golden.json`` was recorded at the parent of the
commit that moved the store / carve / free / fallback mechanics out of
the baseline modules into ``fs/common/base.py``, so it pins what those
per-model copies produced: simulated clocks, counters, statfs, the
free-space report, every file's bytes after unmount + mount, and — on a
``track_stores=True`` device — the ``(addr, len)`` of every store and the
crash image.  Each model runs twice: on a tracked device (real journal
entries, block-granular store records) and on a fast one (fused persist,
blank journal entries).

Regenerate only for an intended change of simulated behaviour::

    PYTHONPATH=src python tests/test_fs_model_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import asdict

import pytest

from repro.aging import AGRAWAL, Geriatrix
from repro.aging.fragmentation import fragmentation_report
from repro.clock import make_context
from repro.errors import NoSpaceError
from repro.harness import ALL_SPECS, SPECS_BY_NAME
from repro.params import BLOCK_SIZE as B, GIB, HUGE_PAGE
from repro.pm.device import PMDevice

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "fs_model_golden.json")
SIZE = GIB // 16          # 0.0625 GiB
NUM_CPUS = 2              # Strata's per-CPU logs do not fit 64 MiB at 4


class _RecordingDevice(PMDevice):
    """Remembers ``(addr, len)`` of every ``store`` in call order."""

    def __init__(self, size: int, track_stores: bool) -> None:
        super().__init__(size, track_stores=track_stores)
        self.seen = []

    def store(self, addr, data, ctx=None):
        self.seen.append((addr, len(data)))
        super().store(addr, data, ctx)


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _files_digest(fs, ctx):
    """(file count, sha256 over every path, size and content)."""
    h = hashlib.sha256()
    count = 0
    stack = ["/"]
    while stack:
        directory = stack.pop()
        for name in sorted(fs.readdir(directory, ctx)):
            path = directory.rstrip("/") + "/" + name
            st = fs.getattr(path, ctx)
            if st.is_dir:
                stack.append(path)
                continue
            data = fs.open(path, ctx).pread(0, st.size, ctx)
            assert len(data) == st.size
            h.update(f"{path}:{st.size}:{st.blocks}:".encode())
            h.update(data)
            count += 1
    return count, h.hexdigest()


def _image_digest(device) -> str:
    pages = device.crash_image()._store._pages
    h = hashlib.sha256()
    for page_no in sorted(pages):
        if any(pages[page_no]):
            h.update(page_no.to_bytes(8, "little"))
            h.update(pages[page_no])
    return h.hexdigest()


def scenario(name: str, tracked: bool) -> dict:
    device = _RecordingDevice(SIZE, track_stores=tracked)
    fs = SPECS_BY_NAME[name].build(device, NUM_CPUS, track_data=True)
    ctx = make_context(NUM_CPUS)
    c1 = ctx.on_cpu(1)
    fs.mkfs(ctx)
    rng = random.Random(0x601D)
    fs.mkdir("/d", ctx)

    # one write >= 2 MiB asks for aligned extents; the small file lands
    # in holes
    big = fs.create("/d/big", ctx)
    big.pwrite(0, rng.randbytes(HUGE_PAGE + 3 * B + 100), ctx)
    small = fs.create("/d/small", c1)
    small.pwrite(0, rng.randbytes(5 * B + 17), c1)
    # overwrites: inside the aligned extent (WineFS data journal), across
    # its end, unaligned inside the hole-backed file (CoW with partial
    # head and tail blocks), and straddling EOF (overwrite + append)
    big.pwrite(B + 5, rng.randbytes(2 * B), ctx)
    big.pwrite(HUGE_PAGE - 10, rng.randbytes(B), c1)
    small.pwrite(B - 7, rng.randbytes(2 * B + 14), ctx)
    small.pwrite(5 * B, rng.randbytes(3 * B), c1)
    # appends from both CPUs (SplitFS staging), fsync (JBD2 commit / xfs
    # log force / relink), then more of both
    log = fs.create("/d/log", ctx)
    for i in range(6):
        log.append(rng.randbytes(700 + 300 * i), ctx.on_cpu(i % 2))
    log.fsync(ctx)
    log.append(rng.randbytes(B + 1), c1)
    log.pwrite(100, rng.randbytes(900), ctx)
    log.fsync(c1)
    # sparse: a write far past EOF, truncate down then up, writes into
    # the hole the growing truncate left
    sparse = fs.create("/sparse", c1)
    sparse.pwrite(10 * B + 3, rng.randbytes(B), c1)
    sparse.ftruncate(4 * B + 9, c1)
    sparse.ftruncate(64 * B, c1)
    sparse.pwrite(20 * B, rng.randbytes(2 * B), c1)
    sparse.pwrite_zeros(30 * B, 3 * B, ctx)
    # fallocate, then the LMDB pattern: ftruncate past the allocation and
    # touch the hole through a mapping (demand allocation in the fault)
    mapped = fs.create("/mapped", ctx)
    mapped.fallocate(0, 8 * B, ctx)
    mapped.ftruncate(HUGE_PAGE + 16 * B, ctx)
    region = mapped.mmap(ctx, length=HUGE_PAGE + 16 * B)
    region.write(6 * B, rng.randbytes(4 * B), ctx)
    region.write(HUGE_PAGE, rng.randbytes(100), ctx)
    region.read(0, 2 * B, ctx)
    region.unmap()
    # namespace: rename over a live file, unlink, a directory come and gone
    victim = fs.create("/d/victim", ctx)
    victim.pwrite(0, rng.randbytes(3 * B), ctx)
    fs.rename("/d/small", "/d/victim", c1)
    fs.unlink("/d/log", ctx)
    fs.mkdir("/d/sub", c1)
    fs.create("/d/sub/leaf", c1).pwrite(0, rng.randbytes(10), c1)
    fs.unlink("/d/sub/leaf", c1)
    fs.rmdir("/d/sub", c1)
    after_mix = repr(ctx.clock.snapshot())

    # a short age: fill to 60 % and churn half the partition's volume
    aging = Geriatrix(fs, AGRAWAL, 0.6, seed=11, concurrency=4)
    aged = aging.age(ctx, SIZE // 2)
    # one request larger than the largest free run (the allocator pieces
    # it together), then one larger than everything free
    frag = fragmentation_report(fs)
    pieced = fs.create("/pieced", c1)
    pieced.pwrite_zeros(
        0, min(frag.largest_free_extent_blocks + 8, frag.free_blocks) * B, c1)
    pieced.pwrite(B // 2, rng.randbytes(B), c1)
    with pytest.raises(NoSpaceError):
        fs.create("/full", ctx).pwrite_zeros(
            0, (fs.statfs().free_blocks + 1) * B, ctx)

    out = {
        "clock_after_mix": after_mix,
        "aged": repr(aged),
        "statfs": repr(fs.statfs()),
        "fragmentation": asdict(fragmentation_report(fs)),
    }
    if tracked:
        out["stores"] = len(device.seen)
        out["stores_sha256"] = _sha(device.seen)
        out["in_flight"] = len(device._log_seqs)     # stores no fence covers
        out["crash_image_sha256"] = _image_digest(device)
    fs.unmount(ctx)
    fs.mount(ctx)
    out["statfs_after_mount"] = repr(fs.statfs())
    out["files"], out["files_sha256"] = _files_digest(fs, ctx)
    out["clock"] = repr(ctx.clock.snapshot())
    out["counters"] = ctx.counters.as_dict()
    out["device_bytes"] = [device.bytes_read, device.bytes_written]
    return out


def record() -> dict:
    return {spec.name: {mode: scenario(spec.name, mode == "tracked")
                        for mode in ("tracked", "fast")}
            for spec in ALL_SPECS}


@pytest.mark.parametrize("mode", ["tracked", "fast"])
@pytest.mark.parametrize("name", [spec.name for spec in ALL_SPECS])
def test_model_matches_the_recorded_parent(name, mode):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert set(golden) == {spec.name for spec in ALL_SPECS}
    got = json.loads(json.dumps(scenario(name, mode == "tracked")))
    assert got == golden[name][mode]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {os.path.relpath(GOLDEN)}")
