"""Utility workload models (paper §5.5, "Other utilities").

The paper evaluates kernel compilation, tar, and rsync and reports that
"Linux kernel compilation ... takes similar time across all PM file
systems" — utility workloads are CPU-bound or read-dominated, so the file
system barely matters.  These models reproduce the access patterns:

* **kernel compile**: read many small sources, write objects, link a few
  large outputs; dominated by per-file compile CPU time;
* **tar**: read a tree sequentially, append one large archive;
* **rsync**: walk a source tree, copy to a destination tree in 128KB
  chunks, carrying xattrs (which is how WineFS propagates alignment,
  §3.6 — see :mod:`tests.test_integration` for that property).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import SimContext
from ..errors import ReproError
from ..params import KIB, MIB
from ..rng import make_rng
from ..vfs.interface import FileSystem

#: per-translation-unit compile time dominates kernel builds
_COMPILE_NS_PER_FILE = 60_000.0
#: rsync per-file metadata chatter (stat, checksum negotiation)
_RSYNC_FILE_NS = 2_000.0


@dataclass
class UtilityResult:
    fs_name: str
    utility: str
    files: int
    bytes_moved: int
    elapsed_ns: float

    @property
    def seconds(self) -> float:
        return self.elapsed_ns / 1e9


def _build_tree(fs: FileSystem, ctx: SimContext, root: str, nfiles: int,
                mean_size: int, seed: int) -> list:
    rng = make_rng(seed)
    if not fs.exists(root):
        fs.mkdir(root, ctx)
    paths = []
    for i in range(nfiles):
        d = f"{root}/d{i % 8}"
        if not fs.exists(d):
            fs.mkdir(d, ctx)
        path = f"{d}/s{i}"
        f = fs.create(path, ctx)
        size = max(256, int(rng.expovariate(1.0 / mean_size)))
        f.append(b"\x00" * size, ctx)
        f.close()
        paths.append(path)
    return paths


def run_kernel_compile(fs: FileSystem, ctx: SimContext, *,
                       nfiles: int = 300, seed: int = 0) -> UtilityResult:
    """Read sources, emit objects, link: compile CPU time dominates."""
    sources = _build_tree(fs, ctx, "/src", nfiles, 8 * KIB, seed)
    start_ns = ctx.clock.elapsed
    moved = 0
    for i, path in enumerate(sources):
        c = ctx.on_cpu(i % ctx.clock.num_cpus)
        data = fs.read_file(path, c)
        c.charge(_COMPILE_NS_PER_FILE)
        obj = fs.create(path + ".o", c)
        obj.append(b"\x00" * max(1, len(data) * 2), c)
        obj.close()
        moved += len(data) * 3
    # link a handful of large outputs
    for j in range(4):
        out = fs.create(f"/src/vmlinux{j}", ctx)
        out.append(b"\x00" * (4 * MIB), ctx)
        out.fsync(ctx)
        moved += 4 * MIB
    return UtilityResult(fs.name, "kernel-compile", nfiles, moved,
                         ctx.clock.elapsed - start_ns)


def run_tar(fs: FileSystem, ctx: SimContext, *,
            nfiles: int = 300, seed: int = 0) -> UtilityResult:
    """Sequentially read a tree and append one large archive."""
    sources = _build_tree(fs, ctx, "/tree", nfiles, 16 * KIB, seed)
    start_ns = ctx.clock.elapsed
    archive = fs.create("/tree.tar", ctx)
    moved = 0
    for path in sources:
        data = fs.read_file(path, ctx)
        header = b"\x00" * 512
        archive.append(header + data, ctx)
        moved += len(data) + 512
    archive.fsync(ctx)
    return UtilityResult(fs.name, "tar", nfiles, moved,
                         ctx.clock.elapsed - start_ns)


def run_rsync(fs: FileSystem, ctx: SimContext, *,
              nfiles: int = 300, seed: int = 0) -> UtilityResult:
    """Walk a source tree and copy it to a destination tree in chunks."""
    sources = _build_tree(fs, ctx, "/rsrc", nfiles, 16 * KIB, seed)
    start_ns = ctx.clock.elapsed
    fs.mkdir("/rdst", ctx)
    moved = 0
    for path in sources:
        ctx.charge(_RSYNC_FILE_NS)
        src = fs.open(path, ctx)
        size = fs.getattr_ino(src.ino).size
        dst_dir = "/rdst/" + path.split("/")[2]
        if not fs.exists(dst_dir):
            fs.mkdir(dst_dir, ctx)
        dst = fs.create(dst_dir + "/" + path.split("/")[-1], ctx)
        # carry xattrs, as rsync -X does (propagates WineFS alignment)
        try:
            hint = fs.getxattr(path, "user.winefs.aligned", ctx)
            fs.setxattr(dst.path, "user.winefs.aligned", hint, ctx)
        except ReproError:
            pass
        pos = 0
        while pos < size:
            take = min(128 * KIB, size - pos)
            dst.pwrite(pos, src.pread(pos, take, ctx), ctx)
            pos += take
        # rsync does not fsync per file by default
        moved += size
    return UtilityResult(fs.name, "rsync", nfiles, moved,
                         ctx.clock.elapsed - start_ns)


UTILITIES = {
    "kernel-compile": run_kernel_compile,
    "tar": run_tar,
    "rsync": run_rsync,
}
