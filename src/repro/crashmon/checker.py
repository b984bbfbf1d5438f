"""Consistency checking for recovered file systems.

Two layers of checks, as in CrashMonkey:

* **atomicity**: the recovered logical state (namespace + file sizes +
  file contents hash) must equal either the pre-operation or the
  post-operation state — metadata operations are atomic, so no
  intermediate state may be observable;
* **internal invariants**: no dangling directory entries, every live
  inode reachable from ``/``, no shared blocks between files, allocator
  accounting matches the live inodes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..clock import make_context
from ..errors import ReproError
from ..vfs.interface import FileSystem


class ConsistencyError(ReproError):
    """A recovered file system violated a crash-consistency guarantee."""


@dataclass(frozen=True)
class LogicalState:
    """Observable state: path -> (is_dir, size, content digest)."""

    entries: Tuple[Tuple[str, Tuple[bool, int, str]], ...]

    def as_dict(self) -> Dict[str, Tuple[bool, int, str]]:
        return dict(self.entries)

    def paths(self) -> List[str]:
        return [p for p, _ in self.entries]


def capture_state(fs: FileSystem, data: bool = True) -> LogicalState:
    """Walk the namespace and digest every file."""
    ctx = make_context(1)
    out: List[Tuple[str, Tuple[bool, int, str]]] = []

    def walk(path: str) -> None:
        for name in sorted(fs.readdir(path, ctx)):
            child = path + name if path == "/" else path + "/" + name
            st = fs.getattr(child, ctx)
            if st.is_dir:
                out.append((child, (True, 0, "")))
                walk(child)
            else:
                digest = ""
                if data:
                    content = fs.read_file(child, ctx)
                    digest = hashlib.sha1(content).hexdigest()
                out.append((child, (False, st.size, digest)))

    walk("/")
    return LogicalState(entries=tuple(sorted(out)))


def states_equal(a: LogicalState, b: LogicalState,
                 compare_data: bool) -> bool:
    da, db = a.as_dict(), b.as_dict()
    if set(da) != set(db):
        return False
    for path, (is_dir, size, digest) in da.items():
        od, osz, odg = db[path]
        if is_dir != od or size != osz:
            return False
        if compare_data and digest != odg:
            return False
    return True


def check_consistency(fs: FileSystem, recovered: LogicalState,
                      pre: LogicalState, post: LogicalState,
                      compare_data: Optional[bool] = None) -> None:
    """Raise ConsistencyError unless *recovered* is pre, post, and sane.

    ``compare_data`` defaults to the file system's declared guarantee:
    data-consistent file systems must recover exact contents; metadata-only
    file systems only have to recover the namespace and sizes.
    """
    if compare_data is None:
        compare_data = fs.data_consistent
    if not (states_equal(recovered, pre, compare_data)
            or states_equal(recovered, post, compare_data)):
        raise ConsistencyError(
            f"recovered state matches neither pre nor post state:\n"
            f"  pre:  {pre.entries}\n"
            f"  post: {post.entries}\n"
            f"  got:  {recovered.entries}")
    check_invariants(fs)


def check_invariants(fs: FileSystem) -> None:
    """Structural invariants, independent of workload expectations."""
    ctx = make_context(1)
    seen_blocks: Dict[int, str] = {}
    reachable = {fs.getattr("/", ctx).ino}

    def walk(path: str) -> None:
        for name in fs.readdir(path, ctx):
            child = path + name if path == "/" else path + "/" + name
            st = fs.getattr(child, ctx)
            reachable.add(st.ino)
            if st.is_dir:
                walk(child)
                return_ = None
            else:
                extents = fs.file_extents(st.ino)
                alloc_bytes = extents.total_blocks * 4096
                if st.size > alloc_bytes and extents.total_blocks > 0:
                    # sparse tails are legal only when truly unallocated
                    pass
                for ext in extents:
                    for block in range(ext.start, ext.end):
                        owner = seen_blocks.get(block)
                        if owner is not None:
                            raise ConsistencyError(
                                f"block {block} shared by {owner} and {child}")
                        seen_blocks[block] = child

    walk("/")
    live = fs.statfs().files
    if live != len(reachable):
        raise ConsistencyError(
            f"{live} live inodes, {len(reachable)} reachable from /")
    # allocator must not consider any live block free
    for ext in fs._free_extent_iter():          # noqa: SLF001
        for block in range(ext.start, ext.end):
            if block in seen_blocks:
                raise ConsistencyError(
                    f"block {block} of {seen_blocks[block]} is on the "
                    "free list")
