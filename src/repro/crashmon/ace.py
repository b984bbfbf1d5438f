"""ACE-style workload generation (§5.2).

The Automatic Crash Explorer generates small syscall sequences that mutate
file-system metadata; CrashMonkey then crashes the file system inside each
operation.  We generate the same seq-1/seq-2 style workloads: every
metadata-mutating syscall, alone and in pairs, over a small set of paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..clock import SimContext
from ..vfs.interface import FileSystem

@dataclass(frozen=True)
class SyscallOp:
    """One operation in an ACE workload."""

    kind: str
    path: str
    arg: str = ""       # rename destination
    size: int = 0       # bytes for data ops

    def apply(self, fs: FileSystem, ctx: SimContext) -> None:
        if self.kind == "create":
            fs.create(self.path, ctx).close()
        elif self.kind == "mkdir":
            fs.mkdir(self.path, ctx)
        elif self.kind == "unlink":
            fs.unlink(self.path, ctx)
        elif self.kind == "rmdir":
            fs.rmdir(self.path, ctx)
        elif self.kind == "rename":
            fs.rename(self.path, self.arg, ctx)
        elif self.kind == "append":
            f = fs.open(self.path, ctx)
            f.append(b"A" * self.size, ctx)
            f.close()
        elif self.kind == "overwrite":
            f = fs.open(self.path, ctx)
            f.pwrite(0, b"B" * self.size, ctx)
            f.close()
        elif self.kind == "truncate":
            f = fs.open(self.path, ctx)
            f.ftruncate(self.size, ctx)
            f.close()
        elif self.kind == "fallocate":
            f = fs.open(self.path, ctx)
            f.fallocate(0, max(self.size, 1), ctx)
            f.close()
        else:
            raise ValueError(f"unknown op kind {self.kind}")

    def __str__(self) -> str:
        if self.kind == "rename":
            return f"rename({self.path} -> {self.arg})"
        if self.size:
            return f"{self.kind}({self.path}, {self.size})"
        return f"{self.kind}({self.path})"


@dataclass
class AceWorkload:
    """A setup phase (never crashed) plus the crash-tested operations."""

    name: str
    setup: List[SyscallOp] = field(default_factory=list)
    ops: List[SyscallOp] = field(default_factory=list)

    def run_setup(self, fs: FileSystem, ctx: SimContext) -> None:
        for op in self.setup:
            op.apply(fs, ctx)

    def __str__(self) -> str:
        return f"{self.name}: " + "; ".join(str(o) for o in self.ops)


def _seq1_workloads() -> List[AceWorkload]:
    """Every metadata op alone, with the setup it needs."""
    out: List[AceWorkload] = []
    out.append(AceWorkload("create", ops=[SyscallOp("create", "/f0")]))
    out.append(AceWorkload("mkdir", ops=[SyscallOp("mkdir", "/d0")]))
    out.append(AceWorkload(
        "unlink",
        setup=[SyscallOp("create", "/f0"), SyscallOp("append", "/f0", size=5000)],
        ops=[SyscallOp("unlink", "/f0")]))
    out.append(AceWorkload(
        "rmdir", setup=[SyscallOp("mkdir", "/d0")],
        ops=[SyscallOp("rmdir", "/d0")]))
    out.append(AceWorkload(
        "rename",
        setup=[SyscallOp("create", "/f0")],
        ops=[SyscallOp("rename", "/f0", arg="/f1")]))
    out.append(AceWorkload(
        "rename-clobber",
        setup=[SyscallOp("create", "/f0"), SyscallOp("create", "/f1"),
               SyscallOp("append", "/f1", size=4096)],
        ops=[SyscallOp("rename", "/f0", arg="/f1")]))
    out.append(AceWorkload(
        "append", setup=[SyscallOp("create", "/f0")],
        ops=[SyscallOp("append", "/f0", size=6000)]))
    out.append(AceWorkload(
        "overwrite",
        setup=[SyscallOp("create", "/f0"), SyscallOp("append", "/f0", size=8192)],
        ops=[SyscallOp("overwrite", "/f0", size=4096)]))
    out.append(AceWorkload(
        "truncate-shrink",
        setup=[SyscallOp("create", "/f0"), SyscallOp("append", "/f0", size=8192)],
        ops=[SyscallOp("truncate", "/f0", size=1000)]))
    out.append(AceWorkload(
        "truncate-grow",
        setup=[SyscallOp("create", "/f0"), SyscallOp("append", "/f0", size=100)],
        ops=[SyscallOp("truncate", "/f0", size=50000)]))
    out.append(AceWorkload(
        "fallocate", setup=[SyscallOp("create", "/f0")],
        ops=[SyscallOp("fallocate", "/f0", size=3 * 1024 * 1024)]))
    return out


def _seq2_workloads() -> List[AceWorkload]:
    """Pairs of dependent operations (the cross-op reordering cases)."""
    out: List[AceWorkload] = []
    out.append(AceWorkload(
        "create-then-rename",
        ops=[SyscallOp("create", "/f0"),
             SyscallOp("rename", "/f0", arg="/f1")]))
    out.append(AceWorkload(
        "create-then-unlink",
        ops=[SyscallOp("create", "/f0"), SyscallOp("unlink", "/f0")]))
    out.append(AceWorkload(
        "mkdir-then-create",
        ops=[SyscallOp("mkdir", "/d0"), SyscallOp("create", "/d0/f0")]))
    out.append(AceWorkload(
        "append-then-rename",
        setup=[SyscallOp("create", "/f0")],
        ops=[SyscallOp("append", "/f0", size=4096),
             SyscallOp("rename", "/f0", arg="/f1")]))
    out.append(AceWorkload(
        "unlink-then-create",
        setup=[SyscallOp("create", "/f0"),
               SyscallOp("append", "/f0", size=4096)],
        ops=[SyscallOp("unlink", "/f0"), SyscallOp("create", "/f0")]))
    out.append(AceWorkload(
        "two-creates-one-dir",
        setup=[SyscallOp("mkdir", "/d0")],
        ops=[SyscallOp("create", "/d0/a"), SyscallOp("create", "/d0/b")]))
    out.append(AceWorkload(
        "cross-dir-rename",
        setup=[SyscallOp("mkdir", "/d0"), SyscallOp("mkdir", "/d1"),
               SyscallOp("create", "/d0/f")],
        ops=[SyscallOp("rename", "/d0/f", arg="/d1/f")]))
    return out


def _seq3_workloads() -> List[AceWorkload]:
    """Triples of dependent operations (deeper ACE seq-3 cases).

    These stress cross-op reordering through a middle operation: the
    crash explorer enumerates in-flight stores inside every op while the
    preceding ops' effects are already durable.
    """
    out: List[AceWorkload] = []
    out.append(AceWorkload(
        "create-append-rename",
        ops=[SyscallOp("create", "/f0"),
             SyscallOp("append", "/f0", size=4096),
             SyscallOp("rename", "/f0", arg="/f1")]))
    out.append(AceWorkload(
        "create-rename-unlink",
        ops=[SyscallOp("create", "/f0"),
             SyscallOp("rename", "/f0", arg="/f1"),
             SyscallOp("unlink", "/f1")]))
    out.append(AceWorkload(
        "mkdir-create-rename",
        setup=[SyscallOp("mkdir", "/d1")],
        ops=[SyscallOp("mkdir", "/d0"),
             SyscallOp("create", "/d0/f"),
             SyscallOp("rename", "/d0/f", arg="/d1/f")]))
    out.append(AceWorkload(
        "append-truncate-append",
        setup=[SyscallOp("create", "/f0")],
        ops=[SyscallOp("append", "/f0", size=8192),
             SyscallOp("truncate", "/f0", size=1000),
             SyscallOp("append", "/f0", size=3000)]))
    out.append(AceWorkload(
        "create-unlink-create",
        setup=[SyscallOp("create", "/f0"),
               SyscallOp("append", "/f0", size=4096)],
        ops=[SyscallOp("unlink", "/f0"),
             SyscallOp("create", "/f0"),
             SyscallOp("append", "/f0", size=2048)]))
    out.append(AceWorkload(
        "fallocate-overwrite-truncate",
        setup=[SyscallOp("create", "/f0")],
        ops=[SyscallOp("fallocate", "/f0", size=65536),
             SyscallOp("overwrite", "/f0", size=4096),
             SyscallOp("truncate", "/f0", size=512)]))
    return out


def generate_workloads(seq2: bool = True,
                       seq3: bool = False) -> List[AceWorkload]:
    """All ACE workloads (seq-1, optionally + seq-2 and seq-3)."""
    out = _seq1_workloads()
    if seq2:
        out.extend(_seq2_workloads())
    if seq3:
        out.extend(_seq3_workloads())
    return out
