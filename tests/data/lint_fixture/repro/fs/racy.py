"""lock-discipline and degraded-write-guard seeds."""
from repro.vfs.interface import FileSystem


def truncate(self, inode, size, ctx):
    inode.size = size


def truncate_locked(self, inode, size, ctx):
    ctx.locks.acquire(inode.lock_name, ctx.cpu)
    try:
        inode.size = size
    finally:
        ctx.locks.release(inode.lock_name, ctx.cpu)


class BaseFS(FileSystem):
    def write(self, ino, offset, data, ctx):
        self._check_writable()
        self.device.store(offset, data, ctx)
        self.device.persist(offset, len(data), ctx)
        return len(data)

    def write_zeros(self, ino, offset, length, ctx):
        return self.write(ino, offset, b"0" * length, ctx)


class FastFS(BaseFS):
    def write(self, ino, offset, data, ctx):
        ctx.locks.acquire(f"ino:{ino}", ctx.cpu)
        self._check_writable()
        return len(data)
