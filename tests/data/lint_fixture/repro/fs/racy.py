"""lock-discipline seeds: an unlocked inode write (flagged) and a
locked one (clean)."""


def truncate(self, inode, size, ctx):
    inode.size = size


def truncate_locked(self, inode, size, ctx):
    ctx.locks.acquire(inode.lock_name, ctx.cpu)
    try:
        inode.size = size
    finally:
        ctx.locks.release(inode.lock_name, ctx.cpu)
