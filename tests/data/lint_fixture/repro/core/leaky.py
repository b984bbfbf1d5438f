"""persist-before-commit seeds."""


class Journal:
    def append(self, ctx, data):
        self.device.store(0, data, ctx)
        self._txn.commit(ctx)

    def append_flushed_only(self, ctx, data):
        self.device.store(0, data, ctx)
        self.device.clwb(0, ctx)
        self._txn.commit(ctx)

    def append_durable(self, ctx, data):
        self.device.store(0, data, ctx)
        self.device.clwb(0, ctx)
        self.device.sfence(ctx)
        self._txn.commit(ctx)


class FS:
    def write_meta(self, ctx, data):
        self.device.store(0, data, ctx)
        self._finish(ctx)

    def _finish(self, ctx):
        self._journal.commit(ctx)

    def update(self, ctx, inode):
        with self._meta_txn(ctx, entries=2):
            self.device.store(inode, b"x", ctx)
