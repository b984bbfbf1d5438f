"""A lock-discipline seed in a method of a repro.vfs class."""


class FileSystem:
    def _check_mounted(self):
        pass

    def _check_writable(self):
        pass

    def setattr(self, inode, size, ctx):
        inode.size = size
