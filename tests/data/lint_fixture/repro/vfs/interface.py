"""The FileSystem root the degraded-write-guard seeds hang off."""


class FileSystem:
    def _check_mounted(self):
        pass

    def _check_writable(self):
        pass

    def setattr(self, inode, size, ctx):
        inode.size = size
