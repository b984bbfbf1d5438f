"""The view-page sparse store: the oracle the segment-page store is held to.

:class:`~repro.pm.device._SparsePages` keeps a page as a ``bytearray`` or
as a tuple of segments that reference the ``bytes`` objects written into
it.  The store it replaced lives here, verbatim, as the reference the
differential in ``tests/test_pm_device.py`` compares it with: a page a
``bytes`` write covers in full is a read-only ``memoryview`` of the
writer's object, every other page is a copy, and an ``_alias`` registry
(page -> address the viewed object was written at) lets a read of
exactly that object's span return it.  Both stores must read back the
same bytes, hold the same pages in the same order and encode to the
same snapshot stream.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.params import BASE_PAGE

__all__ = ["ReferenceSparsePages"]


class ReferenceSparsePages:
    """Sparse byte store over the PM address space.

    A page is a ``bytearray``, or — for a page a ``bytes`` write covers in
    full — a read-only ``memoryview`` of the writer's own object: an
    immutable payload is referenced, not copied.  A partial write into
    such a *view page* copies it first (copy-on-write).  Only
    ``bytes`` is aliased; a ``bytearray`` source may change after the
    store returns, so it is always copied.
    """

    #: page number -> the device address at which the object a view page
    #: slices was written; meaningful only while that page is a view.
    #: Created by the first aliasing write and never serialized: the
    #: snapshot codec encodes view pages as the bytearrays they stand for.
    _alias: Optional[Dict[int, int]] = None

    def __init__(self, size: int) -> None:
        self._size = size
        self._pages: Dict[int, bytearray] = {}
        # last page touched by a single-page write (inode slots and dir
        # entries hammer the same page): skips the dict probe on a hit.
        # Never a view page, so it is dropped when a view replaces it.
        self._last_no = -1
        self._last_page: Optional[bytearray] = None

    def read(self, addr: int, length: int) -> bytes:
        pages = self._pages
        if self._alias is not None and length >= BASE_PAGE:
            whole = self._aliased(addr, length)
            if whole is not None:
                return whole
        first = addr // BASE_PAGE
        last = (addr + length - 1) // BASE_PAGE
        for page_no in range(first, last + 1):
            if page_no in pages:
                break
        else:
            # nothing in range ever written: absent pages read as zeros
            return bytes(length)
        out = bytearray(length)
        pos = 0
        while pos < length:
            page_no, off = divmod(addr + pos, BASE_PAGE)
            take = min(BASE_PAGE - off, length - pos)
            page = pages.get(page_no)
            if page is not None:
                out[pos:pos + take] = page[off:off + take]
            pos += take
        return bytes(out)

    def _aliased(self, addr: int, length: int) -> Optional[bytes]:
        """The ``bytes`` object a write stored at exactly [addr,
        addr+length), if the span still holds it: every full page still
        references it, and the partial head and tail pages still equal
        it.  None otherwise."""
        pages, alias = self._pages, self._alias
        end = addr + length
        first = -(-addr // BASE_PAGE)       # first full page
        stop = end // BASE_PAGE             # one past the last full page
        view = pages.get(first)
        if type(view) is not memoryview or alias.get(first) != addr:
            return None
        obj = view.obj
        if len(obj) != length:
            return None
        for page_no in range(first + 1, stop):
            view = pages.get(page_no)
            if type(view) is not memoryview or view.obj is not obj \
                    or alias[page_no] != addr:
                return None
        head = first * BASE_PAGE - addr
        if head:
            page = pages.get(first - 1)
            if page is None or page[BASE_PAGE - head:] != obj[:head]:
                return None
        tail = end - stop * BASE_PAGE
        if tail:
            page = pages.get(stop)
            if page is None or page[:tail] != obj[length - tail:]:
                return None
        return obj

    def write(self, addr: int, data: bytes) -> None:
        length = len(data)
        page_no, off = divmod(addr, BASE_PAGE)
        if off + length <= BASE_PAGE \
                and (length < BASE_PAGE or type(data) is not bytes):
            # common case: the write stays inside one page (inode slots,
            # journal entries, indirect blocks are all page-confined)
            if page_no == self._last_no:
                page = self._last_page
            else:
                page = self._pages.get(page_no)
                if page is None:
                    page = bytearray(BASE_PAGE)
                    self._pages[page_no] = page
                elif type(page) is memoryview:
                    page = self._pages[page_no] = bytearray(page)  # CoW
                self._last_no = page_no
                self._last_page = page
            page[off:off + length] = data
            return
        pages = self._pages
        view = alias = None
        if type(data) is bytes and length >= BASE_PAGE:
            view = memoryview(data)
            alias = self._alias
            if alias is None:
                alias = self._alias = {}
        pos = 0
        while pos < length:
            take = BASE_PAGE - off
            if take > length - pos:
                take = length - pos
            if take == BASE_PAGE and view is not None:
                pages[page_no] = view[pos:pos + BASE_PAGE]
                alias[page_no] = addr
                if page_no == self._last_no:
                    self._last_no = -1
                    self._last_page = None
            else:
                page = pages.get(page_no)
                if page is None:
                    page = pages[page_no] = bytearray(BASE_PAGE)
                elif type(page) is memoryview:
                    page = pages[page_no] = bytearray(page)        # CoW
                page[off:off + take] = data[pos:pos + take]
            pos += take
            page_no += 1
            off = 0

    def materialized_bytes(self) -> int:
        return len(self._pages) * BASE_PAGE

    def clone(self) -> "ReferenceSparsePages":
        out = ReferenceSparsePages(self._size)
        out._pages = {k: bytearray(v) for k, v in self._pages.items()}
        return out
