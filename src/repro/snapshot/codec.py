"""Pickle-free object-graph codec for simulation snapshots.

Serializes the complete state of an aged file system — device sparse
pages, page tables, allocator pools, journal, inode table, clocks,
counters — as a tagged binary stream that can be restored bit-identically:
floats round-trip as their exact IEEE-754 bytes, dict insertion order is
preserved, and shared references (e.g. the one EventCounters record a
context and its lock manager both hold) come back as shared references.

Unlike pickle, nothing in the stream can execute code on load: only
classes explicitly whitelisted from ``repro``'s own modules may appear,
and instances are rebuilt with ``cls.__new__`` + attribute fills, never
``__reduce__``.  Any object the codec does not understand (callables,
RNGs, open handles, foreign classes) raises :class:`SnapshotUnsupported`
at *encode* time, so callers fall back to recomputing instead of caching
a lie.

Identity rules (what makes restore bit-identical, not just equal):

- Mutable objects (instances, list/dict/set/bytearray) are memoized
  pre-order by ``id()``, so cycles (``RewriteQueue._fs`` → fs) and shared
  handles decode to the same object graph shape.
- Tuples are memoized post-order (they must be built from their elements)
  with an in-progress guard: a cycle routed through a tuple is
  unsupported rather than an infinite loop.
- Dicts decode in encode order, so iteration-order-dependent float
  accumulation replays identically.  Sets are encoded in sorted order to
  keep the stream deterministic.

Format v2, the one :func:`encode` writes and :func:`decode` reads, is a
*columnar fast path* on top of the scalar tagged forms.  Homogeneous
containers are encoded in bulk instead of tag-by-tag:

- lists/tuples whose elements are all plain ints in int64 range become
  one struct-packed ``<q`` vector (``_T_INTLIST`` / ``_T_INTTUPLE``);
- flat ``int -> int`` dicts (page tables, run columns) become one packed
  key/value vector (``_T_INTDICT``), decode order preserved;
- scattered ints (instance attributes, mixed containers) become a
  zigzag varint (``_T_VINT``) instead of the length-prefixed ``_T_INT``
  form — they are the single most common node in an aged image;
- strings are interned: the first occurrence registers into a stream
  string table (``_T_ISTR``), repeats are a varint back-reference
  (``_T_SREF``) — path, name, and lock-key strings repeat heavily;
- instances share *shapes*: the attribute-name tuple of each class state
  is registered once (``_T_OBJECT2``), so the ~5 repeated names per
  instance collapse to a single shape id.

Every bulk form is an opportunistic rewrite of a tagged form with the
exact same memoization position (bulk elements are scalars, which are
never memoized), so shared-ref numbering is identical and anything that
does not qualify falls back to the tagged path — fail-closed, same
``SnapshotUnsupported`` semantics.

The stream is outside input, so :func:`decode` fails closed: whatever is
wrong with a stream raises :class:`SnapshotDecodeError`.  That includes
a v1 stream (plain ``s`` strings, ``o`` instances with inline attribute
names), whose decode branches are gone: every store key has carried a
``FORMAT_VERSION`` of 3 or more since v2 became the default, so a cache
record holding one reads ``stale`` before it is decoded.
"""

from __future__ import annotations

import inspect
import struct
import sys
from array import array
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["SnapshotUnsupported", "SnapshotDecodeError", "encode", "decode"]


class SnapshotUnsupported(SimulationError):
    """The object graph contains state the codec refuses to serialize."""


class SnapshotDecodeError(SimulationError):
    """The stream is corrupt, truncated, or names unknown classes."""


# -- tag bytes ---------------------------------------------------------------

_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_FLOAT = b"d"
_T_BYTES = b"b"
_T_BYTEARRAY = b"y"
_T_ARRAY = b"a"
_T_LIST = b"l"
_T_TUPLE = b"t"
_T_DICT = b"D"
_T_ODICT = b"O"
_T_SET = b"S"
_T_FROZENSET = b"Z"
_T_REF = b"r"
_T_SINGLETON = b"G"

# -- v2 columnar tags (see module docstring) --
_T_INTLIST = b"L"
_T_INTTUPLE = b"U"
_T_INTDICT = b"M"
_T_ISTR = b"I"
_T_SREF = b"R"
_T_OBJECT2 = b"P"
_T_VINT = b"v"

# integer tag values for the decoder: comparing small ints beats slicing
# a one-byte ``bytes`` per node on the decode hot path
(_B_NONE, _B_TRUE, _B_FALSE, _B_INT, _B_FLOAT, _B_BYTES, _B_BYTEARRAY,
 _B_ARRAY, _B_LIST, _B_TUPLE, _B_DICT, _B_ODICT, _B_SET, _B_FROZENSET,
 _B_REF, _B_SINGLETON, _B_INTLIST, _B_INTTUPLE, _B_INTDICT, _B_ISTR,
 _B_SREF, _B_OBJECT2, _B_VINT) = (
    tag[0] for tag in (
        _T_NONE, _T_TRUE, _T_FALSE, _T_INT, _T_FLOAT, _T_BYTES, _T_BYTEARRAY,
        _T_ARRAY, _T_LIST, _T_TUPLE, _T_DICT, _T_ODICT, _T_SET,
        _T_FROZENSET, _T_REF, _T_SINGLETON, _T_INTLIST, _T_INTTUPLE,
        _T_INTDICT, _T_ISTR, _T_SREF, _T_OBJECT2, _T_VINT))

#: zigzag varints qualify for ints in (-2^62, 2^62): the encoded value
#: stays within the decoder's 70-bit varint guard with room to spare
_VINT_BOUND = 1 << 62

_F64 = struct.Struct("<d")

# graphs nest through object attributes and containers, one encoder frame
# pair per level; headroom for depths the default limit would cut short
_RECURSION_LIMIT = 50_000


def _write_uvarint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise SnapshotDecodeError("truncated snapshot stream")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def uvarint(self) -> int:
        shift = 0
        value = 0
        data, pos = self.data, self.pos
        while True:
            if pos >= len(data):
                raise SnapshotDecodeError("truncated varint")
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self.pos = pos
                return value
            shift += 7
            if shift > 70:
                raise SnapshotDecodeError("varint too long")


# -- class whitelist ---------------------------------------------------------

#: modules whose classes may appear in a snapshot.  Everything the aged
#: (fs, ctx) graph can reach must be defined in one of these; transient
#: helper classes defined here but never reached are harmless.
_MODULE_WHITELIST = (
    "repro.clock",
    "repro.params",
    "repro.obs.trace",
    "repro.pm.device",
    "repro.pm.zeros",
    "repro.mmu.page_table",
    "repro.mmu.tlb",
    "repro.mmu.cache",
    "repro.mmu.mmap_region",
    "repro.core.filesystem",
    "repro.core.layout",
    "repro.core.journal",
    "repro.core.rewrite",
    "repro.structures.extents",
    "repro.structures.runstore",
    "repro.structures.stats",
    "repro.fs.common.base",
    "repro.fs.common.inode",
    "repro.fs.common.freespace",
    "repro.fs.common.dirindex",
    "repro.fs.ext4dax",
    "repro.fs.nova",
    "repro.fs.pmfs",
    "repro.fs.splitfs",
    "repro.fs.strata",
    "repro.fs.xfsdax",
    "repro.vfs.interface",
    "repro.aging.profiles",
)

_whitelist: Optional[Dict[str, type]] = None


def _class_whitelist() -> Dict[str, type]:
    global _whitelist
    if _whitelist is None:
        import importlib

        table: Dict[str, type] = {}
        for modname in _MODULE_WHITELIST:
            module = importlib.import_module(modname)
            for _, cls in inspect.getmembers(module, inspect.isclass):
                if cls.__module__ == modname:
                    table[f"{modname}:{cls.__qualname__}"] = cls
        _whitelist = table
    return _whitelist


def _class_tag(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _slot_names(cls: type) -> List[str]:
    names: List[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__"):
                names.append(name)
    return names


def _default_get_state(obj: Any) -> List[Tuple[str, Any]]:
    state: List[Tuple[str, Any]] = []
    for name in _slot_names(type(obj)):
        try:
            state.append((name, getattr(obj, name)))
        except AttributeError:
            pass  # unset slot
    if hasattr(obj, "__dict__"):
        state.extend(obj.__dict__.items())
    return state


# -- per-class state filters -------------------------------------------------

def _sparse_pages_state(store: Any) -> List[Tuple[str, Any]]:
    """A segment page encodes as the bytearray it stands for, and the
    single-page write cache as that same bytearray: the stream is the
    one the same store would give had it copied every write."""
    from ..pm.device import _materialize

    pages = {page_no: page if type(page) is bytearray else _materialize(page)
             for page_no, page in store._pages.items()}
    state: List[Tuple[str, Any]] = []
    for name, value in store.__dict__.items():
        if name == "_pages":
            value = pages
        elif name == "_last_page" and value is not None:
            value = pages[store._last_no]
        state.append((name, value))
    return state


def _state_filters() -> Dict[type, Callable[[Any], List[Tuple[str, Any]]]]:
    from ..pm.device import _SparsePages

    return {_SparsePages: _sparse_pages_state}


def _singletons() -> List[Any]:
    """Module-level singletons restored by identity, never by value."""
    from ..obs.trace import NULL_TRACER

    return [NULL_TRACER]


# -- encoder -----------------------------------------------------------------

class _Encoder:
    def __init__(self) -> None:
        #: the stream, built in place: joining per-node pieces costs a
        #: buffer export per piece, far more than the stream itself
        self.out = bytearray()
        self.memo: Dict[int, int] = {}
        self.memo_next = 0
        self.in_progress: set = set()
        self.class_ids: Dict[type, int] = {}
        self.whitelist = _class_whitelist()
        self.filters = _state_filters()
        self.alive: List[Any] = []
        self.singleton_ids = {id(obj): i for i, obj in enumerate(_singletons())}
        self.strings: Dict[str, int] = {}
        self.shapes: Dict[Tuple[str, ...], int] = {}

    def _encode_str(self, value: str) -> None:
        """Intern-table back-reference or register-and-emit."""
        out = self.out
        sref = self.strings.get(value)
        if sref is not None:
            out += _T_SREF
            _write_uvarint(out, sref)
            return
        self.strings[value] = len(self.strings)
        raw = value.encode("utf-8")
        out += _T_ISTR
        _write_uvarint(out, len(raw))
        out += raw

    @staticmethod
    def _pack_ints(values: Any) -> Optional[bytes]:
        """``<q``-packed machine bytes, or None if any element does not
        qualify (non-int, bool, or outside int64)."""
        try:
            if not all(type(v) is int for v in values):
                return None
            return array("q", values).tobytes()
        except OverflowError:
            return None

    def _memoize(self, obj: Any) -> None:
        self.memo[id(obj)] = self.memo_next
        self.memo_next += 1

    def encode(self, obj: Any) -> None:
        out = self.out
        if obj is None:
            out += _T_NONE
            return
        if obj is True:
            out += _T_TRUE
            return
        if obj is False:
            out += _T_FALSE
            return
        kind = type(obj)
        if kind is int:
            if -_VINT_BOUND < obj < _VINT_BOUND:
                out += _T_VINT
                # zigzag: obj >> 62 is -1 for negatives, 0 otherwise
                _write_uvarint(out, (obj << 1) ^ (obj >> 62))
                return
            out += _T_INT
            raw = obj.to_bytes((obj.bit_length() + 8) // 8 or 1,
                               "little", signed=True)
            _write_uvarint(out, len(raw))
            out += raw
            return
        if kind is float:
            out += _T_FLOAT
            out += _F64.pack(obj)
            return
        if kind is str:
            self._encode_str(obj)
            return
        if kind is bytes:
            out += _T_BYTES
            _write_uvarint(out, len(obj))
            out += obj
            return
        ref = self.memo.get(id(obj))
        if ref is not None:
            out += _T_REF
            _write_uvarint(out, ref)
            return
        singleton = self.singleton_ids.get(id(obj))
        if singleton is not None:
            out += _T_SINGLETON
            _write_uvarint(out, singleton)
            return
        if kind is tuple:
            if obj:
                raw = self._pack_ints(obj)
                if raw is not None:
                    out += _T_INTTUPLE
                    _write_uvarint(out, len(obj))
                    out += raw
                    self._memoize(obj)  # same post-order slot as _T_TUPLE
                    return
            if id(obj) in self.in_progress:
                raise SnapshotUnsupported("reference cycle through a tuple")
            self.in_progress.add(id(obj))
            out += _T_TUPLE
            _write_uvarint(out, len(obj))
            for item in obj:
                self.encode(item)
            self.in_progress.discard(id(obj))
            self._memoize(obj)  # post-order: decoder memoizes after build
            return
        self._memoize(obj)  # pre-order: decoder registers a placeholder
        if kind is bytearray:
            out += _T_BYTEARRAY
            _write_uvarint(out, len(obj))
            out += obj
            return
        if kind is array:
            # typecode + machine bytes: exact for the int codes, and for
            # 'd'/'f' the IEEE-754 bytes round-trip bit-identically
            out += _T_ARRAY
            code = obj.typecode.encode("ascii")
            _write_uvarint(out, len(code))
            out += code
            raw = obj.tobytes()
            _write_uvarint(out, len(raw))
            out += raw
            return
        if kind is list:
            if obj:
                raw = self._pack_ints(obj)
                if raw is not None:
                    out += _T_INTLIST
                    _write_uvarint(out, len(obj))
                    out += raw
                    return
            out += _T_LIST
            _write_uvarint(out, len(obj))
            for item in obj:
                self.encode(item)
            return
        if kind is dict or kind is OrderedDict:
            if obj and kind is dict:
                first_k, first_v = next(iter(obj.items()))
                if type(first_k) is int and type(first_v) is int:
                    flat: List[int] = []
                    for key, value in obj.items():
                        flat.append(key)
                        flat.append(value)
                    raw = self._pack_ints(flat)
                    if raw is not None:
                        out += _T_INTDICT
                        _write_uvarint(out, len(obj))
                        out += raw
                        return
            out += _T_DICT if kind is dict else _T_ODICT
            _write_uvarint(out, len(obj))
            for key, value in obj.items():
                self.encode(key)
                self.encode(value)
            return
        if kind is set or kind is frozenset:
            out += _T_SET if kind is set else _T_FROZENSET
            _write_uvarint(out, len(obj))
            try:
                items = sorted(obj)
            except TypeError:
                items = sorted(obj, key=repr)
            for item in items:
                self.encode(item)
            return
        self._encode_instance(obj, kind)

    def _encode_instance(self, obj: Any, kind: type) -> None:
        tag = _class_tag(kind)
        if self.whitelist.get(tag) is not kind:
            raise SnapshotUnsupported(
                f"object of type {tag} is not snapshot-whitelisted")
        out = self.out
        out += _T_OBJECT2
        class_id = self.class_ids.get(kind)
        if class_id is None:
            class_id = len(self.class_ids)
            self.class_ids[kind] = class_id
            _write_uvarint(out, class_id)
            raw = tag.encode("utf-8")
            _write_uvarint(out, len(raw))
            out += raw
        else:
            _write_uvarint(out, class_id)
        get_state = self.filters.get(kind)
        if get_state is None:
            state = _default_get_state(obj)
        else:
            state = get_state(obj)
            # a filter may build containers no one else holds: keep them
            # alive to the end of the stream, or a later object could be
            # allocated at a memoized id and encode as a reference to them
            self.alive.append(state)
        # shape = the attribute-name tuple, registered once per distinct
        # sequence; instances of a class almost always share one shape, so
        # per-instance name bytes collapse to one varint
        shape = tuple(name for name, _ in state)
        shape_id = self.shapes.get(shape)
        if shape_id is None:
            shape_id = len(self.shapes)
            self.shapes[shape] = shape_id
            _write_uvarint(out, shape_id)
            _write_uvarint(out, len(shape))
            for name in shape:
                self._encode_str(name)
        else:
            _write_uvarint(out, shape_id)
        for _name, value in state:
            self.encode(value)


# -- decoder -----------------------------------------------------------------

class _Decoder:
    def __init__(self, data: bytes) -> None:
        self.reader = _Reader(data)
        self.memo: List[Any] = []
        self.classes: List[type] = []
        self.whitelist = _class_whitelist()
        self.singletons = _singletons()
        self.strings: List[str] = []
        self.shapes: List[Tuple[str, ...]] = []

    def _unpack_ints(self, count: int) -> List[int]:
        arr = array("q")
        arr.frombytes(self.reader.take(count * 8))
        return arr.tolist()

    def decode(self) -> Any:
        # dispatch is ordered by measured tag frequency in aged-image
        # streams: scattered ints, refs, instances, then everything else
        r = self.reader
        pos = r.pos
        data = r.data
        if pos >= len(data):
            raise SnapshotDecodeError("truncated snapshot stream")
        tag = data[pos]
        r.pos = pos + 1
        if tag == _B_VINT:
            zigzag = r.uvarint()
            return (zigzag >> 1) ^ -(zigzag & 1)
        if tag == _B_REF:
            index = r.uvarint()
            if index >= len(self.memo):
                raise SnapshotDecodeError(f"dangling memo ref {index}")
            return self.memo[index]
        if tag == _B_OBJECT2:
            return self._decode_instance_v2()
        if tag == _B_SREF:
            index = r.uvarint()
            if index >= len(self.strings):
                raise SnapshotDecodeError(f"dangling string ref {index}")
            return self.strings[index]
        if tag == _B_LIST:
            count = r.uvarint()
            obj: List[Any] = []
            self.memo.append(obj)
            for _ in range(count):
                obj.append(self.decode())
            return obj
        if tag == _B_NONE:
            return None
        if tag == _B_TRUE:
            return True
        if tag == _B_FALSE:
            return False
        if tag == _B_ISTR:
            value = r.take(r.uvarint()).decode("utf-8")
            self.strings.append(value)
            return value
        if tag == _B_BYTEARRAY:
            obj = bytearray(r.take(r.uvarint()))
            self.memo.append(obj)
            return obj
        if tag == _B_DICT or tag == _B_ODICT:
            count = r.uvarint()
            mapping: Dict[Any, Any] = {} if tag == _B_DICT else OrderedDict()
            self.memo.append(mapping)
            for _ in range(count):
                key = self.decode()
                mapping[key] = self.decode()
            return mapping
        if tag == _B_TUPLE:
            count = r.uvarint()
            obj = tuple(self.decode() for _ in range(count))
            self.memo.append(obj)
            return obj
        if tag == _B_INTTUPLE:
            obj = tuple(self._unpack_ints(r.uvarint()))
            self.memo.append(obj)  # same post-order slot as _T_TUPLE
            return obj
        if tag == _B_INTLIST:
            obj = self._unpack_ints(r.uvarint())
            self.memo.append(obj)  # elements are scalars: same slot as _T_LIST
            return obj
        if tag == _B_INTDICT:
            count = r.uvarint()
            flat = iter(self._unpack_ints(count * 2))
            mapping = dict(zip(flat, flat))
            if len(mapping) != count:
                raise SnapshotDecodeError("duplicate keys in packed dict")
            self.memo.append(mapping)
            return mapping
        if tag == _B_INT:
            raw = r.take(r.uvarint())
            return int.from_bytes(raw, "little", signed=True)
        if tag == _B_FLOAT:
            return _F64.unpack(r.take(8))[0]
        if tag == _B_BYTES:
            return r.take(r.uvarint())
        if tag == _B_SINGLETON:
            index = r.uvarint()
            if index >= len(self.singletons):
                raise SnapshotDecodeError(f"unknown singleton {index}")
            return self.singletons[index]
        if tag == _B_ARRAY:
            arr = array(r.take(r.uvarint()).decode("ascii"))
            arr.frombytes(r.take(r.uvarint()))
            self.memo.append(arr)
            return arr
        if tag == _B_SET:
            count = r.uvarint()
            items: set = set()
            self.memo.append(items)
            for _ in range(count):
                items.add(self.decode())
            return items
        if tag == _B_FROZENSET:
            count = r.uvarint()
            placeholder = len(self.memo)
            self.memo.append(None)
            frozen = frozenset(self.decode() for _ in range(count))
            self.memo[placeholder] = frozen
            return frozen
        raise SnapshotDecodeError(f"unknown tag {bytes((tag,))!r}")

    def _decode_class(self) -> type:
        r = self.reader
        class_id = r.uvarint()
        if class_id == len(self.classes):
            name = r.take(r.uvarint()).decode("utf-8")
            cls = self.whitelist.get(name)
            if cls is None:
                raise SnapshotDecodeError(
                    f"snapshot names unknown class {name!r}")
            self.classes.append(cls)
            return cls
        if class_id < len(self.classes):
            return self.classes[class_id]
        raise SnapshotDecodeError(f"bad class id {class_id}")

    def _decode_instance_v2(self) -> Any:
        r = self.reader
        cls = self._decode_class()
        obj = cls.__new__(cls)
        self.memo.append(obj)
        shape_id = r.uvarint()
        if shape_id == len(self.shapes):
            names = []
            for _ in range(r.uvarint()):
                name = self.decode()
                if type(name) is not str:
                    raise SnapshotDecodeError("shape name is not a string")
                names.append(name)
            shape: Tuple[str, ...] = tuple(names)
            self.shapes.append(shape)
        elif shape_id < len(self.shapes):
            shape = self.shapes[shape_id]
        else:
            raise SnapshotDecodeError(f"bad shape id {shape_id}")
        setter = object.__setattr__  # works for __slots__ and frozen classes
        decode = self.decode
        for name in shape:
            setter(obj, name, decode())
        return obj


def encode(root: Any) -> bytes:
    """Serialize *root* (typically an ``{"fs": ..., "ctx": ...}`` dict)."""
    limit = sys.getrecursionlimit()
    if limit < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        enc = _Encoder()
        enc.encode(root)
        return bytes(enc.out)
    finally:
        if limit < _RECURSION_LIMIT:
            sys.setrecursionlimit(limit)


def decode(data: bytes) -> Any:
    """Rebuild the object graph of a stream :func:`encode` wrote; any
    other stream raises :class:`SnapshotDecodeError`."""
    limit = sys.getrecursionlimit()
    if limit < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        dec = _Decoder(data)
        try:
            root = dec.decode()
        except (TypeError, ValueError, AttributeError, RecursionError) as exc:
            # an unhashable set member or dict key, bad UTF-8, an array
            # typecode or length that does not fit, an attribute a slotted
            # class lacks, nesting deeper than the recursion limit
            raise SnapshotDecodeError(
                f"malformed snapshot stream: {exc!r}") from exc
        if dec.reader.pos != len(dec.reader.data):
            raise SnapshotDecodeError("trailing bytes after snapshot root")
        return root
    finally:
        if limit < _RECURSION_LIMIT:
            sys.setrecursionlimit(limit)
