"""MPI datatypes: basic types and derived (contiguous/vector/indexed).

A datatype describes which elements of a buffer a message covers.  Our
representation reduces every datatype to a *flat element-offset map*
over its underlying basic type:

* ``_elem_offsets`` — the basic-element offsets of one item;
* ``extent_elems`` — the stride (in basic elements) between consecutive
  items of the type.

``pack`` turns those elements into wire bytes; ``unpack`` writes wire
bytes back into a buffer.  Buffers are NumPy arrays (for numeric types)
or bytes-like objects — ``bytes``, ``bytearray``, ``memoryview`` — for
1-byte types.  MPI_Type_struct is covered by NumPy *structured dtypes*:
``from_numpy_dtype`` on a record dtype yields a BasicType whose itemsize
is the whole record, and the derived constructors compose over it (e.g.
a Vector of every other particle record).

Contiguous types go straight from the user buffer: for every buffer
kind, ``pack`` is one slice copied into the wire bytes and ``unpack``
one slice assignment, with no offset map built or kept.  Only
noncontiguous types gather/scatter through an offset map (cached per
count) — the devices charge a per-byte copy for those, the distinction
the paper's low-latency path exploits.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.mpi.exceptions import DatatypeError

__all__ = [
    "Datatype",
    "BasicType",
    "Contiguous",
    "Vector",
    "Indexed",
    "BYTE",
    "CHAR",
    "INT",
    "LONG",
    "FLOAT",
    "DOUBLE",
    "infer_datatype",
    "from_numpy_dtype",
]

BufferLike = Union[np.ndarray, bytes, bytearray, memoryview]


class Datatype:
    """Base class.  Subclasses set ``name`` and ``basic``, then fix the
    element map with :meth:`_layout`."""

    basic: "BasicType"
    _elem_offsets: np.ndarray
    extent_elems: int
    name: str
    #: bytes of message data per item of this type
    size: int
    #: True if items pack with no gather (straight memory copy)
    contiguous: bool

    def _layout(self, elem_offsets: np.ndarray, extent_elems: int) -> None:
        """Fix the element map of one item.  Datatypes are immutable, so
        everything pack/unpack derive from the map is derived here, once."""
        n = len(elem_offsets)
        self._elem_offsets = elem_offsets
        self.extent_elems = extent_elems
        self.size = n * self.basic.itemsize
        self.contiguous = extent_elems == n and bool(
            np.array_equal(elem_offsets, np.arange(n)))
        # elements of buffer that count items reach:
        # (count - 1) * extent_elems + _reach, for any count >= 1
        self._reach = int(elem_offsets.max()) + 1
        # gather/scatter maps by count; only a noncontiguous type fills it
        self._offs_cache = {}

    @property
    def extent(self) -> int:
        """Bytes of buffer spanned by one item (stride between items)."""
        return self.extent_elems * self.basic.itemsize

    def offsets(self, count: int) -> np.ndarray:
        """Flat basic-element offsets covered by *count* items (read-only).

        This is the map a noncontiguous type gathers and scatters
        through.  A contiguous type never needs it: its pack and unpack
        slice the user buffer directly, whatever the buffer kind.
        """
        if count < 0:
            raise DatatypeError(f"negative count {count}")
        base = np.arange(count, dtype=np.intp) * self.extent_elems
        offs = (base[:, None] + self._elem_offsets[None, :]).ravel()
        offs.flags.writeable = False
        return offs

    def _gather_offsets(self, count: int) -> np.ndarray:
        offs = self._offs_cache.get(count)
        if offs is None:
            offs = self._offs_cache[count] = self.offsets(count)
        return offs

    # -- buffer access -------------------------------------------------------
    def _as_flat_array(self, buf: BufferLike, writable: bool) -> np.ndarray:
        """*buf* as a flat array of basic elements: a view, except for a
        strided memoryview (copied) or a non-contiguous ndarray."""
        if isinstance(buf, np.ndarray):
            if buf.dtype != self.basic.np_dtype:
                raise DatatypeError(
                    f"buffer dtype {buf.dtype} does not match datatype {self.name} "
                    f"({self.basic.np_dtype})"
                )
            if writable and not buf.flags.writeable:
                raise DatatypeError("receive buffer is not writable")
            return buf.reshape(-1)
        if isinstance(buf, (bytes, bytearray, memoryview)):
            if self.basic.itemsize != 1:
                raise DatatypeError(
                    f"bytes-like buffer requires a 1-byte datatype, not {self.name}"
                )
            if writable:
                if isinstance(buf, bytes):
                    raise DatatypeError("receive buffer is immutable bytes")
            elif isinstance(buf, memoryview) and not buf.c_contiguous:
                buf = buf.tobytes()  # a strided view has no flat byte view
            return np.frombuffer(buf, dtype=np.uint8)
        raise DatatypeError(f"unsupported buffer type {type(buf).__name__}")

    def _check_reach(self, op: str, count: int, flat: np.ndarray) -> None:
        if count:
            need = (count - 1) * self.extent_elems + self._reach
            if need > flat.size:
                raise DatatypeError(
                    f"{op} of {count} x {self.name} needs {need} elements, "
                    f"buffer has {flat.size}"
                )

    def pack(self, buf: BufferLike, count: int) -> bytes:
        """Gather *count* items from *buf* into wire bytes.

        The result is a new ``bytes`` object on every call, never *buf*
        itself — not even for a ``bytes`` buffer the message covers
        whole.  The rdma device's registration cache keys on buffer
        identity: a ping-pong that echoes the received object would
        otherwise turn its registration misses into hits.
        """
        if count < 0:
            raise DatatypeError(f"negative count {count}")
        flat = self._as_flat_array(buf, writable=False)
        self._check_reach("pack", count, flat)
        if self.contiguous:
            return flat[:count * self.extent_elems].tobytes()
        return flat[self._gather_offsets(count)].tobytes()

    def unpack(self, data: bytes, buf: BufferLike, count: int) -> None:
        """Scatter wire bytes into *buf* as *count* items."""
        if count < 0:
            raise DatatypeError(f"negative count {count}")
        expected = count * self.size
        if len(data) != expected:
            raise DatatypeError(
                f"unpack of {count} x {self.name} expects {expected} bytes, got {len(data)}"
            )
        flat = self._as_flat_array(buf, writable=True)
        self._check_reach("unpack", count, flat)
        wire = np.frombuffer(data, dtype=self.basic.np_dtype)
        if self.contiguous:
            flat[:count * self.extent_elems] = wire
        else:
            flat[self._gather_offsets(count)] = wire

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Datatype {self.name} size={self.size} extent={self.extent}>"


class BasicType(Datatype):
    """A primitive type backed by a NumPy scalar dtype."""

    def __init__(self, name: str, np_dtype):
        self.name = name
        self.np_dtype = np.dtype(np_dtype)
        self.itemsize = self.np_dtype.itemsize
        self.basic = self
        self._layout(np.arange(1, dtype=np.intp), 1)


class Contiguous(Datatype):
    """*count* consecutive items of *base* (MPI_Type_contiguous)."""

    def __init__(self, count: int, base: Datatype):
        if count < 1:
            raise DatatypeError(f"Contiguous count must be >= 1, got {count}")
        self.name = f"contig({count},{base.name})"
        self.basic = base.basic
        self._layout(base.offsets(count), count * base.extent_elems)


class Vector(Datatype):
    """*count* blocks of *blocklength* items, stride *stride* items apart
    (MPI_Type_vector; stride in units of the base extent)."""

    def __init__(self, count: int, blocklength: int, stride: int, base: Datatype):
        if count < 1 or blocklength < 1:
            raise DatatypeError("Vector count and blocklength must be >= 1")
        if stride < blocklength:
            raise DatatypeError(
                f"Vector stride {stride} smaller than blocklength {blocklength} would overlap"
            )
        self.name = f"vector({count},{blocklength},{stride},{base.name})"
        self.basic = base.basic
        block = base.offsets(blocklength)
        starts = np.arange(count, dtype=np.intp) * stride * base.extent_elems
        self._layout(
            (starts[:, None] + block[None, :]).ravel(),
            ((count - 1) * stride + blocklength) * base.extent_elems,
        )


class Indexed(Datatype):
    """Blocks of given lengths at given displacements (MPI_Type_indexed;
    displacements in units of the base extent)."""

    def __init__(self, blocklengths: Sequence[int], displacements: Sequence[int], base: Datatype):
        if len(blocklengths) != len(displacements):
            raise DatatypeError("blocklengths and displacements must have equal length")
        if len(blocklengths) == 0:
            raise DatatypeError("Indexed needs at least one block")
        if any(b < 1 for b in blocklengths):
            raise DatatypeError("blocklengths must be >= 1")
        if any(d < 0 for d in displacements):
            raise DatatypeError("displacements must be >= 0")
        self.name = f"indexed({list(blocklengths)},{list(displacements)},{base.name})"
        self.basic = base.basic
        parts = []
        for blen, disp in zip(blocklengths, displacements):
            parts.append(disp * base.extent_elems + base.offsets(blen))
        offs = np.concatenate(parts)
        if len(np.unique(offs)) != len(offs):
            raise DatatypeError("Indexed blocks overlap")
        self._layout(offs, int(offs.max()) + base.extent_elems)


# --- the predefined basic types ---------------------------------------------
BYTE = BasicType("MPI_BYTE", np.uint8)
CHAR = BasicType("MPI_CHAR", np.int8)
INT = BasicType("MPI_INT", np.int32)
LONG = BasicType("MPI_LONG", np.int64)
FLOAT = BasicType("MPI_FLOAT", np.float32)
DOUBLE = BasicType("MPI_DOUBLE", np.float64)

_BY_DTYPE = {
    np.dtype(np.uint8): BYTE,
    np.dtype(np.int8): CHAR,
    np.dtype(np.int32): INT,
    np.dtype(np.int64): LONG,
    np.dtype(np.float32): FLOAT,
    np.dtype(np.float64): DOUBLE,
}


def from_numpy_dtype(dtype) -> BasicType:
    """The BasicType matching a NumPy dtype (creating one if unknown)."""
    dtype = np.dtype(dtype)
    if dtype not in _BY_DTYPE:
        _BY_DTYPE[dtype] = BasicType(f"MPI_{dtype.name.upper()}", dtype)
    return _BY_DTYPE[dtype]


def infer_datatype(buf: BufferLike) -> Datatype:
    """Infer the datatype of a send/receive buffer.

    bytes-like objects are MPI_BYTE; NumPy arrays map by dtype.
    """
    if isinstance(buf, (bytes, bytearray, memoryview)):
        return BYTE
    if isinstance(buf, np.ndarray):
        return from_numpy_dtype(buf.dtype)
    raise DatatypeError(f"cannot infer a datatype for {type(buf).__name__}")
