"""Datatype tests: basic types, derived types, pack/unpack round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    BasicType,
    Contiguous,
    Indexed,
    Vector,
    from_numpy_dtype,
    infer_datatype,
)
from repro.mpi.exceptions import DatatypeError


# ---------------------------------------------------------------------------
# basic types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "dtype,size",
    [(BYTE, 1), (CHAR, 1), (INT, 4), (LONG, 8), (FLOAT, 4), (DOUBLE, 8)],
)
def test_basic_sizes(dtype, size):
    assert dtype.size == size
    assert dtype.extent == size
    assert dtype.contiguous


def test_basic_pack_unpack_ndarray():
    a = np.arange(10, dtype=np.int32)
    wire = INT.pack(a, 10)
    assert len(wire) == 40
    b = np.zeros(10, dtype=np.int32)
    INT.unpack(wire, b, 10)
    assert np.array_equal(a, b)


def test_byte_pack_from_bytes():
    assert BYTE.pack(b"hello", 5) == b"hello"
    assert BYTE.pack(b"hello", 3) == b"hel"


def test_byte_unpack_into_bytearray():
    buf = bytearray(5)
    BYTE.unpack(b"abc", buf, 3)
    assert bytes(buf) == b"abc\x00\x00"


def test_unpack_into_bytes_rejected():
    with pytest.raises(DatatypeError):
        BYTE.unpack(b"abc", b"xxxxx", 3)


def test_dtype_mismatch_rejected():
    a = np.zeros(4, dtype=np.float64)
    with pytest.raises(DatatypeError):
        INT.pack(a, 4)


def test_bytes_buffer_with_wide_type_rejected():
    with pytest.raises(DatatypeError):
        INT.pack(b"12345678", 2)


def test_pack_count_exceeds_buffer():
    with pytest.raises(DatatypeError):
        INT.pack(np.zeros(3, dtype=np.int32), 5)


def test_unpack_wrong_byte_count():
    with pytest.raises(DatatypeError):
        INT.unpack(b"\x00" * 7, np.zeros(4, dtype=np.int32), 2)


def test_negative_count_rejected():
    with pytest.raises(DatatypeError):
        INT.offsets(-1)


def test_zero_count_pack():
    assert INT.pack(np.zeros(3, dtype=np.int32), 0) == b""


def test_infer_datatype():
    assert infer_datatype(b"x") is BYTE
    assert infer_datatype(bytearray(2)) is BYTE
    assert infer_datatype(np.zeros(2, dtype=np.float64)) is DOUBLE
    assert infer_datatype(np.zeros(2, dtype=np.int32)) is INT
    with pytest.raises(DatatypeError):
        infer_datatype([1, 2, 3])


def test_from_numpy_dtype_caches_unknown():
    t1 = from_numpy_dtype(np.uint16)
    t2 = from_numpy_dtype(np.uint16)
    assert t1 is t2
    assert t1.size == 2


def test_readonly_receive_buffer_rejected():
    a = np.zeros(4, dtype=np.int32)
    a.setflags(write=False)
    with pytest.raises(DatatypeError):
        INT.unpack(b"\x00" * 16, a, 4)


# ---------------------------------------------------------------------------
# derived types
# ---------------------------------------------------------------------------


def test_contiguous_size_extent():
    t = Contiguous(4, DOUBLE)
    assert t.size == 32
    assert t.extent == 32
    assert t.contiguous


def test_contiguous_pack():
    a = np.arange(8, dtype=np.float64)
    t = Contiguous(4, DOUBLE)
    wire = t.pack(a, 2)  # 2 items of 4 doubles = everything
    b = np.zeros(8, dtype=np.float64)
    t.unpack(wire, b, 2)
    assert np.array_equal(a, b)


def test_vector_strided_column():
    """A Vector picks out a strided column of a row-major matrix."""
    m = np.arange(12, dtype=np.float64).reshape(3, 4)
    col = Vector(count=3, blocklength=1, stride=4, base=DOUBLE)
    wire = col.pack(m.ravel(), 1)
    vals = np.frombuffer(wire, dtype=np.float64)
    assert np.array_equal(vals, m[:, 0])


def test_vector_not_contiguous():
    t = Vector(3, 1, 4, DOUBLE)
    assert not t.contiguous
    assert t.size == 24  # 3 doubles of data
    assert t.extent == (2 * 4 + 1) * 8  # span


def test_vector_unpack_scatter():
    t = Vector(2, 2, 3, INT)
    src = np.array([1, 2, 3, 4], dtype=np.int32)
    wire = INT.pack(src, 4)
    dst = np.zeros(6, dtype=np.int32)
    t.unpack(wire, dst, 1)
    assert dst.tolist() == [1, 2, 0, 3, 4, 0]


def test_vector_overlapping_stride_rejected():
    with pytest.raises(DatatypeError):
        Vector(2, 4, 2, INT)


def test_indexed_blocks():
    t = Indexed([2, 1], [0, 5], INT)
    a = np.arange(8, dtype=np.int32)
    wire = t.pack(a, 1)
    assert np.frombuffer(wire, dtype=np.int32).tolist() == [0, 1, 5]


def test_indexed_overlap_rejected():
    with pytest.raises(DatatypeError):
        Indexed([3, 2], [0, 1], INT)


def test_indexed_validation():
    with pytest.raises(DatatypeError):
        Indexed([1], [0, 1], INT)
    with pytest.raises(DatatypeError):
        Indexed([], [], INT)
    with pytest.raises(DatatypeError):
        Indexed([0], [0], INT)
    with pytest.raises(DatatypeError):
        Indexed([1], [-1], INT)


def test_nested_derived_types():
    inner = Contiguous(2, INT)
    outer = Vector(2, 1, 2, inner)  # two 2-int blocks, strided
    a = np.arange(8, dtype=np.int32)
    wire = outer.pack(a, 1)
    assert np.frombuffer(wire, dtype=np.int32).tolist() == [0, 1, 4, 5]


def test_bad_constructions():
    with pytest.raises(DatatypeError):
        Contiguous(0, INT)
    with pytest.raises(DatatypeError):
        Vector(0, 1, 1, INT)
    with pytest.raises(DatatypeError):
        Vector(1, 0, 1, INT)


# ---------------------------------------------------------------------------
# property-based round trips
# ---------------------------------------------------------------------------


@given(st.binary(min_size=0, max_size=512))
def test_byte_roundtrip(data):
    buf = bytearray(len(data))
    BYTE.unpack(BYTE.pack(data, len(data)), buf, len(data))
    assert bytes(buf) == data


@given(
    st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1), min_size=0, max_size=128)
)
def test_int_roundtrip(values):
    a = np.array(values, dtype=np.int32)
    b = np.zeros_like(a)
    INT.unpack(INT.pack(a, a.size), b, a.size)
    assert np.array_equal(a, b)


@settings(max_examples=50)
@given(
    count=st.integers(min_value=1, max_value=5),
    blocklength=st.integers(min_value=1, max_value=4),
    extra_stride=st.integers(min_value=0, max_value=3),
    items=st.integers(min_value=1, max_value=3),
)
def test_vector_roundtrip(count, blocklength, extra_stride, items):
    """pack->unpack of any Vector restores exactly the covered elements."""
    stride = blocklength + extra_stride
    t = Vector(count, blocklength, stride, DOUBLE)
    n = t.extent_elems * items + 8
    rng = np.random.default_rng(42)
    src = rng.random(n)
    dst = np.full(n, -1.0)
    wire = t.pack(src, items)
    assert len(wire) == t.size * items
    t.unpack(wire, dst, items)
    offs = t.offsets(items)
    assert np.array_equal(dst[offs], src[offs])
    mask = np.ones(n, dtype=bool)
    mask[offs] = False
    assert np.all(dst[mask] == -1.0)  # untouched elsewhere


@settings(max_examples=30)
@given(st.data())
def test_indexed_roundtrip(data):
    nblocks = data.draw(st.integers(min_value=1, max_value=4))
    lengths = [data.draw(st.integers(min_value=1, max_value=3)) for _ in range(nblocks)]
    # construct non-overlapping displacements
    disps, cur = [], 0
    for ln in lengths:
        gap = data.draw(st.integers(min_value=0, max_value=2))
        disps.append(cur + gap)
        cur = disps[-1] + ln
    t = Indexed(lengths, disps, FLOAT)
    n = t.extent_elems + 4
    rng = np.random.default_rng(7)
    src = rng.random(n).astype(np.float32)
    dst = np.zeros(n, dtype=np.float32)
    t.unpack(t.pack(src, 1), dst, 1)
    offs = t.offsets(1)
    assert np.array_equal(dst[offs], src[offs])


# ---------------------------------------------------------------------------
# contiguous types slice, noncontiguous types gather: one behaviour
# ---------------------------------------------------------------------------


def _reference_flat(t, buf, writable):
    """Buffer access as the offset-map engine did it (bytes-likes copied)."""
    if isinstance(buf, np.ndarray):
        if buf.dtype != t.basic.np_dtype:
            raise DatatypeError(
                f"buffer dtype {buf.dtype} does not match datatype {t.name} "
                f"({t.basic.np_dtype})"
            )
        if writable and not buf.flags.writeable:
            raise DatatypeError("receive buffer is not writable")
        return buf.reshape(-1)
    if isinstance(buf, (bytes, bytearray, memoryview)):
        if t.basic.itemsize != 1:
            raise DatatypeError(f"bytes-like buffer requires a 1-byte datatype, not {t.name}")
        if writable:
            if isinstance(buf, bytes):
                raise DatatypeError("receive buffer is immutable bytes")
            return np.frombuffer(buf, dtype=np.uint8)
        return np.frombuffer(bytes(buf), dtype=np.uint8)
    raise DatatypeError(f"unsupported buffer type {type(buf).__name__}")


def _reference_pack(t, buf, count):
    """Every type gathered through its offset map, bounded by offs.max()."""
    offs = t.offsets(count)
    flat = _reference_flat(t, buf, writable=False)
    if len(offs) and offs.max() >= flat.size:
        raise DatatypeError(
            f"pack of {count} x {t.name} needs {offs.max() + 1} elements, "
            f"buffer has {flat.size}"
        )
    return flat[offs].tobytes()


def _reference_unpack(t, data, buf, count):
    offs = t.offsets(count)
    expected = len(offs) * t.basic.itemsize
    if len(data) != expected:
        raise DatatypeError(
            f"unpack of {count} x {t.name} expects {expected} bytes, got {len(data)}"
        )
    flat = _reference_flat(t, buf, writable=True)
    if len(offs) and offs.max() >= flat.size:
        raise DatatypeError(
            f"unpack of {count} x {t.name} needs {offs.max() + 1} elements, "
            f"buffer has {flat.size}"
        )
    flat[offs] = np.frombuffer(data, dtype=t.basic.np_dtype)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the same error, type and message, is the property
        return type(exc), str(exc)


@st.composite
def _datatypes(draw):
    base = draw(st.sampled_from([BYTE, CHAR, INT, DOUBLE]))
    if draw(st.booleans()):
        base = Contiguous(draw(st.integers(1, 3)), base)
    kind = draw(st.sampled_from(["basic", "contiguous", "vector", "indexed"]))
    if kind == "basic":
        return base.basic
    if kind == "contiguous":
        return Contiguous(draw(st.integers(1, 4)), base)
    if kind == "vector":
        blocklength = draw(st.integers(1, 3))
        stride = blocklength + draw(st.integers(0, 2))
        return Vector(draw(st.integers(1, 3)), blocklength, stride, base)
    lengths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    disps, cur = [], 0
    for ln in lengths:
        disps.append(cur + draw(st.integers(0, 2)))
        cur = disps[-1] + ln
    return Indexed(lengths, disps, base)


BUFFER_KINDS = ["ndarray", "ndarray-other-dtype", "bytes", "bytearray",
                "memoryview", "memoryview-readonly", "memoryview-strided", "list"]


def _make_buffer(kind, t, nelems):
    """A fresh buffer of *nelems* basic elements of *t* holding a fixed pattern."""
    raw = bytes((i * 37 + 11) % 256 for i in range(nelems * t.basic.itemsize))
    if kind == "ndarray":
        return np.frombuffer(raw, dtype=t.basic.np_dtype).copy()
    if kind == "ndarray-other-dtype":
        return np.zeros(nelems, dtype=np.float32)
    if kind == "bytes":
        return raw
    if kind == "bytearray":
        return bytearray(raw)
    if kind == "memoryview":
        return memoryview(bytearray(raw))
    if kind == "memoryview-readonly":
        return memoryview(raw)
    if kind == "memoryview-strided":
        return memoryview(bytearray(raw * 2))[::2]
    return list(raw)


def _contents(buf):
    return buf.tobytes() if isinstance(buf, (np.ndarray, memoryview)) else bytes(buf)


@settings(max_examples=300, deadline=None)
@given(
    t=_datatypes(),
    kind=st.sampled_from(BUFFER_KINDS),
    nelems=st.integers(0, 40),
    count=st.integers(-1, 12),
    skew=st.sampled_from([0, 0, 0, 1, -1]),
)
def test_pack_unpack_equal_the_offset_map_gather(t, kind, nelems, count, skew):
    """For every type, buffer kind and count -- 0, fitting, too large for
    the buffer, negative -- pack/unpack give the gather/scatter's bytes
    and buffer contents, or raise its error with its message."""
    got = _outcome(t.pack, _make_buffer(kind, t, nelems), count)
    assert got == _outcome(_reference_pack, t, _make_buffer(kind, t, nelems), count)

    nbytes = max(0, max(count, 0) * t.size + skew)
    data = bytes((i * 13 + 5) % 256 for i in range(nbytes))
    mine, ref = _make_buffer(kind, t, nelems), _make_buffer(kind, t, nelems)
    got = _outcome(t.unpack, data, mine, count)
    assert got == _outcome(_reference_unpack, t, data, ref, count)
    assert _contents(mine) == _contents(ref)


@pytest.mark.parametrize("buf,t,count", [
    (b"m" * 64, BYTE, 64),
    (bytearray(b"m" * 64), BYTE, 64),
    (memoryview(b"m" * 64), BYTE, 64),
    (np.arange(8, dtype=np.float64), DOUBLE, 8),
])
def test_pack_returns_a_new_object_every_call(buf, t, count):
    """Even when the message covers a ``bytes`` buffer whole, pack hands
    back a new object.  The rdma registration cache keys on buffer
    identity: returning the caller's object lets a ping-pong that echoes
    what it received hit on a buffer it never registered."""
    first, second = t.pack(buf, count), t.pack(buf, count)
    assert first is not buf and second is not buf
    assert first is not second
    assert first == second == _contents(buf)


def test_rdma_rendezvous_rtt_pays_its_registration_misses():
    """The echo re-sends the bytes it received, so a pack that returned
    its argument would turn this 8193-B rendezvous into cache hits."""
    from repro.bench.harness import mpi_pingpong_rtt

    assert mpi_pingpong_rtt("modern", "rdma", 8193) == pytest.approx(9.4288, abs=1e-9)


def test_contiguous_message_costs_one_copy():
    """1 MiB through BYTE: pack makes the wire bytes and nothing else,
    unpack writes into the receive buffer in place, no map is kept."""
    import tracemalloc

    payload = bytes(range(256)) * 4096
    sink = bytearray(len(payload))
    tracemalloc.start()
    try:
        wire = BYTE.pack(payload, len(payload))
        BYTE.unpack(wire, sink, len(payload))
        del wire
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink == payload
    assert retained < 64 * 1024
    assert peak < len(payload) + 64 * 1024
    assert not BYTE._offs_cache
