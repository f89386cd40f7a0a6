"""ByteQueue: a FIFO byte buffer built from reference-held chunks.

The protocol stacks used to keep their stream buffers as one big
``bytearray`` and consume with ``bytes(buf[:n]); del buf[:n]`` — every
consume copies the head *and* shifts the remainder, so pushing B bytes
through a buffer costs O(B²/chunk).  A :class:`ByteQueue` instead keeps
the chunks exactly as they were appended (bytes or memoryview — no copy
on ingest) plus an offset into the head chunk:

* ``append`` is O(1) and zero-copy (the chunk is held by reference);
* ``take``/``peek`` materialize exactly the n requested bytes — and
  return the head chunk itself, copy-free, when the request is
  chunk-aligned (the common case for packet-framed streams);
* ``drop`` is O(dropped chunks): acknowledged data is released by
  reference, never shifted.

This is the simulator-side analogue of the paper's no-intermediate-copy
rendezvous discipline: a B-byte transfer costs O(B), not O(B²).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence, Union

from repro.sim import EMPTY

__all__ = ["ByteQueue"]

Chunk = Union[bytes, bytearray, memoryview]


class ByteQueue:
    """FIFO byte queue over immutable chunks (see module docstring).

    Appended chunks must not be mutated afterwards by the caller —
    append a ``bytes`` (or a memoryview over one) when in doubt.
    """

    __slots__ = ("_chunks", "_len", "_offset")

    def __init__(self) -> None:
        #: a deque from the first append on (one direction of many
        #: connections never carries data)
        self._chunks: Sequence[Chunk] = EMPTY
        self._len = 0
        #: consumed bytes of the head chunk (avoids re-slicing the head)
        self._offset = 0

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def append(self, data: Chunk) -> None:
        """Queue *data* by reference (no copy).  Empty appends are dropped."""
        n = len(data)
        if n:
            chunks = self._chunks
            if chunks is EMPTY:
                chunks = self._chunks = deque()
            chunks.append(data)
            self._len += n

    def take(self, n: int) -> bytes:
        """Remove and return the first *n* bytes (one join, no shifting)."""
        if n < 0:
            raise ValueError(f"negative take size {n}")
        if n == 0:
            return b""
        if n > self._len:
            raise ValueError(f"take({n}) from a {self._len}-byte queue")
        chunks = self._chunks
        head = chunks[0]
        off = self._offset
        avail = len(head) - off
        # fast path: the request is exactly the (remaining) head chunk
        if avail == n:
            chunks.popleft()
            self._offset = 0
            self._len -= n
            if off:
                head = head[off:]
            return head if isinstance(head, bytes) else bytes(head)
        if avail > n:
            # consume part of the head: advance the offset, copy n bytes
            self._offset = off + n
            self._len -= n
            out = head[off : off + n]
            return out if isinstance(out, bytes) else bytes(out)
        # spans chunks: gather views, one join
        parts = []
        need = n
        while need:
            head = chunks[0]
            avail = len(head) - off
            if avail <= need:
                parts.append(memoryview(head)[off:] if off else head)
                chunks.popleft()
                off = 0
                need -= avail
            else:
                parts.append(memoryview(head)[off : off + need])
                off += need
                need = 0
        self._offset = off
        self._len -= n
        return b"".join(parts)

    def peek(self, n: int) -> bytes:
        """The first *n* bytes without consuming them."""
        if n < 0:
            raise ValueError(f"negative peek size {n}")
        if n == 0:
            return b""
        if n > self._len:
            raise ValueError(f"peek({n}) into a {self._len}-byte queue")
        off = self._offset
        head = self._chunks[0]
        if len(head) - off >= n:
            out = head[off : off + n]
            return out if isinstance(out, bytes) else bytes(out)
        parts = []
        need = n
        for chunk in self._chunks:
            avail = len(chunk) - off
            if avail >= need:
                parts.append(memoryview(chunk)[off : off + need])
                break
            parts.append(memoryview(chunk)[off:] if off else chunk)
            need -= avail
            off = 0
        return b"".join(parts)

    def drop(self, n: int) -> None:
        """Discard the first *n* bytes (releases whole chunks by reference)."""
        if n < 0:
            raise ValueError(f"negative drop size {n}")
        if n > self._len:
            raise ValueError(f"drop({n}) from a {self._len}-byte queue")
        chunks = self._chunks
        off = self._offset
        self._len -= n
        while n:
            head = chunks[0]
            avail = len(head) - off
            if avail <= n:
                chunks.popleft()
                n -= avail
                off = 0
            else:
                off += n
                n = 0
        self._offset = off

    def clear(self) -> None:
        if self._chunks:
            self._chunks.clear()
        self._len = 0
        self._offset = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ByteQueue {self._len}B in {len(self._chunks)} chunks>"
