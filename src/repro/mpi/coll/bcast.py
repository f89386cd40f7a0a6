"""Broadcast algorithms.

The paper's three broadcasts — Meiko hardware broadcast, MPICH binomial
tree, and the cluster's "succession of point-to-point messages" — plus
the bandwidth-saving scatter-allgather tree for large payloads
(van de Geijn style: binomial-scatter the buffer in P chunks, then ring
allgather them back, moving ~2·n bytes per rank instead of n·log₂P).
"""

from __future__ import annotations

import numpy as np

from repro.mpi.coll import registry as _registry
from repro.mpi.coll.ops import TAG_BCAST, _coll_tag, _just

__all__ = ["bcast"]


def _payload_nbytes(buf, count=None, datatype=None) -> int:
    """Message size in bytes for auto-selection; 0 when unknowable."""
    if count is not None and datatype is not None:
        return count * datatype.size
    if isinstance(buf, np.ndarray):
        return buf.nbytes
    try:
        return len(buf)
    except TypeError:
        return 0


def bcast(comm, buf, root: int, count: int, datatype, style=None):
    """Broadcast *buf* from *root*; returns the (filled) buffer.

    Algorithm selection follows the paper's defaults, then the
    per-platform tuning table, overridable via *style* (see
    :mod:`repro.mpi.coll.registry`):

    * ``hardware`` (low-latency Meiko device): single hardware-broadcast
      injection;
    * ``binomial`` (MPICH): log₂P point-to-point rounds;
    * ``linear`` (TCP/UDP cluster): root sends to each rank in turn
      ("a succession of point-to-point messages");
    * ``scatter_allgather``: bandwidth algorithm for large buffers.

    Plain dispatcher (not a generator function): it hands back the
    innermost generator so the hot hardware path runs without a
    delegating frame per resume.
    """
    # drawn unconditionally (even for the hardware path and size 1) so
    # every member's _coll_seq advances identically per collective call
    tag = _coll_tag(comm, TAG_BCAST)
    if comm.size == 1:
        return _just(buf)
    style = _registry.resolve(
        comm, "bcast", style, _payload_nbytes(buf, count, datatype)
    )
    return _registry.get("bcast", style)(comm, buf, root, count, datatype, tag)


def _bcast_ptp(comm, buf, root: int, count: int, datatype, tag: int, style):
    if style == "linear":
        if comm.rank == root:
            for r in range(comm.size):
                if r != root:
                    yield from comm.send(buf, r, tag, count, datatype)
        else:
            yield from comm.recv(source=root, tag=tag, buf=buf, count=count,
                                 datatype=datatype)
        return buf
    # binomial tree (the classic MPICH algorithm)
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            src = (vrank - mask + root) % size
            yield from comm.recv(source=src, tag=tag, buf=buf, count=count,
                                 datatype=datatype)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if vrank + mask < size:
            dst = (vrank + mask + root) % size
            yield from comm.send(buf, dst, tag, count, datatype)
        mask >>= 1
    return buf


@_registry.register("bcast", "linear")
def _bcast_linear(comm, buf, root, count, datatype, tag):
    return _bcast_ptp(comm, buf, root, count, datatype, tag, "linear")


@_registry.register("bcast", "binomial")
def _bcast_binomial(comm, buf, root, count, datatype, tag):
    return _bcast_ptp(comm, buf, root, count, datatype, tag, "binomial")


@_registry.register("bcast", "hardware")
def _bcast_hardware(comm, buf, root, count, datatype, tag):
    # devices without a hardware broadcast return None -> binomial
    gen = comm.endpoint.bcast_hw(comm, buf, count, datatype, root)
    if gen is not None:
        return gen
    return _bcast_ptp(comm, buf, root, count, datatype, tag, "binomial")


@_registry.register("bcast", "scatter_allgather")
def _bcast_scatter_allgather(comm, buf, root, count, datatype, tag):
    """Scatter-allgather broadcast: binomial-scatter P chunks from the
    root, then ring-allgather them, ~2·(P-1)/P·n bytes per rank.

    Only pays off for contiguous NumPy buffers with at least one
    element per rank; anything else falls back to the binomial tree
    (still a correct broadcast, same tag generation).
    """
    from repro.mpi.datatypes import infer_datatype

    size, rank = comm.size, comm.rank
    # the dispatcher always receives a resolved (count, datatype) pair;
    # slicing the buffer is only sound when they describe the whole
    # array in its own basic type (no derived datatypes, no partial
    # counts) — anything else takes the binomial fallback
    flat = None
    if (isinstance(buf, np.ndarray)
            and (count is None or count == buf.size)
            and (datatype is None or datatype is infer_datatype(buf))):
        flat = buf.view()
        try:
            flat.shape = (buf.size,)
        except AttributeError:  # non-contiguous: reshape would copy
            flat = None
    if flat is None or flat.size < size:
        return (yield from _bcast_ptp(comm, buf, root, count, datatype, tag,
                                      "binomial"))
    n = flat.size

    def lo(i: int) -> int:
        return (i * n) // size

    vrank = (rank - root) % size
    # --- binomial scatter: vrank's subtree spans chunks [vrank, vrank+mask)
    mask = 1
    if vrank == 0:
        while mask < size:
            mask <<= 1
    else:
        while not (vrank & mask):
            mask <<= 1
        src = (vrank - mask + root) % size
        seg = flat[lo(vrank):lo(min(vrank + mask, size))]
        yield from comm.recv(source=src, tag=tag, buf=seg)
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < size:
            dst = (child + root) % size
            seg = flat[lo(child):lo(min(child + mask, size))]
            yield from comm.send(seg, dst, tag)
        mask >>= 1
    # --- ring allgather of the chunks (chunk indices in vrank space)
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        sidx = (vrank - step) % size
        ridx = (vrank - step - 1) % size
        req = yield from comm.isend(flat[lo(sidx):lo(sidx + 1)], right, tag)
        yield from comm.recv(source=left, tag=tag,
                             buf=flat[lo(ridx):lo(ridx + 1)])
        yield from comm.wait(req)
    return buf
