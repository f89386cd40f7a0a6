"""Object-based collectives (pickled, mpi4py-lowercase style):
gather, scatter, allgather, alltoall.

Each of gather/scatter/allgather has a latency skeleton for wide
communicators next to the paper-era linear/ring default:

* gather: ``linear`` (root receives P-1 messages) or ``binomial``
  (subtree dicts merge up the tree, root degree log₂P);
* scatter: ``linear`` or ``binomial`` (subtree slices split down);
* allgather: ``ring`` (P-1 forwarding steps) or ``gather_bcast``
  (binomial gather to rank 0 + binomial broadcast of the list —
  2·log₂P rounds instead of P-1).
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.mpi.coll import registry as _registry
from repro.mpi.coll.ops import (
    TAG_ALLGATHER, TAG_ALLTOALL, TAG_GATHER, TAG_OBJ, TAG_SCATTER,
    _coll_tag, _isend_obj, _recv_obj, _send_obj,
)
from repro.mpi.exceptions import MPIError

__all__ = ["gather", "scatter", "allgather", "allgather_obj", "alltoall"]


def gather(comm, obj: Any, root: int, style=None):
    """Gather one object per rank to *root* (rank order)."""
    tag = _coll_tag(comm, TAG_GATHER)
    style = _registry.resolve(comm, "gather", style, 0)
    return _registry.get("gather", style)(comm, obj, root, tag)


@_registry.register("gather", "linear")
def _gather_linear(comm, obj, root, tag) -> Optional[List[Any]]:
    if comm.rank == root:
        out: List[Any] = [None] * comm.size
        out[root] = obj
        for r in range(comm.size):
            if r != root:
                out[r], _ = yield from _recv_obj(comm, r, tag)
        return out
    yield from _send_obj(comm, obj, root, tag)
    return None


@_registry.register("gather", "binomial")
def _gather_binomial(comm, obj, root, tag) -> Optional[List[Any]]:
    """Subtree dicts (vrank -> object) merge up a binomial tree."""
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    sub = {vrank: obj}
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = (vrank - mask + root) % size
            yield from _send_obj(comm, sub, parent, tag)
            return None
        peer = vrank + mask
        if peer < size:
            src = (peer + root) % size
            got, _ = yield from _recv_obj(comm, src, tag)
            sub.update(got)
        mask <<= 1
    out: List[Any] = [None] * size
    for v, o in sub.items():
        out[(v + root) % size] = o
    return out


def scatter(comm, objs: Optional[List[Any]], root: int, style=None):
    """Scatter a list of per-rank objects from *root*."""
    tag = _coll_tag(comm, TAG_SCATTER)
    style = _registry.resolve(comm, "scatter", style, 0)
    return _registry.get("scatter", style)(comm, objs, root, tag)


@_registry.register("scatter", "linear")
def _scatter_linear(comm, objs, root, tag) -> Any:
    if comm.rank == root:
        if objs is None or len(objs) != comm.size:
            raise MPIError(f"scatter needs one object per rank ({comm.size})")
        for r in range(comm.size):
            if r != root:
                yield from _send_obj(comm, objs[r], r, tag)
        return objs[root]
    obj, _ = yield from _recv_obj(comm, root, tag)
    return obj


@_registry.register("scatter", "binomial")
def _scatter_binomial(comm, objs, root, tag) -> Any:
    """Subtree slices (vrank -> object dicts) split down a binomial tree."""
    size, rank = comm.size, comm.rank
    vrank = (rank - root) % size
    mask = 1
    if vrank == 0:
        if objs is None or len(objs) != size:
            raise MPIError(f"scatter needs one object per rank ({size})")
        while mask < size:
            mask <<= 1
        sub = {v: objs[(v + root) % size] for v in range(size)}
    else:
        while not (vrank & mask):
            mask <<= 1
        parent = (vrank - mask + root) % size
        sub, _ = yield from _recv_obj(comm, parent, tag)
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < size:
            dst = (child + root) % size
            hi = min(child + mask, size)
            payload = {v: sub.pop(v) for v in range(child, hi) if v in sub}
            yield from _send_obj(comm, payload, dst, tag)
        mask >>= 1
    return sub[vrank]


def allgather(comm, obj: Any, style=None):
    """All ranks end with [obj_0, ..., obj_{P-1}]."""
    style = _registry.resolve(comm, "allgather", style, 0)
    if style == "ring":
        return allgather_obj(comm, obj, tag=TAG_ALLGATHER)
    tag = _coll_tag(comm, TAG_ALLGATHER)
    return _registry.get("allgather", style)(comm, obj, tag)


def allgather_obj(comm, obj: Any, tag: int = TAG_OBJ) -> List[Any]:
    tag = _coll_tag(comm, tag)
    return (yield from _allgather_ring(comm, obj, tag))


@_registry.register("allgather", "ring")
def _allgather_ring(comm, obj, tag) -> List[Any]:
    """Ring allgather: P-1 steps, each forwarding the newest block."""
    size, rank = comm.size, comm.rank
    out: List[Any] = [None] * size
    out[rank] = obj
    if size == 1:
        return out
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        outgoing = out[(rank - step) % size]
        req = yield from _isend_obj(comm, outgoing, right, tag)
        incoming, _ = yield from _recv_obj(comm, left, tag)
        out[(rank - step - 1) % size] = incoming
        yield from comm.wait(req)
    return out


@_registry.register("allgather", "gather_bcast")
def _allgather_gather_bcast(comm, obj, tag) -> List[Any]:
    """Binomial gather of subtree dicts to rank 0, then a binomial
    object broadcast of the assembled list — 2·log₂P rounds."""
    size, rank = comm.size, comm.rank
    out: Optional[List[Any]] = None
    sub = {rank: obj}
    mask = 1
    while mask < size:
        if rank & mask:
            yield from _send_obj(comm, sub, rank - mask, tag)
            break
        peer = rank + mask
        if peer < size:
            got, _ = yield from _recv_obj(comm, peer, tag)
            sub.update(got)
        mask <<= 1
    if rank == 0:
        out = [sub[v] for v in range(size)]
    mask = 1
    while mask < size:
        if rank & mask:
            out, _ = yield from _recv_obj(comm, rank - mask, tag)
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        if rank + mask < size:
            yield from _send_obj(comm, out, rank + mask, tag)
        mask >>= 1
    return out


def alltoall(comm, objs: List[Any]) -> List[Any]:
    """Pairwise-exchange alltoall: objs[r] goes to rank r."""
    tag = _coll_tag(comm, TAG_ALLTOALL)
    size, rank = comm.size, comm.rank
    if len(objs) != size:
        raise MPIError(f"alltoall needs one object per rank ({size})")
    out: List[Any] = [None] * size
    out[rank] = objs[rank]
    for offset in range(1, size):
        dst = (rank + offset) % size
        src = (rank - offset) % size
        req = yield from _isend_obj(comm, objs[dst], dst, tag)
        out[src], _ = yield from _recv_obj(comm, src, tag)
        yield from comm.wait(req)
    return out
