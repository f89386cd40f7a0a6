"""Reductions: reduce, allreduce (three algorithms), prefix scans,
and reduce_scatter.

Allreduce styles:

* ``reduce_bcast`` (the paper-era default): binomial reduce to rank 0,
  then broadcast — latency-optimal for small payloads, and on the Meiko
  the broadcast half rides the hardware;
* ``ring``: reduce-scatter + allgather over a ring, 2·(P-1) messages
  per rank each carrying ~n/P bytes — the bandwidth algorithm modern
  training stacks use;
* ``recursive_doubling``: log₂P exchange rounds of the full buffer —
  latency-optimal at scale for small payloads, but P·log₂P messages in
  total, so it is forced-style only (never auto-selected wide).
"""

from __future__ import annotations

import numpy as np

from repro.mpi.coll import registry as _registry
from repro.mpi.coll.ops import TAG_REDUCE, TAG_SCAN, Op, _coll_tag
from repro.mpi.exceptions import MPIError

__all__ = ["reduce", "allreduce", "scan", "exscan", "reduce_scatter"]


def reduce(comm, sendbuf, root: int, op: Op, style=None):
    """Binomial-tree reduction to *root*; returns the result there."""
    if not isinstance(sendbuf, np.ndarray):
        raise MPIError("reduce requires a NumPy array buffer")
    tag = _coll_tag(comm, TAG_REDUCE)
    style = _registry.resolve(comm, "reduce", style, sendbuf.nbytes)
    return _registry.get("reduce", style)(comm, sendbuf, root, op, tag)


@_registry.register("reduce", "binomial")
def _reduce_binomial(comm, sendbuf, root, op, tag):
    size, rank = comm.size, comm.rank
    result = np.array(sendbuf, copy=True)
    if size == 1:
        return result
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = (vrank - mask + root) % size
            yield from comm.send(result, parent, tag)
            return None
        peer = vrank + mask
        if peer < size:
            partial = np.empty_like(result)
            src = (peer + root) % size
            yield from comm.recv(source=src, tag=tag, buf=partial)
            result = op(result, partial)
        mask <<= 1
    return result if rank == root else None


def allreduce(comm, sendbuf, op: Op, style=None):
    """Reduction visible on every rank; style per the tuning table."""
    nbytes = sendbuf.nbytes if isinstance(sendbuf, np.ndarray) else 0
    style = _registry.resolve(comm, "allreduce", style, nbytes)
    return _registry.get("allreduce", style)(comm, sendbuf, op)


@_registry.register("allreduce", "reduce_bcast")
def _allreduce_reduce_bcast(comm, sendbuf, op):
    """Reduce to rank 0 then broadcast; returns the result everywhere."""
    result = yield from reduce(comm, sendbuf, 0, op)
    if comm.rank != 0:
        result = np.empty_like(np.asarray(sendbuf))
    from repro.mpi.coll.bcast import bcast
    from repro.mpi.datatypes import from_numpy_dtype

    dtype = from_numpy_dtype(result.dtype)
    yield from bcast(comm, result, 0, result.size, dtype)
    return result


@_registry.register("allreduce", "ring")
def _allreduce_ring(comm, sendbuf, op):
    """Ring allreduce: P-1 reduce-scatter steps + P-1 allgather steps,
    each message ~n/P elements.  Buffers shorter than the ring fall
    back to reduce_bcast (segments would be empty)."""
    tag = _coll_tag(comm, TAG_REDUCE)
    size, rank = comm.size, comm.rank
    result = np.array(sendbuf, copy=True)
    if size == 1:
        return result
    flat = result.reshape(-1)
    n = flat.size
    if n < size:
        return (yield from _allreduce_reduce_bcast(comm, sendbuf, op))

    def seg(i: int):
        i %= size
        return flat[(i * n) // size:((i + 1) * n) // size]

    right = (rank + 1) % size
    left = (rank - 1) % size
    # reduce-scatter: after step s every rank holds the partial sum of
    # s+1 contributions in segment (rank - s); after P-1 steps, rank
    # owns the fully reduced segment (rank + 1) % size
    for step in range(size - 1):
        req = yield from comm.isend(seg(rank - step), right, tag)
        acc = seg(rank - step - 1)
        tmp = np.empty_like(acc)
        yield from comm.recv(source=left, tag=tag, buf=tmp)
        # lower-rank contributions accumulate first (canonical order)
        acc[...] = op(tmp, acc)
        yield from comm.wait(req)
    # allgather: circulate the reduced segments
    for step in range(size - 1):
        req = yield from comm.isend(seg(rank + 1 - step), right, tag)
        yield from comm.recv(source=left, tag=tag, buf=seg(rank - step))
        yield from comm.wait(req)
    return result


@_registry.register("allreduce", "recursive_doubling")
def _allreduce_recursive_doubling(comm, sendbuf, op):
    """Recursive doubling: non-power-of-two ranks fold into the lower
    2^⌊log₂P⌋ block first, exchange in log₂ rounds, then unfold."""
    tag = _coll_tag(comm, TAG_REDUCE)
    size, rank = comm.size, comm.rank
    result = np.array(sendbuf, copy=True)
    if size == 1:
        return result
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    tmp = np.empty_like(result)
    if rank < 2 * rem:
        if rank % 2:
            # odd extras hand their contribution to the even partner
            # and sit out the exchange rounds
            yield from comm.send(result, rank - 1, tag)
            newrank = -1
        else:
            yield from comm.recv(source=rank + 1, tag=tag, buf=tmp)
            result = op(result, tmp)
            newrank = rank // 2
    else:
        newrank = rank - rem
    if newrank >= 0:
        mask = 1
        while mask < pof2:
            npeer = newrank ^ mask
            peer = npeer * 2 if npeer < rem else npeer + rem
            req = yield from comm.isend(result, peer, tag)
            yield from comm.recv(source=peer, tag=tag, buf=tmp)
            # keep the op order canonical (lower rank's data first) so
            # non-commutative custom ops still agree across ranks
            result = op(tmp, result) if peer < rank else op(result, tmp)
            yield from comm.wait(req)
            mask <<= 1
    if rank < 2 * rem:
        if rank % 2:
            yield from comm.recv(source=rank - 1, tag=tag, buf=result)
        else:
            yield from comm.send(result, rank + 1, tag)
    return result


def scan(comm, sendbuf, op: Op):
    """Inclusive prefix reduction (MPI_Scan): rank r gets
    op(sendbuf_0, ..., sendbuf_r).  Linear chain algorithm."""
    if not isinstance(sendbuf, np.ndarray):
        raise MPIError("scan requires a NumPy array buffer")
    tag = _coll_tag(comm, TAG_SCAN)
    result = np.array(sendbuf, copy=True)
    if comm.rank > 0:
        partial = np.empty_like(result)
        yield from comm.recv(source=comm.rank - 1, tag=tag, buf=partial)
        result = op(partial, result)
    if comm.rank < comm.size - 1:
        yield from comm.send(result, comm.rank + 1, tag)
    return result


def exscan(comm, sendbuf, op: Op):
    """Exclusive prefix reduction (MPI_Exscan): rank r gets
    op(sendbuf_0, ..., sendbuf_{r-1}); rank 0 gets None."""
    if not isinstance(sendbuf, np.ndarray):
        raise MPIError("exscan requires a NumPy array buffer")
    tag = _coll_tag(comm, TAG_SCAN)
    prefix = None
    if comm.rank > 0:
        prefix = np.empty_like(np.asarray(sendbuf))
        yield from comm.recv(source=comm.rank - 1, tag=tag, buf=prefix)
    if comm.rank < comm.size - 1:
        outgoing = (
            np.array(sendbuf, copy=True) if prefix is None else op(prefix, sendbuf)
        )
        yield from comm.send(outgoing, comm.rank + 1, tag)
    return prefix


def reduce_scatter(comm, sendbuf, op: Op):
    """MPI_Reduce_scatter_block: reduce elementwise across ranks, then
    scatter equal blocks — rank r gets block r of the reduction.

    ``sendbuf`` must have ``size * blocklen`` elements on every rank.
    """
    from repro.mpi.coll.objects import scatter

    if not isinstance(sendbuf, np.ndarray):
        raise MPIError("reduce_scatter requires a NumPy array buffer")
    if sendbuf.size % comm.size:
        raise MPIError(
            f"reduce_scatter buffer of {sendbuf.size} elements does not split "
            f"over {comm.size} ranks"
        )
    total = yield from reduce(comm, sendbuf, 0, op)
    blocklen = sendbuf.size // comm.size
    if comm.rank == 0:
        flat = total.reshape(-1)
        chunks = [flat[r * blocklen : (r + 1) * blocklen].copy() for r in range(comm.size)]
    else:
        chunks = None
    mine = yield from scatter(comm, chunks, 0)
    return mine
