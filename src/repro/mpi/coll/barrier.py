"""Barrier algorithms.

* ``dissemination`` (the default): ⌈log₂P⌉ rounds, every rank both
  sends and receives each round — P·⌈log₂P⌉ messages total, minimal
  rounds, the classic cluster barrier;
* ``tree``: binomial gather-up then release-down — 2·(P-1) messages
  total, the NIC-offload-style shape that stays affordable at O(10k)
  ranks where dissemination's P·log₂P message count dominates the
  simulator's wall clock.
"""

from __future__ import annotations

from repro.mpi.coll import registry as _registry
from repro.mpi.coll.ops import TAG_BARRIER, _coll_tag, _just

__all__ = ["barrier"]


def barrier(comm, style=None):
    """Block until every rank of *comm* has entered."""
    tag = _coll_tag(comm, TAG_BARRIER)
    if comm.size == 1:
        return _just(None)
    style = _registry.resolve(comm, "barrier", style, 0)
    return _registry.get("barrier", style)(comm, tag)


@_registry.register("barrier", "dissemination")
def _barrier_dissemination(comm, tag):
    """Dissemination barrier: ⌈log₂P⌉ rounds of pairwise messages."""
    size, rank = comm.size, comm.rank
    offset = 1
    while offset < size:
        dst = (rank + offset) % size
        src = (rank - offset) % size
        req = yield from comm.isend(b"", dst, tag)
        yield from comm.recv(source=src, tag=tag)
        yield from comm.wait(req)
        offset <<= 1


@_registry.register("barrier", "tree")
def _barrier_tree(comm, tag):
    """Binomial-tree barrier: arrivals gather up to rank 0, then the
    release fans back down the same tree — 2·(P-1) messages total."""
    size, rank = comm.size, comm.rank
    mask = 1
    while mask < size:
        if rank & mask:
            parent = rank - mask
            yield from comm.send(b"", parent, tag)           # my subtree arrived
            yield from comm.recv(source=parent, tag=tag)     # release
            break
        child = rank + mask
        if child < size:
            yield from comm.recv(source=child, tag=tag)      # child subtree arrived
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child = rank + mask
        if child < size:
            yield from comm.send(b"", child, tag)            # release subtree
        mask >>= 1
