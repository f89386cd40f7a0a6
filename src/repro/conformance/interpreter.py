"""What one rank of a generated program executes.

The interpreter half of the differential fuzzer: ``rank_main`` walks a
:class:`~repro.conformance.grammar.Program`'s rounds on one rank's
communicator and appends that rank's slice of the *semantic trace* to
``rec``, per rank and in **program order** (never completion order —
waitany/waitsome completion indices are timing artifacts):

* every receive: resolved ``Status`` source/tag/byte-count plus a
  sha256 digest of the delivered payload;
* every probe: the probed source/tag/count;
* every collective: a digest of this rank's result.

Of what ``import repro.conformance`` loads, only this module needs numpy
and the MPI library, and it is not loaded then:
:mod:`repro.conformance.executor` — which plans and judges runs, and is
what a command imports — reaches it from ``run_program``, i.e. only when
a program actually runs.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.conformance.grammar import (
    CollectiveRound,
    ExchangeRound,
    PingPongRound,
    Program,
    payload_array,
    payload_bytes,
)
from repro.errors import ConfigurationError
from repro.mpi.coll import MAX, MIN, PROD, SUM
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.exceptions import CommRevoked, RankFailed

__all__ = ["rank_main"]

_NP_DTYPES = {"int": np.int32, "double": np.float64, "long": np.int64}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _buf_digest(buf) -> str:
    if isinstance(buf, np.ndarray):
        return _digest(buf.tobytes())
    return _digest(bytes(buf))


# ------------------------------------------------------------ rank programs
def _recv_buffer(t):
    if t.dtype == "byte":
        return bytearray(t.nelems)
    return np.zeros(t.nelems, dtype=_NP_DTYPES[t.dtype])


def _complete(comm, strategy: str, reqs: List[Any]):
    """Complete *reqs* with the round's strategy; statuses align with
    the request list regardless of completion order."""
    if not reqs:
        return []
    statuses: List[Any] = [None] * len(reqs)
    if strategy == "ordered":
        for i, r in enumerate(reqs):
            statuses[i] = yield from comm.wait(r)
    elif strategy == "waitany":
        remaining = list(range(len(reqs)))
        while remaining:
            idx, st = yield from comm.waitany([reqs[i] for i in remaining])
            statuses[remaining[idx]] = st
            del remaining[idx]
    elif strategy == "waitsome":
        remaining = list(range(len(reqs)))
        while remaining:
            idxs, sts = yield from comm.waitsome([reqs[i] for i in remaining])
            done = set(idxs)
            for j, st in zip(idxs, sts):
                statuses[remaining[j]] = st
            remaining = [r for i, r in enumerate(remaining) if i not in done]
    elif strategy == "test_then_waitall":
        pending = []
        for i, r in enumerate(reqs):
            done, st = yield from comm.test(r)
            if done:
                statuses[i] = st
            else:
                pending.append(i)
        if pending:
            sts = yield from comm.waitall([reqs[i] for i in pending])
            for i, st in zip(pending, sts):
                statuses[i] = st
    else:  # waitall (the default)
        statuses = yield from comm.waitall(reqs)
    return statuses


def _exec_exchange(comm, rnd: ExchangeRound, program: Program, rec: List[dict]):
    me = comm.rank
    incoming = [t for t in rnd.transfers if t.dst == me]
    outgoing = [t for t in rnd.transfers if t.src == me]
    results: Dict[Tuple[int, int], dict] = {}

    # phase 1: post every receive without blocking
    recv_items: List[Tuple[Any, int, Any, Any]] = []  # (transfer, rep, req, buf)
    persistent: List[Tuple[Any, Any, Any]] = []       # (transfer, handle, buf)
    for t in incoming:
        source = ANY_SOURCE if t.any_source else t.src
        tag = ANY_TAG if t.any_tag else t.tag
        if t.persistent_recv:
            buf = _recv_buffer(t)
            handle = comm.recv_init(buf, source=source, tag=tag)
            yield from comm.start(handle)
            recv_items.append((t, 0, handle, buf))
            persistent.append((t, handle, buf))
        else:
            for rep in range(t.reps):
                if t.alloc_recv:
                    req = yield from comm.irecv(source=source, tag=tag)
                    recv_items.append((t, rep, req, None))
                else:
                    buf = _recv_buffer(t)
                    req = yield from comm.irecv(source=source, tag=tag, buf=buf)
                    recv_items.append((t, rep, req, buf))

    # phase 2: sends (blocking ones are safe — all receivers reach
    # their phase 1 without blocking)
    send_reqs: List[Any] = []
    for t in outgoing:
        if t.send_kind in ("isend", "issend"):
            for rep in range(t.reps):
                data = _send_payload(program, t, rep)
                if t.send_kind == "isend":
                    req = yield from comm.isend(data, t.dst, t.tag)
                else:
                    req = yield from comm.issend(data, t.dst, t.tag)
                send_reqs.append(req)
        elif t.send_kind == "persistent":
            arr = _send_payload(program, t, 0)
            handle = comm.send_init(arr, t.dst, t.tag)
            for rep in range(t.reps):
                if rep:
                    arr[:] = _send_payload(program, t, rep)
                yield from comm.start(handle)
                yield from comm.wait(handle)
        else:  # send / ssend / bsend
            fn = getattr(comm, t.send_kind)
            for rep in range(t.reps):
                yield from fn(_send_payload(program, t, rep), t.dst, t.tag)

    # phase 3: complete everything with this rank's strategy
    reqs = [item[2] for item in recv_items] + send_reqs
    strategy = rnd.strategies.get(me, "waitall")
    statuses = yield from _complete(comm, strategy, reqs)
    for (t, rep, req, buf), st in zip(recv_items, statuses):
        data = req.data if buf is None else buf
        results[(t.tid, rep)] = {
            "e": "recv", "tid": t.tid, "rep": rep, "src": st.source,
            "tag": st.tag, "n": st.count_bytes, "d": _buf_digest(data),
        }
    # remaining repetitions of persistent receives: restart/wait chains
    # (each sender's matching rep is already in flight or blocked in a
    # blocking send, so the chain always progresses)
    for t, handle, buf in persistent:
        for rep in range(1, t.reps):
            yield from comm.start(handle)
            st = yield from comm.wait(handle)
            results[(t.tid, rep)] = {
                "e": "recv", "tid": t.tid, "rep": rep, "src": st.source,
                "tag": st.tag, "n": st.count_bytes, "d": _buf_digest(buf),
            }
    for key in sorted(results):
        rec.append(results[key])


def _send_payload(program: Program, t, rep: int):
    if t.dtype == "byte":
        return payload_bytes(program.seed, t.tid, rep, t.nelems)
    return payload_array(program.seed, t.tid, rep, t.dtype, t.nelems)


def _exec_pingpong(comm, rnd: PingPongRound, program: Program, rec: List[dict]):
    if comm.rank == rnd.src:
        send = getattr(comm, rnd.send_kind)
        yield from send(
            payload_bytes(program.seed, rnd.tid, 0, rnd.nbytes), rnd.dst, rnd.tag
        )
        data, st = yield from comm.recv(source=rnd.dst, tag=rnd.reply_tag)
        rec.append({
            "e": "recv", "tid": rnd.tid, "rep": 1, "src": st.source,
            "tag": st.tag, "n": st.count_bytes, "d": _buf_digest(data),
        })
    elif comm.rank == rnd.dst:
        if rnd.use_probe:
            tag = ANY_TAG if rnd.probe_any_tag else rnd.tag
            st = yield from comm.probe(source=rnd.src, tag=tag)
            rec.append({
                "e": "probe", "tid": rnd.tid, "src": st.source,
                "tag": st.tag, "n": st.count_bytes,
            })
        data, st = yield from comm.recv(source=rnd.src, tag=rnd.tag)
        rec.append({
            "e": "recv", "tid": rnd.tid, "rep": 0, "src": st.source,
            "tag": st.tag, "n": st.count_bytes, "d": _buf_digest(data),
        })
        yield from getattr(comm, rnd.send_kind)(
            payload_bytes(program.seed, rnd.tid, 1, rnd.reply_nbytes),
            rnd.src, rnd.reply_tag,
        )


def _exec_collective(comm, rnd: CollectiveRound, program: Program, rec: List[dict]):
    ops = {"sum": SUM, "max": MAX, "min": MIN, "prod": PROD}
    seed, cid, rank, size = program.seed, rnd.cid, comm.rank, comm.size
    style = getattr(rnd, "style", None)  # forced algorithm ("algos" profile)
    ev = {"e": "coll", "cid": cid, "op": rnd.op}
    if rnd.op == "barrier":
        yield from comm.barrier(style=style)
    elif rnd.op == "bcast":
        if rank == rnd.root:
            buf = payload_array(seed, cid, 0, rnd.dtype, rnd.nelems)
        else:
            buf = np.zeros(rnd.nelems, dtype=_NP_DTYPES[rnd.dtype])
        yield from comm.bcast(buf, root=rnd.root, style=style)
        ev["d"] = _digest(buf.tobytes())
    elif rnd.op in ("reduce", "allreduce", "scan", "exscan", "reduce_scatter"):
        send = payload_array(seed, cid, rank, rnd.dtype, rnd.nelems)
        if rnd.op == "reduce":
            result = yield from comm.reduce(
                send, root=rnd.root, op=ops[rnd.redop], style=style
            )
        elif rnd.op == "allreduce":
            result = yield from comm.allreduce(send, op=ops[rnd.redop], style=style)
        elif rnd.op == "scan":
            result = yield from comm.scan(send, op=ops[rnd.redop])
        elif rnd.op == "exscan":
            result = yield from comm.exscan(send, op=ops[rnd.redop])
        else:
            result = yield from comm.reduce_scatter(send, op=ops[rnd.redop])
        ev["d"] = "-" if result is None else _digest(np.asarray(result).tobytes())
    elif rnd.op in ("gather", "allgather"):
        obj = payload_bytes(seed, cid, rank, rnd.nelems)
        if rnd.op == "gather":
            out = yield from comm.gather(obj, root=rnd.root, style=style)
        else:
            out = yield from comm.allgather(obj, style=style)
        ev["d"] = "-" if out is None else _digest(b"|".join(out))
    elif rnd.op == "scatter":
        chunks = None
        if rank == rnd.root:
            chunks = [
                payload_bytes(seed, cid, 1000 + r, rnd.nelems) for r in range(size)
            ]
        mine = yield from comm.scatter(chunks, root=rnd.root, style=style)
        ev["d"] = _digest(mine)
    elif rnd.op == "alltoall":
        objs = [
            payload_bytes(seed, cid, rank * size + dst, rnd.nelems)
            for dst in range(size)
        ]
        out = yield from comm.alltoall(objs)
        ev["d"] = _digest(b"|".join(out))
    else:  # pragma: no cover - validate() rejects unknown ops
        raise ConfigurationError(f"unknown collective op {rnd.op!r}")
    rec.append(ev)


def _exec_ft(comm, rnd, program: Program, rec: List[dict]):
    """One ULFM recovery, recorded timing-free.

    The victim (crashed at t=0 by the program's ft spec) contributes an
    empty trace.  Every survivor attempts a receive from the dead rank —
    which must fail with :class:`RankFailed`, or :class:`CommRevoked`
    when a faster peer already revoked the communicator (both prove the
    failure was delivered; which one arrives is a timing artifact, so
    the trace does not record it) — then revokes, acknowledges, shrinks,
    agrees, and runs a verification collective on the survivor
    communicator.
    """
    if comm.rank == rnd.victim:
        return  # crashed at t=0; never runs under FT
    try:
        yield from comm.recv(source=rnd.victim, tag=rnd.tag)
        rec.append({"e": "ft", "tid": rnd.tid, "recovered": False})
        return  # a delivery from a dead rank is itself the finding
    except (RankFailed, CommRevoked):
        pass
    comm.revoke()
    comm.failure_ack()
    acked = sorted(comm.get_acked().world_ranks)
    new = yield from comm.shrink()
    flag = True if rnd.flag_mode == "all" else (new.rank % 2 == 0)
    agreed = yield from new.agree(flag)
    survivors = list(new.group.world_ranks)
    ev = {
        "e": "ft", "tid": rnd.tid, "recovered": True, "acked": acked,
        "survivors": survivors, "rank": new.rank, "agreed": bool(agreed),
    }
    if rnd.verify == "allreduce":
        send = payload_array(program.seed, 5000 + rnd.tid, new.rank,
                             "long", rnd.nelems)
        result = yield from new.allreduce(send, op=SUM)
        ev["d"] = _digest(np.asarray(result).tobytes())
    else:
        obj = payload_bytes(program.seed, 5000 + rnd.tid, new.rank, rnd.nelems)
        out = yield from new.allgather(obj)
        ev["d"] = _digest(b"|".join(out))
    rec.append(ev)


def rank_main(comm, program: Program, rec: List[dict]):
    bsend_bytes = sum(
        t.nbytes() * t.reps
        for rnd in program.rounds if rnd.kind == "exchange"
        for t in rnd.transfers
        if t.src == comm.rank and t.send_kind == "bsend"
    )
    if bsend_bytes or any(
        t.send_kind == "bsend" and t.src == comm.rank
        for rnd in program.rounds if rnd.kind == "exchange"
        for t in rnd.transfers
    ):
        comm.buffer_attach(bsend_bytes + 8192)
    for rnd in program.rounds:
        if rnd.kind == "exchange":
            yield from _exec_exchange(comm, rnd, program, rec)
        elif rnd.kind == "pingpong":
            yield from _exec_pingpong(comm, rnd, program, rec)
        elif rnd.kind == "ft":
            yield from _exec_ft(comm, rnd, program, rec)
        else:
            yield from _exec_collective(comm, rnd, program, rec)
