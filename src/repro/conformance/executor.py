"""Differential execution: run a generated program on every device and
extract a device-independent *semantic trace*.

The trace records, per rank and in **program order** (never completion
order — waitany/waitsome completion indices are timing artifacts):

* every receive: resolved ``Status`` source/tag/byte-count plus a
  sha256 digest of the delivered payload;
* every probe: the probed source/tag/count;
* every collective: a digest of this rank's result.

Two runs agree iff their canonical JSON traces are byte-identical.
Latency differences between devices never enter the trace.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from repro.mpi import World
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.parallel import SKIPPED, Plan, evaluate

__all__ = [
    "run_program",
    "canonical_trace",
    "cells",
    "judge",
    "check_programs",
    "differential",
    "check_faulty",
    "DifferentialResult",
    "FAULT_PLATFORMS",
]

#: platforms where lossy runs recover (RUDP/TCP retransmission); the
#: Meiko has no retransmit path, so fault-composed runs are cluster-only
FAULT_PLATFORMS = ("atm", "ethernet")

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
    from repro.mpi.coll import MAX, MIN, PROD, SUM

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
    from repro.mpi.coll import SUM
    from repro.mpi.exceptions import CommRevoked, RankFailed

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


def _rank_main(comm, program: Program, rec: List[dict]):
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


# ------------------------------------------------------------------ running
def run_program(
    program: Program,
    platform: str,
    device: str,
    fault: bool = False,
    world_mutator: Optional[Callable[[World], None]] = None,
    limit: float = 2e9,
) -> dict:
    """Execute *program* on (platform, device); return its semantic trace.

    With ``fault=True`` the program's fault spec is applied (cluster
    platforms only — the Meiko has no retransmission path) with a
    retransmit-friendly kernel timer, exactly like the chaos harness.
    """
    faults = None
    kw: Dict[str, Any] = {}
    seed = 0
    if fault:
        if program.fault is None:
            raise ConfigurationError("program has no fault spec")
        if platform not in FAULT_PLATFORMS:
            raise ConfigurationError(
                f"fault-composed runs need a cluster platform, not {platform!r}"
            )
        from repro.faults import FaultPlan, PacketDuplication, PacketLoss
        from repro.net.kernel import KernelParams

        spec = program.fault
        rules = [PacketLoss(probability=spec["loss"])]
        if spec.get("dup"):
            rules.append(PacketDuplication(probability=spec["dup"]))
        faults = FaultPlan.of(*rules)
        kw["kernel_params"] = KernelParams().with_overrides(rto=8_000.0)
        seed = spec.get("seed", 0)
    if program.ft is not None:
        from repro.faults import FaultPlan, NodeCrash

        faults = FaultPlan.of(NodeCrash(
            node=program.ft["victim"], at=program.ft.get("at", 0.0)
        ))
        kw["ft"] = True
    world = World(
        program.nprocs, platform=platform, device=device, seed=seed,
        faults=faults, **kw,
    )
    if world_mutator is not None:
        world_mutator(world)
    recs: List[List[dict]] = [[] for _ in range(program.nprocs)]

    def main(comm):
        yield from _rank_main(comm, program, recs[comm.rank])

    world.run(main, limit=limit)
    return {"nprocs": program.nprocs, "seed": program.seed, "ranks": recs}


def canonical_trace(trace: dict) -> str:
    """Canonical JSON — byte-identical iff the semantics agree."""
    return json.dumps(trace, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------- differential
def _strip_styles(spec: dict) -> Optional[dict]:
    """*spec* (a ``Program.to_dict()``) with every forced collective
    ``style`` removed, or None when no round carries one.

    Algorithm styles must never change a collective's *result* — the
    fuzzer's payloads are exact-arithmetic, so a styled program and its
    stripped twin (running the device/selector defaults) must produce
    byte-identical semantic traces.
    """
    if not any("style" in rnd for rnd in spec["rounds"]):
        return None
    return {**spec, "rounds": [
        {k: v for k, v in rnd.items() if k != "style"} for rnd in spec["rounds"]
    ]}


@dataclass
class DifferentialResult:
    """Outcome of one program across the device matrix."""

    program: Program
    ok: bool
    reference: Optional[str] = None            #: "platform-device" key
    canons: Dict[str, str] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    mismatched: List[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.ok:
            return f"seed {self.program.seed}: OK ({len(self.canons)} devices agree)"
        parts = []
        if self.mismatched:
            parts.append(f"mismatch on {', '.join(self.mismatched)}")
        for key, err in self.errors.items():
            parts.append(f"{key}: {err}")
        return f"seed {self.program.seed}: FAIL ({'; '.join(parts)})"


# Every run a verdict needs is one ``conformance_cell`` of the parallel
# engine (pure data in, ``{"canon"}`` or ``{"error"}`` out), named by a
# run key: ``"platform-device"`` for a matrix run, ``STYLED`` for the
# style-stripped twin, ``"fault:platform-device"`` for a lossy run and
# ``"clean:platform-device"`` for the fault-free run it is compared with
# when the matrix did not run that cell.  ``cells`` says which runs,
# ``judge`` says what their results mean; every caller but the mutation
# tests (in-process world hooks) has the engine execute them in between.
STYLED = "styled-reference"


def run_conformance_cell(
    cell: dict, world_mutator: Optional[Callable[[World], None]] = None
) -> dict:
    """Execute one ``conformance_cell``: ``{"canon": ...}``, or
    ``{"error": "TypeName: message"}`` — any failure is a finding.

    A lossy (``fault``) run that fails also says whether the failure is
    the *documented* one (``CommError`` / ``RetransmitExhausted`` or a
    subclass): the exception type does not survive the process
    boundary, so its classification crosses it as data.
    """
    from repro.errors import RetransmitExhausted
    from repro.mpi.exceptions import CommError

    fault = cell.get("fault", False)
    try:
        trace = run_program(
            Program.from_dict(cell["program"]), cell["platform"], cell["device"],
            fault=fault, world_mutator=world_mutator,
        )
        return {"canon": canonical_trace(trace)}
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        out: Dict[str, Any] = {"error": f"{type(exc).__name__}: {exc}"}
        if fault:
            out["documented"] = isinstance(exc, (CommError, RetransmitExhausted))
        return out


def _cell(spec: dict, platform: str, device: str, **extra) -> dict:
    return {"kind": "conformance_cell", "program": spec,
            "platform": platform, "device": device, **extra}


def _differential_cells(spec: dict, matrix) -> Dict[str, dict]:
    """The matrix runs, plus the style-stripped twin on ``matrix[0]``
    when the program forces collective algorithms."""
    from repro.platforms import DEVICE_MATRIX, device_key

    matrix = DEVICE_MATRIX if matrix is None else matrix
    plan = {device_key(p, d): _cell(spec, p, d) for p, d in matrix}
    stripped = _strip_styles(spec)
    if stripped is not None and plan:
        plan[STYLED] = _cell(stripped, *matrix[0])
    return plan


def _fault_cells(spec: dict, have) -> Dict[str, dict]:
    """The lossy run on each cluster cell, plus the fault-free run it is
    compared with wherever *have* does not already hold that cell's."""
    from repro.platforms import PLATFORM_DEVICES, device_key

    plan: Dict[str, dict] = {}
    for platform in FAULT_PLATFORMS:
        for device in PLATFORM_DEVICES[platform]:
            key = device_key(platform, device)
            if key not in have:
                plan["clean:" + key] = _cell(spec, platform, device)
            plan["fault:" + key] = _cell(spec, platform, device, fault=True)
    return plan


def cells(
    program: Program, matrix: Optional[Sequence[Tuple[str, str]]] = None
) -> Dict[str, dict]:
    """Every run the full verdict on *program* needs, as an ordered
    ``{run key: engine cell}`` mapping — ready for one ``run_cells``.

    The lossy runs are included speculatively (``judge`` callers ignore
    them when the differential fails) so a whole command is one batch;
    they reuse the matrix's own fault-free runs, and only a cluster cell
    a restricted *matrix* leaves out is simulated fault-free again.
    """
    spec = program.to_dict()
    plan = _differential_cells(spec, matrix)
    if program.fault is not None:
        plan.update(_fault_cells(spec, have=plan))
    return plan


def judge(
    program: Program, results: Dict[str, dict]
) -> Tuple[DifferentialResult, Optional[DifferentialResult]]:
    """The verdicts on *program* given its runs' results by run key:
    ``(differential, fault-composed or None)``.

    *Differential*: every matrix run must produce the byte-identical
    semantic trace (the first that ran is the reference), and the
    style-stripped twin must equal it too — forcing an algorithm must
    not change semantics.  *Fault-composed* (None without lossy runs): a
    lossy run must converge to the fault-free trace of the same cell or
    fail the documented way.  The only place either is decided.
    """
    runs: Dict[str, Dict[str, dict]] = {"": {}, "clean": {}, "fault": {}}
    for key, res in results.items():
        role, _, cell = key.rpartition(":")
        runs[role][cell] = res
    styled = runs[""].pop(STYLED, None)

    canons: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    for key, res in runs[""].items():
        if "error" in res:
            errors[key] = res["error"]
        else:
            canons[key] = res["canon"]
    reference = next(iter(canons), None)
    mismatched = [
        key for key, canon in canons.items() if canon != canons[reference]
    ]
    if styled is not None and reference is not None and not mismatched:
        if "error" in styled:
            errors[STYLED] = styled["error"]
        elif styled["canon"] != canons[reference]:
            mismatched.append(STYLED)
    verdict = DifferentialResult(
        program=program, ok=not errors and not mismatched and bool(canons),
        reference=reference, canons=canons, errors=errors, mismatched=mismatched,
    )
    if not runs["fault"]:
        return verdict, None

    clean: Dict[str, str] = {}
    fault_errors: Dict[str, str] = {}
    fault_mismatched: List[str] = []
    for key, lossy in runs["fault"].items():
        res = runs["clean"].get(key) or runs[""][key]
        if "error" in res:  # no fault-free trace to converge to
            fault_errors[key] = res["error"]
            continue
        clean[key] = res["canon"]
        if "error" in lossy:
            if not lossy["documented"]:
                fault_errors[key] = lossy["error"]
        elif lossy["canon"] != clean[key]:
            fault_mismatched.append(key)
    return verdict, DifferentialResult(
        program=program,
        ok=not fault_errors and not fault_mismatched and bool(clean),
        reference=next(iter(clean), None), canons=clean,
        errors=fault_errors, mismatched=fault_mismatched,
    )


def _plan(program: Program, runs: Dict[str, dict], have: Optional[dict] = None):
    """The engine plan of some of *program*'s runs: their cells, and a
    finish that judges the results (beside those already in *have*).
    A run the wall-clock budget skipped leaves the program unjudged
    (None) — never judged on a partial result."""
    def finish(values):
        if any(value is SKIPPED for value in values):
            return None
        return judge(program, {**(have or {}), **dict(zip(runs, values))})

    return Plan(list(runs.values()), finish)


def check_programs(
    programs: Sequence[Program],
    matrix: Optional[Sequence[Tuple[str, str]]] = None,
    workers: Optional[int] = None,
    cache=False,
    budget_s: Optional[float] = None,
):
    """Judge every program from **one** engine batch (see :func:`cells`).
    Returns ``([judge(...) pair per program], RunReport)``; the pair is
    None for a program the ``budget_s`` wall-clock budget cut short.
    ``workers``/``cache`` are :func:`repro.parallel.evaluate`'s."""
    return evaluate(
        [_plan(program, cells(program, matrix)) for program in programs],
        workers=workers, cache=cache, budget_s=budget_s,
    )


def differential(
    program: Program,
    matrix: Optional[Sequence[Tuple[str, str]]] = None,
    mutators: Optional[Dict[str, Callable[[World], None]]] = None,
) -> DifferentialResult:
    """Run *program* on every (platform, device) of *matrix*, in-process,
    and demand byte-identical semantic traces (see :func:`judge`;
    :func:`check_programs` is the sharded, cached, many-program form).

    ``mutators`` maps "platform-device" keys to world mutation hooks —
    used by the mutation tests to verify a deliberately broken device is
    caught; they are in-process callables, so such a run executes the
    same cells without the engine.
    """
    runs = _differential_cells(program.to_dict(), matrix)
    if mutators:
        return judge(program, {
            key: run_conformance_cell(cell, mutators.get(key))
            for key, cell in runs.items()
        })[0]
    (verdict,), _ = evaluate([_plan(program, runs)])
    return verdict[0]


def check_faulty(
    program: Program, clean: Optional[Dict[str, str]] = None
) -> DifferentialResult:
    """Fault-composed mode: a lossy run must converge to the fault-free
    semantic trace or raise the documented ``CommError`` /
    ``RetransmitExhausted``.  Restricted to the cluster fabrics, where
    RUDP/TCP recovery is deterministic.

    *clean* is the fault-free canons already in hand by cell key
    (``differential(program).canons``); a cluster cell it lacks — a
    restricted matrix, or no differential at all — is simulated here.
    """
    have = {key: {"canon": canon} for key, canon in (clean or {}).items()}
    runs = _fault_cells(program.to_dict(), have=have)
    (verdict,), _ = evaluate([_plan(program, runs, have)])
    return verdict[1]
