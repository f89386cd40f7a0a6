"""The endpoint contract shared by all MPI devices.

An *endpoint* is one rank's attachment to the transport.  The
communicator layer calls:

* ``start_send(req)`` / ``start_recv(req)`` — generators that charge
  CPU time and launch the protocol, returning without blocking;
* ``wait(reqs, mode)`` — generator blocking until all/any requests
  complete, driving protocol progress while it waits;
* ``test(req)`` — one nonblocking progress pass;
* ``iprobe`` / ``probe`` — envelope peeking;
* ``bcast_hw`` — optional hardware broadcast fast path.

The base class is the one home of the device-protocol rules the
devices share.  Every device that matches on the main processor
(low-latency Meiko and the credit-flow engine of
:mod:`repro.mpi.device.flow`) implements ``_progress(block)`` and gets
the progress-loop wait, probing the unexpected queue, the
per-destination send queue and the cookie and rendezvous tables the FT
layer sweeps, numbering and announcing an envelope (``_envelope``),
landing a payload in a receive (``_land``) and policing ready mode
(``_unexpected_ready``).  The MPICH device matches on the Elan, so it
overrides ``wait``/``test``, ``iprobe``, ``cancel_recv`` and the FT
sweep (its live set of tport handles); its blocking ``_progress``
sleeps one probe interval, which is all the inherited ``probe`` needs.

Buffered sends (MPI_Bsend) are implemented here once: the payload is
copied into the attached buffer, the user request completes locally,
and the actual transfer proceeds in the background; buffer space is
reclaimed when the underlying transfer finishes.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Sequence, Tuple

from repro.mpi.constants import MODE_READY, MODE_STANDARD
from repro.mpi.envelope import Envelope
from repro.mpi.exceptions import BufferError_, MPIError, ReadyModeError, TruncationError
from repro.mpi.matching import MatchQueues
from repro.mpi.request import Request
from repro.mpi.status import Status

__all__ = ["Endpoint", "BSEND_OVERHEAD"]

#: per-message bookkeeping bytes reserved in the attached buffer
#: (MPI_BSEND_OVERHEAD)
BSEND_OVERHEAD = 32

#: every endpoint's FT sets until the FT layer announces something: one
#: shared immutable empty instead of two 216-byte ``set()``s per rank
_NONE: frozenset = frozenset()


class Endpoint:
    """Per-rank device endpoint (abstract)."""

    def __init__(self, world_rank: int, host):
        self.world_rank = world_rank
        self.host = host
        self.sim = host.sim
        self.queues = MatchQueues()
        #: world ranks announced dead by the FT layer (see repro.mpi.ft)
        self._ft_dead: frozenset = _NONE
        #: communicator contexts revoked by the FT layer
        self._ft_revoked: frozenset = _NONE
        # bsend buffer accounting
        self._bsend_capacity = 0
        self._bsend_used = 0
        # Send-side protocol state of the host-matching devices (the
        # MPICH device keeps its equivalents on the Elan):
        #: sends waiting for flow control, per destination world rank;
        #: entries carry at least ``req`` and ``env``
        self.sendq: Dict[int, Deque] = defaultdict(deque)
        #: cookie -> (wire, request): rendezvous sends whose payload
        #: waits for the receiver's match
        self.pending_rdv: Dict[int, Tuple[bytes, Request]] = {}
        #: cookie -> request: synchronous eager sends awaiting the ack
        self.awaiting_ack: Dict[int, Request] = {}
        self._cookie = 0
        #: per-(dest, context) envelope sequence numbers (testability)
        self._seq: Dict[Tuple[int, int], int] = defaultdict(int)
        #: (peer, cookie) -> (request, envelope): matched rendezvous
        #: receives whose payload is on its way
        self.rdv_recv: Dict[Tuple[int, int], Tuple[Request, Envelope]] = {}
        #: count of ready-mode sends that found no posted receive
        self.ready_violations = 0
        #: observability only: sender cookie -> message id
        self._obs_cookie: Dict[int, Tuple[int, int, int, int]] = {}

    # -- to be provided by subclasses ----------------------------------------
    def start_send(self, req: Request):  # pragma: no cover - abstract
        """Generator: launch the send protocol for *req* (non-blocking)."""
        raise NotImplementedError
        yield  # noqa: unreachable - marks this as a generator to readers

    def start_recv(self, req: Request):  # pragma: no cover - abstract
        """Generator: post the receive *req* (non-blocking)."""
        raise NotImplementedError
        yield

    def _progress(self, block: bool):  # pragma: no cover - abstract
        """Generator: one progress pass.  If *block*, sleep until there
        might be new work.  Returns True if anything was processed."""
        raise NotImplementedError
        yield

    def iprobe(self, source: int, tag: int, comm):
        """Generator -> Optional[Status]: nonblocking envelope peek.

        *source* is a communicator rank (or ANY_SOURCE); the returned
        Status carries communicator-scoped ranks.
        """
        yield from self._progress(block=False)
        arrival = self.queues.probe(source, tag, comm.context_id)
        if arrival is None:
            return None
        env = arrival.envelope
        return Status(source=env.src, tag=env.tag, count_bytes=env.nbytes)

    # -- optional device fast paths ------------------------------------------
    #: the cell's collective tuning table (platforms.COLL_TUNING entry),
    #: stamped by the platform builders
    coll_tuning = None

    def bcast_hw(self, comm, buf, count, datatype, root: int):
        """Hardware broadcast fast path; None if unsupported."""
        return None

    # -- provided machinery -----------------------------------------------------
    def wtime(self) -> float:
        return self.sim.now

    def state_snapshot(self) -> dict:
        """Machine-readable dump of this endpoint's outstanding operations.

        This is the *primary* state dump — the deadlock watchdog attaches
        it to :class:`~repro.errors.DeadlockError` as ``rank_states`` —
        and :meth:`describe_state` is merely its string rendering.  The
        common keys are ``rank``, ``posted`` and ``unexpected``; devices
        merge their flow-control state via :meth:`_flow_snapshot`.
        """
        q = self.queues
        snap = {
            "rank": self.world_rank,
            "posted": [{"source": r.peer, "tag": r.tag} for r in q.posted],
            "unexpected": [
                {"source": a.envelope.src, "tag": a.envelope.tag} for a in q.unexpected
            ],
        }
        flow = self._flow_snapshot()
        if flow:
            snap["flow"] = flow
        return snap

    def _flow_snapshot(self) -> dict:
        """Device-specific flow-control state for :meth:`state_snapshot`."""
        return {}

    def describe_state(self) -> str:
        """One-line diagnostic of this endpoint's outstanding operations,
        rendered from :meth:`state_snapshot` (the structured form the
        World's deadlock watchdog reports)."""
        snap = self.state_snapshot()
        posted = ", ".join(
            f"(src={d['source']}, tag={d['tag']})" for d in snap["posted"]
        ) or "none"
        unexpected = ", ".join(
            f"(src={d['source']}, tag={d['tag']})" for d in snap["unexpected"]
        ) or "none"
        parts = [f"posted-recvs=[{posted}]", f"unexpected=[{unexpected}]"]
        flow = self._describe_flow(snap.get("flow", {}))
        if flow:
            parts.append(flow)
        return "; ".join(parts)

    def _describe_flow(self, flow: dict) -> str:
        """Render the device's :meth:`_flow_snapshot` for :meth:`describe_state`."""
        return ""

    def wait(self, reqs: Sequence[Request], mode: str = "all"):
        """Generator: block until all (or any) of *reqs* complete.

        Progress is driven from inside the call — with main-processor
        matching, this is where the paper's implementation matches
        envelopes and issues queued transfers.
        """
        if mode not in ("all", "any"):
            raise MPIError(f"wait mode must be 'all' or 'any', got {mode!r}")
        if len(reqs) == 1:
            # Single-request fast path (the vast majority of waits):
            # "all" and "any" coincide, so skip the per-pass list scans.
            r0 = reqs[0]
            while not r0.complete:
                did = yield from self._progress(block=False)
                if r0.complete:
                    break
                if not did:
                    yield from self._progress(block=True)
            r0.raise_if_failed()
            return
        while not self._satisfied(reqs, mode):
            did = yield from self._progress(block=False)
            if self._satisfied(reqs, mode):
                break
            if not did:
                yield from self._progress(block=True)
        for r in reqs:
            if r.complete:
                r.raise_if_failed()

    def finalize(self):
        """Generator: drain transfers this rank still owes the network.

        MPI_Finalize semantics — a buffered send completes locally while
        its wire transfer may still be parked on flow control (envelope
        slots, connection credits).  A rank that makes no further MPI
        calls would strand those queued transfers, deadlocking the
        receiver; drive progress until the local send queue is empty.
        """
        while any(q for q in self.sendq.values()):
            yield from self._progress(block=True)

    @staticmethod
    def _satisfied(reqs: Sequence[Request], mode: str) -> bool:
        if mode == "all":
            return all(r.complete for r in reqs)
        return any(r.complete for r in reqs)

    def test(self, req: Request):
        """Generator -> bool: one progress pass, then check completion."""
        yield from self._progress(block=False)
        if req.complete:
            req.raise_if_failed()
        return req.complete

    def cancel_recv(self, req: Request):
        """Generator -> bool: withdraw a posted, unmatched receive.

        Works for every device that matches on the main processor (the
        posted queue lives in ``self.queues``); the MPICH device
        overrides this to ask the Elan.
        """
        yield from self._progress(block=False)
        if req.complete:
            return False
        if self.queues.cancel_post(req):
            status = Status()
            status.cancelled = True
            req._complete(status)
            return True
        return False

    def probe(self, source: int, tag: int, comm):
        """Generator -> Status: block until a matching envelope is present."""
        while True:
            status = yield from self.iprobe(source, tag, comm)
            if status is not None:
                return status
            yield from self._progress(block=True)

    # -- fault tolerance (opt-in; driven by repro.mpi.ft.FTState) ---------------
    def _ft_requests(self):
        """Yield ``(request, cancel_fn)`` for every incomplete operation
        this endpoint owns.  ``cancel_fn`` (or None) removes the request
        from the device's protocol structures so a failed request can
        never be matched or completed by late wire traffic.  Devices
        with additional protocol state extend this.
        """
        for req in list(self.queues.posted):
            yield req, (lambda r=req: self.queues.cancel_post(r))
        for dest in list(self.sendq):
            q = self.sendq[dest]
            for op in list(q):
                def cancel(q=q, op=op):
                    try:
                        q.remove(op)
                    except ValueError:
                        pass

                yield op.req, cancel
        for cookie in list(self.pending_rdv):
            _wire, req = self.pending_rdv[cookie]
            yield req, (lambda c=cookie: self.pending_rdv.pop(c, None))
        for cookie in list(self.awaiting_ack):
            yield self.awaiting_ack[cookie], (
                lambda c=cookie: self.awaiting_ack.pop(c, None))
        for key in list(self.rdv_recv):
            yield self.rdv_recv[key][0], (lambda k=key: self.rdv_recv.pop(k, None))

    def _ft_wake(self) -> None:
        """Wake any rank blocked inside this endpoint's progress loop so
        it observes newly failed requests.  Device-specific."""

    def _ft_involves(self, req: Request, dead_world: int) -> bool:
        """Does *req* depend on the dead rank for completion?"""
        from repro.mpi.coll import is_agree_tag
        from repro.mpi.constants import ANY_SOURCE, INTERNAL_TAG_BASE

        comm = req.comm
        if comm is None or not comm.group.contains(dead_world):
            return False
        if (req.tag is not None and req.tag >= INTERNAL_TAG_BASE
                and not is_agree_tag(req.tag)):
            # Internal collective traffic: a collective cannot complete
            # once any participant died.  Fail it even when this leg
            # binds two survivors — otherwise ranks downstream in the
            # tree wait forever on a rank that already errored out, and
            # the watchdog (not RankFailed) is what the user sees.
            # Agreement traffic is exempt: ULFM requires agree to
            # complete despite failures.
            return True
        if req.kind == "send":
            return comm.world_rank(req.peer) == dead_world
        if req.peer == ANY_SOURCE:
            # ULFM: a pending wildcard receive raises when any failure
            # in its communicator is detected (the sender might be dead)
            return True
        return comm.world_rank(req.peer) == dead_world

    def ft_fail_requests(self, predicate, exc_factory) -> int:
        """Fail every incomplete request matching *predicate* and wake
        the rank; returns the number of requests failed."""
        n = 0
        for req, cancel in list(self._ft_requests()):
            if req.complete or not predicate(req):
                continue
            if cancel is not None:
                cancel()
            req._fail(exc_factory(req))
            n += 1
        self._ft_wake()
        return n

    def _ft_factory(self, dead_world: int):
        from repro.mpi.exceptions import RankFailed

        def factory(req, dead=dead_world):
            return RankFailed(
                f"rank {req.comm.rank}: peer process failed "
                f"(world rank {dead}, op peer={req.peer}, tag={req.tag})",
                rank=req.comm.rank, peer=req.peer, tag=req.tag, failed=(dead,),
            )

        return factory

    def ft_peer_failed(self, dead_world: int) -> None:
        """The FT layer announces that *dead_world* has died: poison every
        operation that depends on it with :class:`RankFailed`."""
        self._ft_dead |= {dead_world}
        self.ft_fail_requests(
            lambda r: self._ft_involves(r, dead_world),
            self._ft_factory(dead_world),
        )

    def ft_check_new(self, req: Request) -> None:
        """Poison a *freshly posted* request that is already doomed.

        The communicator pre-checks before posting, but detection or
        revocation can fire during the device's posting overhead — the
        announcement/revocation sweep ran before this request existed —
        so the communicator re-checks here once the request is on the
        wire.  Without the revocation half, a rank whose posting was
        delayed by CPU contention slips an operation past the revoke
        sweep and blocks forever on peers that already left for the
        recovery path.
        """
        if req.complete:
            return
        if self._ft_revoked and req.comm is not None:
            from repro.mpi.coll import is_agree_tag
            from repro.mpi.exceptions import CommRevoked

            if (req.comm.context_id in self._ft_revoked
                    and not is_agree_tag(req.tag)):
                def factory(r):
                    return CommRevoked(
                        f"rank {r.comm.rank}: communicator revoked "
                        f"(op peer={r.peer}, tag={r.tag})",
                        rank=r.comm.rank, peer=r.peer, tag=r.tag,
                    )

                self.ft_fail_requests(lambda r, q=req: r is q, factory)
                return
        if not self._ft_dead:
            return
        for dead in sorted(self._ft_dead):
            if self._ft_involves(req, dead):
                self.ft_fail_requests(
                    lambda r, q=req: r is q, self._ft_factory(dead)
                )
                return

    def ft_context_revoked(self, context_id: int) -> None:
        """The FT layer revoked a communicator: poison every pending
        operation on that context with :class:`CommRevoked` — except
        agreement traffic, which ULFM requires to work on a revoked
        communicator."""
        from repro.mpi.coll import is_agree_tag
        from repro.mpi.exceptions import CommRevoked

        self._ft_revoked |= {context_id}

        def doomed(req):
            comm = req.comm
            return (comm is not None and comm.context_id == context_id
                    and not is_agree_tag(req.tag))

        def factory(req):
            return CommRevoked(
                f"rank {req.comm.rank}: communicator revoked "
                f"(op peer={req.peer}, tag={req.tag})",
                rank=req.comm.rank, peer=req.peer, tag=req.tag,
            )

        self.ft_fail_requests(doomed, factory)

    # -- helpers of the host-matching devices -----------------------------------
    def _next_cookie(self) -> int:
        self._cookie += 1
        return self._cookie

    def _next_seq(self, dest_world: int, context: int) -> int:
        """The next sequence number of the (destination, context) stream."""
        key = (dest_world, context)
        seq = self._seq[key]
        self._seq[key] = seq + 1
        return seq

    def _envelope(self, req: Request, dest_world: int, nbytes: int, t0: float,
                  eager_threshold: int) -> Envelope:
        """Number the envelope of send *req* and announce it (``msg.send``
        stamped *t0*, the call's entry)."""
        env = Envelope(
            src=req.comm.rank,
            tag=req.tag,
            context=req.comm.context_id,
            nbytes=nbytes,
            mode=req.mode,
            seq=self._next_seq(dest_world, req.comm.context_id),
            extra=self.world_rank,
        )
        obs = self.sim.obs
        if obs is not None:
            obs.emit(t0, "dev", "msg.send", rank=self.world_rank,
                     msg=(self.world_rank, dest_world, env.context, env.seq),
                     detail={"tag": env.tag, "nbytes": nbytes,
                             "proto": "eager" if nbytes <= eager_threshold else "rdv",
                             "mode": env.mode})
        return env

    def _unexpected_ready(self, env: Envelope, strict: bool) -> None:
        """An envelope found no posted receive: a ready-mode send is then
        erroneous.  Count it, and raise when *strict*."""
        if env.mode == MODE_READY:
            self.ready_violations += 1
            if strict:
                raise ReadyModeError(
                    f"ready-mode send from rank {env.src} (tag {env.tag}) "
                    "arrived before the matching receive was posted"
                )

    def _rdv_send_take(self, cookie: int):
        """Withdraw an exposed rendezvous send: ``(wire, request, msgid)``,
        or None when the send already failed (peer death / revoke)."""
        mid = self._obs_cookie.pop(cookie, None)
        entry = self.pending_rdv.pop(cookie, None)
        if entry is None:
            return None
        return entry[0], entry[1], mid

    def _obs_msgid(self, env):
        """Correlation id for a received envelope (None when it names no
        sender: the Meiko's slot-less hardware broadcast)."""
        if env.extra is None:
            return None
        return (env.extra, self.world_rank, env.context, env.seq)

    @staticmethod
    def _capacity_bytes(req: Request) -> float:
        if req.buf is None:
            return float("inf")
        return req.datatype.size * req.count

    def _store(self, req: Request, data: bytes, status: Status) -> None:
        if req.buf is None:
            req.data = data
        else:
            count = len(data) // req.datatype.size if req.datatype.size else 0
            req.datatype.unpack(data, req.buf, count)
        req._complete(status)

    def _land(self, req: Request, env: Envelope, data) -> None:
        """A matched payload reached the receive: store it, or fail the
        receive when it does not fit."""
        capacity = self._capacity_bytes(req)
        if env.nbytes > capacity:
            req._fail(TruncationError(f"{env.nbytes} bytes into a {capacity}-byte receive"))
            return
        self._store(req, data, Status(source=env.src, tag=env.tag, count_bytes=env.nbytes))
        obs = self.sim.obs
        if obs is not None:
            obs.emit(self.sim.now, "dev", "msg.complete", rank=self.world_rank,
                     msg=self._obs_msgid(env), detail={"nbytes": env.nbytes})

    # -- buffered sends ----------------------------------------------------------
    def attach_buffer(self, nbytes: int) -> None:
        """MPI_Buffer_attach: provide *nbytes* of bsend buffering."""
        if self._bsend_capacity and self._bsend_used:
            raise BufferError_("cannot attach while the previous buffer is in use")
        if nbytes < 0:
            raise BufferError_(f"negative buffer size {nbytes}")
        self._bsend_capacity = nbytes
        self._bsend_used = 0

    def detach_buffer(self) -> int:
        """MPI_Buffer_detach: returns the detached capacity.

        Real MPI blocks until pending buffered sends drain; ours requires
        they already have (raises otherwise), which is stricter but
        deterministic.
        """
        if self._bsend_used:
            raise BufferError_(
                f"{self._bsend_used} bytes of buffered sends still pending at detach"
            )
        cap = self._bsend_capacity
        self._bsend_capacity = 0
        return cap

    def start_bsend(self, req: Request):
        """Generator: buffered-mode send — complete locally, transfer behind."""
        need = req.datatype.size * req.count + BSEND_OVERHEAD
        if self._bsend_used + need > self._bsend_capacity:
            raise BufferError_(
                f"bsend of {need} bytes exceeds attached buffer "
                f"({self._bsend_used}/{self._bsend_capacity} in use)"
            )
        self._bsend_used += need
        # Copy out of the user buffer (that is the semantic point of bsend).
        wire = req.datatype.pack(req.buf, req.count)
        shadow = Request(
            "send", req.comm, wire, len(wire), _BYTE_REF(), req.peer, req.tag, MODE_STANDARD
        )

        def release(_req=shadow, need=need):
            self._bsend_used -= need

        shadow._device_state = None
        shadow.on_complete = release
        yield from self.start_send(shadow)
        req._device_state = shadow
        req._complete(Status(source=self.world_rank, tag=req.tag, count_bytes=len(wire)))


def _BYTE_REF():
    # late import to avoid a cycle datatypes -> ... -> base
    from repro.mpi.datatypes import BYTE

    return BYTE
