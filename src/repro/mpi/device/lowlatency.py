"""The paper's low-latency Meiko MPI device.

Protocol summary (paper, Section 4):

* **Matching on the SPARC.**  Envelopes arriving from the network are
  queued by the Elan; the SPARC matches them against posted receives
  whenever the application is inside an MPI call.  This gives fast
  (40 MHz) matching at the cost of no background receive progress —
  exactly the trade-off the paper studies against MPICH's Elan-side
  matching.
* **Hybrid transfer.**  Messages of at most
  :attr:`LowLatencyConfig.eager_threshold` = 180 bytes travel *with*
  the envelope (overlapping data transfer with matching), buffered at
  the receiver if no receive is posted.  Larger messages send the
  envelope only; after the match the receiver sends a request and the
  sender's Elan DMAs the data straight into the receive buffer — no
  intermediate copy.
* **One envelope slot per sender.**  Each receiver pre-allocates a
  single envelope slot per sending processor; a sender with an
  outstanding unacknowledged envelope queues further sends until the
  receiver's SPARC drains the slot and acknowledges it.
* **Background sending on the Elan.**  Send calls only enqueue a
  command; the Elan transmits in the background, so nonblocking sends
  return in constant time.
* **Hardware broadcast.**  ``MPI_Bcast`` maps to the CS/2's hardware
  broadcast: one injection, one fabric traversal, every node receives
  (the MPICH device, by contrast, broadcasts over point-to-point).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.mpi.constants import INTERNAL_TAG_BASE, MODE_SYNCHRONOUS
from repro.mpi.device.base import Endpoint
from repro.mpi.envelope import Envelope
from repro.mpi.matching import Arrival
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.sim import EMPTY

__all__ = ["LowLatencyConfig", "LowLatencyEndpoint"]

#: bytes of the envelope record written into the remote slot
SLOT_ENV_BYTES = 32
#: bytes of a rendezvous request-to-send transaction
RTS_BYTES = 16

#: internal tag used by the hardware-broadcast fast path
_BCAST_TAG = INTERNAL_TAG_BASE + 101


@dataclass(frozen=True)
class LowLatencyConfig:
    """Tunables of the low-latency device (µs / bytes).

    ``send_overhead``/``recv_overhead`` are the SPARC cost of the MPI
    call surface (communicator and datatype handling, request setup) —
    calibrated so the 1-byte ping-pong round trip lands at the paper's
    104 µs.
    """

    #: eager/rendezvous crossover (paper, Figure 1: 180 bytes)
    eager_threshold: int = 180
    #: SPARC cost of a send call beyond the raw primitives
    send_overhead: float = 33.5
    #: SPARC cost of a receive post beyond the raw primitives
    recv_overhead: float = 30.5
    #: envelope slots per (sender, receiver) pair.  The paper allocates
    #: exactly one ("space for a single send envelope for each sending
    #: processor at each receiver"); raising it is the ablation knob of
    #: tests/bench/test_ablations.py::test_ablation_envelope_slots
    slots_per_sender: int = 1
    #: unexpected-queue capacity (envelope resources, Burns & Daoud)
    max_unexpected: int = 4096
    #: raise at the receiver when a ready-mode send finds no posted
    #: receive (MPI declares the program erroneous); if False, count it
    #: in ``ready_violations`` and deliver anyway
    strict_ready: bool = True

    def with_overrides(self, **kw) -> "LowLatencyConfig":
        return replace(self, **kw)


class _Hook:
    """Duck-typed completion target (has ``set()``) running a callback."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def set(self) -> None:
        self.fn()


class _QueuedSend:
    __slots__ = ("req", "env", "wire")

    def __init__(self, req: Request, env: Envelope, wire: bytes):
        self.req = req
        self.env = env
        self.wire = wire


class LowLatencyEndpoint(Endpoint):
    """One rank's endpoint of the low-latency Meiko device."""

    def __init__(self, world_rank: int, node, config: Optional[LowLatencyConfig] = None):
        super().__init__(world_rank, node)
        self.node = node
        self.config = config or LowLatencyConfig()
        self.queues.max_unexpected = self.config.max_unexpected
        #: set by the platform builder: world rank -> LowLatencyEndpoint
        self.peers: List["LowLatencyEndpoint"] = []
        #: anything-happened event: arrivals, acks, completions
        self.kick = node.event("mpi-kick")
        #: envelope arrivals deposited by the Elan, drained by the SPARC:
        #: a deque from the first arrival on (repro.sim.EMPTY until then)
        self.arrivals: Sequence[Arrival] = EMPTY
        #: per-destination envelope-slot tokens (free slots remaining);
        #: sends waiting for one sit in ``sendq``
        slots = self.config.slots_per_sender
        self.tokens: Dict[int, int] = defaultdict(lambda: slots)

    # ------------------------------------------------------------------ sends
    def start_send(self, req: Request):
        p = self.node.params
        cfg = self.config
        t0 = self.sim.now
        yield from self.node.cpu.execute(cfg.send_overhead)
        wire = req.datatype.pack(req.buf, req.count)
        if not req.datatype.contiguous:
            # gathering a derived datatype costs a real copy
            yield from self.node.cpu.execute(len(wire) * p.sparc_copy_per_byte)
        dest_world = req.comm.world_rank(req.peer)
        env = self._envelope(req, dest_world, len(wire), t0, cfg.eager_threshold)
        self.sendq[dest_world].append(_QueuedSend(req, env, wire))
        yield from self._issue_sends()

    def _issue_sends(self):
        """Issue queued sends whose destination slot is free."""
        issued = False
        obs = self.sim.obs
        for dest in list(self.sendq):
            q = self.sendq[dest]
            while q and self.tokens[dest] > 0:
                self.tokens[dest] -= 1
                op = q.popleft()
                yield from self._issue_one(dest, op)
                issued = True
            if not q:
                del self.sendq[dest]
            elif obs is not None:
                obs.emit(self.sim.now, "dev", "stall.slot", rank=self.world_rank,
                         detail={"dest": dest, "queued": len(q)})
        return issued

    def _issue_one(self, dest_world: int, op: _QueuedSend):
        receiver = self.peers[dest_world]
        env, wire, req = op.env, op.wire, op.req
        obs = self.sim.obs
        mid = (self.world_rank, dest_world, env.context, env.seq) if obs is not None else None
        if env.nbytes <= self.config.eager_threshold:
            # Eager: data rides with the envelope into the remote slot.
            if obs is not None:
                obs.emit(self.sim.now, "dev", "env.sent", rank=self.world_rank,
                         msg=mid, detail={"nbytes": env.nbytes, "proto": "eager"})
            arrival = Arrival(env, data=wire)
            yield from self.node.issue_txn(
                dest_world,
                SLOT_ENV_BYTES + len(wire),
                lambda: receiver._deliver(arrival),
            )
            if env.mode == MODE_SYNCHRONOUS:
                cookie = self._next_cookie()
                env.cookie = cookie
                self.awaiting_ack[cookie] = req
            else:
                # complete once the payload has left the user buffer
                req._complete(Status(tag=env.tag, count_bytes=env.nbytes))
                if obs is not None:
                    obs.emit(self.sim.now, "dev", "send.complete",
                             rank=self.world_rank, msg=mid)
        else:
            # Rendezvous: envelope only; data will be DMAed on request.
            cookie = self._next_cookie()
            env.cookie = cookie
            self.pending_rdv[cookie] = (wire, req)
            if obs is not None:
                self._obs_cookie[cookie] = mid
                obs.emit(self.sim.now, "dev", "env.sent", rank=self.world_rank,
                         msg=mid, detail={"nbytes": env.nbytes, "proto": "rdv"})
            arrival = Arrival(env, data=None, claim=(self.world_rank, cookie))
            yield from self.node.issue_txn(
                dest_world,
                SLOT_ENV_BYTES,
                lambda: receiver._deliver(arrival),
            )

    # ---------------------------------------------------------------- receives
    def start_recv(self, req: Request):
        cfg = self.config
        p = self.node.params
        yield from self.node.cpu.execute(cfg.recv_overhead)
        arrival, comparisons = self.queues.post(req)
        if comparisons:
            yield from self.node.cpu.execute(comparisons * p.sparc_match)
        obs = self.sim.obs
        if obs is not None and arrival is not None:
            obs.emit(self.sim.now, "dev", "match.hit", rank=self.world_rank,
                     msg=self._obs_msgid(arrival.envelope),
                     detail={"unexpected": True, "comparisons": comparisons})
        if arrival is not None:
            yield from self._fulfill(req, arrival)

    # ------------------------------------------------------- fault tolerance
    def _ft_wake(self) -> None:
        self.kick.set()

    # ------------------------------------------------------------- progress
    def _deliver(self, arrival: Arrival) -> None:
        """Runs in this node's Elan receive context: queue for the SPARC."""
        obs = self.sim.obs
        if obs is not None:
            env = arrival.envelope
            obs.emit(self.sim.now, "dev", "env.arrived", rank=self.world_rank,
                     msg=self._obs_msgid(env), detail={"nbytes": env.nbytes})
        arrivals = self.arrivals
        if arrivals is EMPTY:
            arrivals = self.arrivals = deque()
        arrivals.append(arrival)
        self.kick.set()

    def _progress(self, block: bool):
        did = False
        # the alias outlives the yields below: once a deque exists it is
        # never replaced, and while there is none the loop does not run
        arrivals = self.arrivals
        while arrivals:
            yield from self._handle_arrival(arrivals.popleft())
            did = True
        if self.sendq:  # _issue_sends drops empty per-dest deques
            issued = yield from self._issue_sends()
            did = did or issued
        if block and not did:
            yield self.kick.wait1()
            yield from self.node.cpu.execute(self.node.params.event_poll)
            return True
        return did

    def _handle_arrival(self, arrival: Arrival):
        p = self.node.params
        env = arrival.envelope
        req, comparisons = self.queues.arrive(arrival)
        yield from self.node.cpu.execute(max(1, comparisons) * p.sparc_match)
        obs = self.sim.obs
        if obs is not None:
            kind = "match.hit" if req is not None else "match.miss"
            obs.emit(self.sim.now, "dev", kind, rank=self.world_rank,
                     msg=self._obs_msgid(env),
                     detail={"unexpected": False, "comparisons": comparisons})
        if env.extra is not None:
            # Free the sender's envelope slot: the SPARC has drained it.
            sender = self.peers[env.extra]
            me = self.world_rank
            yield from self.node.issue_txn(env.extra, 0, lambda: sender._on_slot_ack(me))
        if req is not None:
            yield from self._fulfill(req, arrival)
        else:
            self._unexpected_ready(env, self.config.strict_ready)
            if arrival.data is not None:
                # copy out of the slot into the unexpected heap
                yield from self.node.cpu.execute(len(arrival.data) * p.sparc_copy_per_byte)
                if obs is not None:
                    obs.emit(self.sim.now, "dev", "copy.unexpected", rank=self.world_rank,
                             msg=self._obs_msgid(env), detail={"nbytes": len(arrival.data)})

    def _on_slot_ack(self, dest_world: int) -> None:
        """Runs in Elan context at the *sender*: slot is free again."""
        self.tokens[dest_world] += 1
        self.kick.set()

    def _fulfill(self, req: Request, arrival: Arrival):
        """Complete a matched receive (eager) or launch the DMA (rendezvous)."""
        p = self.node.params
        env = arrival.envelope
        if arrival.data is not None:
            yield from self.node.cpu.execute(env.nbytes * p.sparc_copy_per_byte)
            self._land(req, env, arrival.data)
            if env.mode == MODE_SYNCHRONOUS:
                sender = self.peers[env.extra]
                cookie = env.cookie
                yield from self.node.issue_txn(env.extra, 0, lambda: sender._on_sync_ack(cookie))
        else:
            sender_world, cookie = arrival.claim
            sender = self.peers[sender_world]
            endpoint = self
            self.rdv_recv[(sender_world, cookie)] = (req, env)

            def on_dma(data: bytes) -> None:
                # runs at the receiver when the DMA lands in user memory
                endpoint.rdv_recv.pop((sender_world, cookie), None)
                if req.complete:
                    return  # receive already failed (peer death / revoke)
                endpoint._land(req, env, data)
                endpoint.kick.set()

            obs = self.sim.obs
            if obs is not None:
                obs.emit(self.sim.now, "dev", "rdv.rts", rank=self.world_rank,
                         msg=self._obs_msgid(env), detail={"nbytes": env.nbytes})
            yield from self.node.issue_txn(
                sender_world, RTS_BYTES, lambda: sender._elan_rts(cookie, self.world_rank, on_dma)
            )

    def _elan_rts(self, cookie: int, dest_world: int, on_dma) -> None:
        """Runs at the *sender's* Elan when the data request arrives:
        start the DMA with no SPARC involvement."""
        sent = self._rdv_send_take(cookie)
        if sent is None:
            return  # send already failed (peer death / revoke): no DMA
        wire, sreq, mid = sent
        endpoint = self
        obs = self.sim.obs
        if obs is not None:
            obs.emit(self.sim.now, "dev", "rdv.data", rank=self.world_rank,
                     msg=mid, detail={"nbytes": len(wire)})

        def local_done() -> None:
            if sreq.complete:
                endpoint.kick.set()
                return  # send already failed before the DMA finished
            sreq._complete(Status(tag=sreq.tag, count_bytes=len(wire)))
            dobs = endpoint.sim.obs
            if dobs is not None:
                dobs.emit(endpoint.sim.now, "dev", "send.complete",
                          rank=endpoint.world_rank, msg=mid)
            endpoint.kick.set()

        from repro.hw.meiko.node import DmaCommand

        self.node.issue(DmaCommand(dest_world, len(wire), lambda: on_dma(wire), _Hook(local_done)))

    def _on_sync_ack(self, cookie: int) -> None:
        """Runs in Elan context at the sender: synchronous send matched."""
        req = self.awaiting_ack.pop(cookie, None)
        if req is None or req.complete:
            self.kick.set()
            return  # send already failed (peer death / revoke); stale ack
        req._complete(Status(tag=req.tag, count_bytes=req.datatype.size * req.count))
        obs = self.sim.obs
        if obs is not None:
            obs.emit(self.sim.now, "dev", "ack.sync", rank=self.world_rank,
                     detail={"cookie": cookie})
        self.kick.set()

    # ----------------------------------------------------------------- helpers
    def _flow_snapshot(self) -> dict:
        return {
            "sends_waiting_for_slot": {
                dest: [op.env.tag for op in q] for dest, q in self.sendq.items() if q
            },
            "rendezvous_awaiting_request": len(self.pending_rdv),
            "ssends_awaiting_ack": len(self.awaiting_ack),
        }

    def _describe_flow(self, flow: dict) -> str:
        waiting_slot = ", ".join(
            f"dest={dest}:[{', '.join(f'tag={t}' for t in tags)}]"
            for dest, tags in flow["sends_waiting_for_slot"].items()
        ) or "none"
        return (
            f"sends-waiting-for-slot=[{waiting_slot}]; "
            f"rendezvous-awaiting-request={flow['rendezvous_awaiting_request']}; "
            f"ssends-awaiting-ack={flow['ssends_awaiting_ack']}"
        )

    # ---------------------------------------------------------- hw broadcast
    def bcast_hw(self, comm, buf, count, datatype, root: int):
        """The CS/2 hardware broadcast: root injects once, all receive.

        Returns a generator implementing both the root and leaf sides.
        """
        return self._bcast_hw(comm, buf, count, datatype, root)

    def _bcast_hw(self, comm, buf, count, datatype, root: int):
        cfg = self.config
        if comm.rank == root:
            yield from self.node.cpu.execute(cfg.send_overhead)
            wire = datatype.pack(buf, count)
            group_worlds = set(comm.group.world_ranks)
            env_src = comm.rank
            ctx = comm.context_id

            def make_deliver(dst_world: int):
                if dst_world == self.world_rank or dst_world not in group_worlds:
                    return None
                peer = self.peers[dst_world]
                env = Envelope(
                    src=env_src,
                    tag=_BCAST_TAG,
                    context=ctx,
                    nbytes=len(wire),
                    # extra=None: broadcast bypasses the envelope slots, no ack
                    extra=None,
                )
                arrival = Arrival(env, data=wire)
                return lambda: peer._deliver(arrival)

            yield from self.node.issue_bcast(len(wire), make_deliver)
        else:
            req = Request("recv", comm, buf, count, datatype, root, _BCAST_TAG)
            yield from self.start_recv(req)
            yield from self.wait([req])
        return buf
