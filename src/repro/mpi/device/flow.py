"""The credit-flow protocol engine of the tcp/udp/rdma/cxl devices.

The paper describes *one* cluster protocol (Section 5), and this module
is the one place it lives:

* **Optimistic eager data** — messages up to ``config.eager_threshold``
  travel with their envelope; larger ones send the envelope first (RTS)
  and move the payload only after the receiver has matched it, straight
  into the user buffer.
* **Credit flow control** — the receiver reserves memory per sender;
  envelopes and eager payloads are sent *optimistically* against that
  reservation, and the receiver returns freed counts piggybacked on its
  own traffic (or in an explicit credit unit when it has nothing to
  send).  Classic sliding windows do not work here: tags and
  communicators mean messages are not consumed in FIFO order — the
  paper's explicit design point.
* **Matching on the host processor**, inside whatever MPI call is
  driving progress, charged ``match_cost`` plus ``match_per_comparison``
  per extra queue entry inspected.

Below the engine sits a narrow *channel* (after "Design and
Implementation of MPICH2 over InfiniBand with RDMA Support": one
eager/rendezvous + piggybacked-credit layer over put/poll/expose):
flow units, putting one unit on the wire with the owed credits riding
along, polling for arrived units, and moving rendezvous data — the
methods under "channel interface" in :class:`CreditFlowEndpoint`, plus
optional hooks (link establishment; generators charging CPU the fabric
makes the host pay).  An optional hook a channel does not have is the
class attribute ``None`` — tested once per message, never an empty
generator.  :mod:`repro.mpi.device.cluster` (byte streams) and
:mod:`repro.mpi.device.modern` (NIC-to-NIC fabrics) are the two channel
families; DESIGN.md §6a tabulates them side by side.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.mpi.constants import MODE_SYNCHRONOUS
from repro.mpi.device.base import Endpoint
from repro.mpi.envelope import Envelope
from repro.mpi.matching import Arrival
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.sim.notify import Notify

__all__ = ["CreditFlowEndpoint"]

# unit kinds (on a byte stream, the 1-byte discriminator of Table 1).
# The two envelope kinds sort first; everything above RTS is control.
EAGER = 1      # envelope + payload
RTS = 2        # rendezvous envelope: the payload waits for the match
RDV_REQ = 3    # push channels: receiver asks the sender to write the payload
RDV_DATA = 4   # the rendezvous payload
CREDIT = 5     # explicit credit return (nothing else to piggyback on)
SYNC_ACK = 6   # a synchronous eager send was matched
FIN = 7        # pull channels: receiver has read the exposed payload


class _QueuedSend:
    __slots__ = ("req", "env", "wire", "eager", "need")

    def __init__(self, req, env, wire, eager, need):
        self.req = req
        self.env = env
        self.wire = wire
        self.eager = eager
        self.need = need


class CreditFlowEndpoint(Endpoint):
    """One rank's endpoint of a credit-flow device (abstract channel)."""

    # optional channel hooks: None = the channel has no such step
    #: ``(dest) -> bool``: is the link to *dest* usable yet?
    _link_ready = None
    #: generators charging host CPU: launching / landing an eager payload
    #: ``(nbytes)``, exposing a rendezvous region / preparing to fetch
    #: one ``(req, nbytes)``
    _eager_inject = None
    _eager_deliver = None
    _rdv_expose = None
    _rdv_prepare_pull = None

    def __init__(self, world_rank: int, host, config):
        super().__init__(world_rank, host)
        self.config = config
        self.queues.max_unexpected = config.max_unexpected
        #: set by the platform builder: world rank -> endpoint
        self.peers = []
        #: anything-arrived wakeup of the blocked progress loop
        self.kick = Notify(self.sim, f"mpi{world_rank}-kick")
        #: send credit remaining at each peer, in flow units
        self.credits: Dict[int, int] = defaultdict(self._flow_initial)
        #: freed units owed to each peer (piggybacked on the next unit)
        self.owed: Dict[int, int] = defaultdict(int)

    # -- channel interface (subclass responsibility) -------------------------
    def _flow_initial(self) -> int:  # pragma: no cover - abstract
        """Initial per-peer send credit, in flow units."""
        raise NotImplementedError

    def _flow_need(self, nbytes: int, eager: bool) -> int:  # pragma: no cover
        """Flow units one message consumes at the receiver."""
        raise NotImplementedError

    def _put(self, dest: int, kind: int, env, data=b""):  # pragma: no cover
        """Put one unit on the wire, taking ``owed[dest]`` along with it.
        Returns an iterable of simulator events the caller yields from."""
        raise NotImplementedError

    def _poll(self):  # pragma: no cover - abstract
        """Generator -> bool: bank the credits of every arrived unit and
        :meth:`_dispatch` it; never blocks.  Surfaces dead links."""
        raise NotImplementedError
        yield

    def _rdv_fetch(self, peer: int, env: Envelope):  # pragma: no cover
        """Ask for the payload of the matched rendezvous envelope *env*.
        Returns an iterable of simulator events the caller yields from."""
        raise NotImplementedError

    def _rdv_unit(self, peer: int, kind: int, env, data):  # pragma: no cover
        """Generator: handle the channel's rendezvous data-movement units."""
        raise NotImplementedError
        yield

    # ------------------------------------------------------------------ send
    def start_send(self, req: Request):
        cfg = self.config
        t0 = self.sim.now
        yield from self.host.cpu.execute(cfg.send_overhead)
        wire = req.datatype.pack(req.buf, req.count)
        nbytes = len(wire)
        dest_world = req.comm.world_rank(req.peer)
        env = self._envelope(req, dest_world, nbytes, t0, cfg.eager_threshold)
        eager = nbytes <= cfg.eager_threshold
        self.sendq[dest_world].append(
            _QueuedSend(req, env, wire, eager, self._flow_need(nbytes, eager)))
        yield from self._issue_sends()

    def _issue_sends(self):
        issued = False
        obs = self.sim.obs
        link_ready = self._link_ready
        for dest in list(self.sendq):
            if link_ready is not None and not link_ready(dest):
                continue  # link still being established; stay queued
            q = self.sendq[dest]
            while q:
                op = q[0]
                if self.credits[dest] < op.need:
                    if obs is not None:
                        obs.emit(self.sim.now, "dev", "stall.credit",
                                 rank=self.world_rank,
                                 detail={"dest": dest, "need": op.need,
                                         "credits": self.credits[dest],
                                         "queued": len(q)})
                    break  # optimistic sending stops when the reservation is full
                q.popleft()
                self.credits[dest] -= op.need
                yield from self._issue_one(dest, op)
                issued = True
            if not q:
                del self.sendq[dest]
        return issued

    def _issue_one(self, dest: int, op: _QueuedSend):
        env, req = op.env, op.req
        obs = self.sim.obs
        mid = (self.world_rank, dest, env.context, env.seq) if obs is not None else None
        if op.eager:
            hook = self._eager_inject
            if hook is not None:
                yield from hook(env.nbytes)
            if env.mode == MODE_SYNCHRONOUS:
                env.cookie = self._next_cookie()
                self.awaiting_ack[env.cookie] = req
                if obs is not None:
                    self._obs_cookie[env.cookie] = mid
            if obs is not None:
                obs.emit(self.sim.now, "dev", "env.sent", rank=self.world_rank,
                         msg=mid, detail={"nbytes": env.nbytes, "proto": "eager"})
            yield from self._put(dest, EAGER, env, op.wire)
            if env.mode != MODE_SYNCHRONOUS:
                # standard mode needs no remote completion: done once the
                # payload has left the user buffer
                req._complete(Status(tag=env.tag, count_bytes=env.nbytes))
                if obs is not None:
                    obs.emit(self.sim.now, "dev", "send.complete",
                             rank=self.world_rank, msg=mid)
        else:
            hook = self._rdv_expose
            if hook is not None:
                yield from hook(req, env.nbytes)
            env.cookie = self._next_cookie()
            self.pending_rdv[env.cookie] = (op.wire, req)
            if obs is not None:
                self._obs_cookie[env.cookie] = mid
                obs.emit(self.sim.now, "dev", "env.sent", rank=self.world_rank,
                         msg=mid, detail={"nbytes": env.nbytes, "proto": "rdv"})
            yield from self._put(dest, RTS, env)

    # ---------------------------------------------------------------- receive
    def start_recv(self, req: Request):
        cfg = self.config
        yield from self.host.cpu.execute(cfg.recv_overhead)
        arrival, comparisons = self.queues.post(req)
        if comparisons:
            yield from self.host.cpu.execute(
                cfg.match_cost + cfg.match_per_comparison * max(0, comparisons - 1)
            )
        if arrival is not None:
            obs = self.sim.obs
            if obs is not None:
                obs.emit(self.sim.now, "dev", "match.hit", rank=self.world_rank,
                         msg=self._obs_msgid(arrival.envelope),
                         detail={"unexpected": True, "comparisons": comparisons})
            yield from self._fulfill(req, arrival)

    # ------------------------------------------------------------ fault tolerance
    def _ft_wake(self) -> None:
        self.kick.set()

    # --------------------------------------------------------------- progress
    def _progress(self, block: bool):
        did = yield from self._poll()
        if self.sendq:  # _issue_sends drops empty per-dest deques
            issued = yield from self._issue_sends()
            did = did or issued
        yield from self._refresh_credits()
        if block and not did:
            yield self.kick.wait1()
            return True
        return did

    def _dispatch(self, peer: int, kind: int, env: Envelope, data):
        """One arrived unit (its piggybacked credits already banked)."""
        obs = self.sim.obs
        if kind > RTS:
            if kind == SYNC_ACK:
                req = self.awaiting_ack.pop(env.cookie, None)
                mid = self._obs_cookie.pop(env.cookie, None)
                if req is None or req.complete:
                    return  # op already failed (peer death / revoke); stale ack
                req._complete(Status(tag=req.tag, count_bytes=req.datatype.size * req.count))
                if obs is not None:
                    obs.emit(self.sim.now, "dev", "send.complete", rank=self.world_rank,
                             msg=mid, detail={"sync": True})
            elif kind != CREDIT:
                yield from self._rdv_unit(peer, kind, env, data)
            return
        # EAGER or RTS: run the matching engine
        cfg = self.config
        if obs is not None:
            obs.emit(self.sim.now, "dev", "env.arrived", rank=self.world_rank,
                     msg=self._obs_msgid(env), detail={"nbytes": env.nbytes})
        arrival = Arrival(env, data=data if kind == EAGER else None)
        req, comparisons = self.queues.arrive(arrival)
        yield from self.host.cpu.execute(
            cfg.match_cost + cfg.match_per_comparison * max(0, comparisons - 1)
        )
        if obs is not None:
            obs.emit(self.sim.now, "dev",
                     "match.hit" if req is not None else "match.miss",
                     rank=self.world_rank, msg=self._obs_msgid(env),
                     detail={"unexpected": False, "comparisons": comparisons})
        # the reserved space is drained as soon as the unit has been read
        self.owed[peer] += self._flow_need(env.nbytes, kind == EAGER)
        if req is not None:
            yield from self._fulfill(req, arrival)
        else:
            self._unexpected_ready(env, cfg.strict_ready)

    def _fulfill(self, req: Request, arrival: Arrival):
        env = arrival.envelope
        peer = env.extra
        if arrival.data is not None:
            hook = self._eager_deliver
            if hook is not None and env.nbytes <= self._capacity_bytes(req):
                yield from hook(env.nbytes)
            self._land(req, env, arrival.data)
            if env.mode == MODE_SYNCHRONOUS:
                yield from self._put(peer, SYNC_ACK, env)
        else:
            # rendezvous: have the payload moved straight into the user buffer
            self.rdv_recv[(peer, env.cookie)] = (req, env)
            hook = self._rdv_prepare_pull
            if hook is not None:
                yield from hook(req, env.nbytes)
            obs = self.sim.obs
            if obs is not None:
                obs.emit(self.sim.now, "dev", "rdv.rts", rank=self.world_rank,
                         msg=self._obs_msgid(env), detail={"nbytes": env.nbytes})
            yield from self._rdv_fetch(peer, env)

    def _rdv_send_done(self, wire, sreq: Request, mid) -> None:
        """The receiver has the payload: retire the rendezvous send."""
        if not sreq.complete:
            sreq._complete(Status(tag=sreq.tag, count_bytes=len(wire)))
        obs = self.sim.obs
        if obs is not None:
            obs.emit(self.sim.now, "dev", "send.complete",
                     rank=self.world_rank, msg=mid)

    def _refresh_credits(self):
        """Explicit credit units when a lot is owed and we are idle."""
        refresh = self.config.credit_refresh
        for peer, owed in list(self.owed.items()):
            if owed >= refresh and peer not in self._ft_dead:
                obs = self.sim.obs
                if obs is not None:
                    obs.emit(self.sim.now, "dev", "credit.grant", rank=self.world_rank,
                             detail={"peer": peer, "bytes": owed})
                yield from self._put(peer, CREDIT, None)

    # ---------------------------------------------------------- observability
    def _flow_snapshot(self) -> dict:
        return {
            "sends_waiting_for_credit": {
                dest: {"tags": [op.env.tag for op in q], "credits": self.credits[dest]}
                for dest, q in self.sendq.items() if q
            },
            "credits_owed": {p: o for p, o in self.owed.items() if o},
            "rendezvous_awaiting_request": len(self.pending_rdv),
            "rendezvous_awaiting_data": len(self.rdv_recv),
            "ssends_awaiting_ack": len(self.awaiting_ack),
        }

    def _describe_flow(self, flow: dict) -> str:
        waiting = ", ".join(
            f"dest={dest}:[{', '.join(f'tag={t}' for t in d['tags'])}] "
            f"credits={d['credits']}"
            for dest, d in flow["sends_waiting_for_credit"].items()
        ) or "none"
        owed = flow["credits_owed"] or "none"
        return (
            f"sends-waiting-for-credit=[{waiting}]; credits-owed={owed}; "
            f"rendezvous-awaiting-request={flow['rendezvous_awaiting_request']}; "
            f"rendezvous-awaiting-data={flow['rendezvous_awaiting_data']}; "
            f"ssends-awaiting-ack={flow['ssends_awaiting_ack']}"
        )
