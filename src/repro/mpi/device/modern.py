"""The NIC-to-NIC channel of the modern-fabric MPI devices.

The ``rdma`` and ``cxl`` endpoints answer the paper's protocol
questions with the Section-5 engine itself
(:mod:`repro.mpi.device.flow`: match on the main processor, eager below
a threshold, receiver-driven rendezvous above it, credit flow control
without sliding windows) — but over a
:class:`repro.hw.modern.ModernFabric` instead of a kernel byte stream:

* the wire unit is a structured packet (envelope + payload), not a
  parsed byte stream: delivery appends a completion-queue entry at the
  destination with **no receiver CPU**, and the receiving rank polls
  the CQ from its progress loop (the CQ wakeup rides the event
  kernel's pooled slot-dispatch records via ``Notify.wait1``);
* rendezvous is a *pull*: the receiver answers an RTS by issuing an
  RDMA READ (:meth:`ModernFabric.read`) that the sender's NIC services
  out of the exposed region without sender CPU; a FIN from the
  receiver completes the sender's request;
* flow control is counted in device units (pre-posted receive slots on
  ``rdma``, shared-segment bytes on ``cxl``).

Subclasses provide only the cost model: what injecting/delivering an
eager payload costs, what exposing/mapping a rendezvous region costs,
and how many flow units a message consumes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Sequence

from repro.mpi.device.flow import EAGER, FIN, RDV_DATA, CreditFlowEndpoint
from repro.mpi.envelope import Envelope
from repro.sim import EMPTY

__all__ = ["ModernEndpoint", "CONTROL_BYTES"]

#: wire bytes of a control packet (envelope/RTS/FIN/ACK/credit)
CONTROL_BYTES = 32


class _Pkt:
    """One fabric unit: kind + piggybacked credit return + payload."""

    __slots__ = ("kind", "src", "credits", "env", "data")

    def __init__(self, kind, src, credits, env, data=None):
        self.kind = kind
        self.src = src
        self.credits = credits
        self.env = env
        self.data = data


class ModernEndpoint(CreditFlowEndpoint):
    """One rank's endpoint on a modern fabric (abstract cost model)."""

    def __init__(self, world_rank: int, host, config):
        super().__init__(world_rank, host, config)
        self.fabric = None
        #: the completion queue: fabric deliveries land here CPU-free;
        #: a deque from the first delivery on (repro.sim.EMPTY until then)
        self.cq: Sequence[_Pkt] = EMPTY
        #: peer -> NetworkError from a dead link, surfaced in progress
        self._dead_links: Dict[int, Exception] = {}

    # -- cost model (subclass responsibility) --------------------------------
    def _eager_inject(self, nbytes: int):  # pragma: no cover - abstract
        """Generator: sender CPU cost of launching an eager payload."""
        raise NotImplementedError
        yield

    def _eager_deliver(self, nbytes: int):  # pragma: no cover - abstract
        """Generator: receiver CPU cost of landing an eager payload."""
        raise NotImplementedError
        yield

    def _rdv_expose(self, req, nbytes: int):  # pragma: no cover - abstract
        """Generator: sender CPU cost of exposing the rendezvous region."""
        raise NotImplementedError
        yield

    def _rdv_prepare_pull(self, req, nbytes: int):  # pragma: no cover
        """Generator: receiver CPU cost before issuing the pull."""
        raise NotImplementedError
        yield

    def _rdv_complete(self, nbytes: int):  # pragma: no cover - abstract
        """Generator: receiver CPU cost of retiring a completed pull."""
        raise NotImplementedError
        yield

    # -------------------------------------------------------------- plumbing
    def _on_unit(self, pkt: _Pkt) -> None:
        """Fabric delivery: append a CQE and kick the polling rank."""
        cq = self.cq
        if cq is EMPTY:
            cq = self.cq = deque()
        cq.append(pkt)
        self.kick.set()

    def _on_link_dead(self, peer: int, err: Exception) -> None:
        self._dead_links.setdefault(peer, err)
        self.kick.set()

    # ------------------------------------------------------------------- put
    def _put(self, dest: int, kind: int, env, data=None):
        """Post one packet: the NIC moves it, so there is nothing for the
        CPU to wait on."""
        credits = self.owed[dest]
        self.owed[dest] = 0
        self.fabric.send(
            self.world_rank, dest,
            CONTROL_BYTES + (env.nbytes if kind == EAGER else 0),
            _Pkt(kind, self.world_rank, credits, env, data),
        )
        return ()

    # ------------------------------------------------------------------ poll
    def _poll(self):
        if self._dead_links:
            self._surface_dead_links()
        did = False
        cq = self.cq
        while cq:
            pkt = cq.popleft()
            yield from self.host.cpu.execute(self.config.cq_poll_cost)
            if pkt.credits:
                self.credits[pkt.src] += pkt.credits
            yield from self._dispatch(pkt.src, pkt.kind, pkt.env, pkt.data)
            did = True
        return did

    def _surface_dead_links(self) -> None:
        """A dead link (retry budget exhausted) surfaces device failure
        inside whatever MPI call is driving progress — unless the peer
        actually crashed, in which case this is transport-level failure
        detection racing the FT layer's detector."""
        ft = getattr(self.sim, "ft", None)
        if ft is not None and ft.is_crashing(self.world_rank):
            # we are the crashed host: the software that would react to
            # the NIC's link-down event no longer runs
            self._dead_links.clear()
            return
        while self._dead_links:
            peer = next(iter(self._dead_links))
            err = self._dead_links.pop(peer)
            if ft is not None and ft.is_crashing(peer):
                ft.mark_failed(peer, cause="retransmit")
                continue
            raise err

    # ------------------------------------------------------------ rendezvous
    def _rdv_fetch(self, peer: int, env: Envelope):
        """Pull the payload with an RDMA READ."""
        peer_ep = self.peers[peer]
        self.fabric.read(
            self.world_rank, peer, CONTROL_BYTES + env.nbytes,
            lambda: peer_ep._serve_read(env),
        )
        return ()

    def _serve_read(self, env: Envelope) -> Optional[_Pkt]:
        """NIC-side READ service: hand back the exposed bytes, CPU-free.

        Called by the fabric when the receiver's READ request arrives.
        Returns None when the exposed region was withdrawn (the send was
        poisoned by the FT layer) — the pull is abandoned and the
        receiver's request dies through the same FT sweep.
        """
        entry = self.pending_rdv.get(env.cookie)
        if entry is None:
            return None
        return _Pkt(RDV_DATA, self.world_rank, 0, env, entry[0])

    def _rdv_unit(self, peer: int, kind: int, env: Envelope, data):
        """NIC pull: ``RDV_DATA`` is our READ completing (answered with a
        ``FIN``); a ``FIN`` says the receiver has read what we exposed."""
        if kind == FIN:
            sent = self._rdv_send_take(env.cookie)
            if sent is not None:
                self._rdv_send_done(*sent)
            return
        entry = self.rdv_recv.pop((peer, env.cookie), None)
        if entry is None:
            return  # receive already failed; drop the payload
        req, env = entry
        yield from self._rdv_complete(env.nbytes)
        obs = self.sim.obs
        if obs is not None:
            obs.emit(self.sim.now, "dev", "rdv.data", rank=self.world_rank,
                     msg=self._obs_msgid(env), detail={"nbytes": env.nbytes})
        self._land(req, env, data)
        # FIN fires from the completion handler's doorbell: no CPU
        self._put(peer, FIN, env)

    # --------------------------------------------------------------- wiring
    @classmethod
    def wire(cls, machine, endpoints) -> None:
        for ep in endpoints:
            ep.fabric = machine.fabric
            machine.fabric.attach(ep.world_rank, ep._on_unit, ep._on_link_dead)
