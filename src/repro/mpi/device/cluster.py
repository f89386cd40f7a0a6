"""The byte-stream channel of the cluster MPI devices.

Carries the paper's Section-5 protocol — implemented once, in
:mod:`repro.mpi.device.flow` — over any reliable in-order stream
(kernel TCP or user-level reliable-UDP):

* **Wire format** — every protocol message starts with a 25-byte
  header: 1 type byte, 4 bytes of piggybacked freed-credit count, and a
  20-byte envelope / DMA-request record (exactly Table 1's accounting).
* **Flow units** are reserved *bytes*: a message occupies its header
  plus, when eager, its payload in the receiver's per-sender
  reservation.
* **Receive path** — the poll reads 1 byte of message type, then the
  24 remaining header bytes, then any payload: three separate read
  syscalls whose costs are the rows of Table 1.
* **Rendezvous is a push** — the receiver's request (``RDV_REQ``)
  makes the *sender's CPU* write header + payload into the stream.
* **No cost hooks** — copies and protocol processing are charged by
  the kernel stack's syscalls, not by the device.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.mpi.constants import MODE_BUFFERED, MODE_READY, MODE_STANDARD, MODE_SYNCHRONOUS
from repro.mpi.device.flow import EAGER, RDV_DATA, RDV_REQ, RTS, CreditFlowEndpoint
from repro.mpi.envelope import Envelope

__all__ = ["ClusterConfig", "StreamEndpoint"]

#: 20-byte envelope record: src rank, context, tag, nbytes, cookie, mode
_ENV = struct.Struct("<hHiiiB3x")
assert _ENV.size == 20
#: whole header in one pack: type byte + credit word + envelope — one
#: struct call instead of three allocations and two concatenations
_HDR_FULL = struct.Struct("<BIhHiiiB3x")
assert _HDR_FULL.size == 1 + 4 + _ENV.size
#: full header: type byte + 4 credit bytes + envelope
HEADER_BYTES = 1 + 4 + _ENV.size

_MODES = {MODE_STANDARD: 0, MODE_BUFFERED: 1, MODE_SYNCHRONOUS: 2, MODE_READY: 3}
_MODES_REV = {v: k for k, v in _MODES.items()}


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of the cluster device (bytes / µs)."""

    #: eager data travels with the envelope up to this size
    eager_threshold: int = 16384
    #: reserved receive memory per sender (the credit pool)
    reserve_bytes: int = 65536
    #: send an explicit credit message once this much is owed and idle
    credit_refresh: int = 32768
    #: CPU cost of the MPI send call surface
    send_overhead: float = 10.0
    #: CPU cost of posting a receive
    recv_overhead: float = 10.0
    #: CPU cost of matching a message (paper, Table 1: 35 µs)
    match_cost: float = 35.0
    #: additional cost per extra queue comparison beyond the first
    match_per_comparison: float = 2.0
    #: unexpected-queue capacity
    max_unexpected: int = 4096
    #: raise on ready-mode violations (see LowLatencyConfig)
    strict_ready: bool = True
    #: establish the mesh with real 3-way handshakes at startup instead
    #: of pre-established static pairs.  The paper uses static
    #: connections ("connection setup time is not of major importance");
    #: enabling this measures exactly what they excluded.  TCP only.
    handshake: bool = False

    def with_overrides(self, **kw) -> "ClusterConfig":
        return replace(self, **kw)


class _RxState:
    """Per-peer incremental parse state (keeps the poll non-blocking)."""

    __slots__ = ("header", "need")

    def __init__(self):
        self.header: Optional[Tuple[int, Envelope]] = None
        self.need = 0


class StreamEndpoint(CreditFlowEndpoint):
    """One rank's endpoint over per-peer reliable streams.

    Subclasses provide :meth:`_connect_pair_now`, which fills the
    ``conns`` mapping (peer world rank -> stream connection exposing
    ``send``/``recv_exact``/``available``/``on_data``/``error``).
    """

    #: above this many ranks, ``wire`` defers pair construction to first
    #: use instead of pre-building the O(P²) full mesh.  Lazy creation
    #: spawns each connection's sender process mid-run, which shifts
    #: event ordering relative to the eager mesh — so small worlds (all
    #: the pinned determinism goldens) keep the eager, byte-identical
    #: wiring, and only large worlds (where O(P²) construction takes
    #: minutes and idle pairs waste O(P²) kernel state) go lazy.
    LAZY_MESH_THRESHOLD = 32

    def __init__(self, world_rank: int, host, config: Optional[ClusterConfig] = None):
        super().__init__(world_rank, host, config or ClusterConfig())
        self.kernel = host.stack
        #: peer world rank -> stream connection
        self.conns: Dict[int, object] = {}
        #: lazy mesh (``wire`` above LAZY_MESH_THRESHOLD): every rank's
        #: endpoint, to build a pair from on first use; None = eager mesh
        self._mesh_endpoints = None
        self._rx: Dict[int, _RxState] = defaultdict(_RxState)
        # Observability only (the wire header carries no sequence
        # number — adding one would change Table 1's byte accounting):
        # streams are FIFO and each send emits exactly one envelope, so
        # counting envelope arrivals per (peer, context) reconstructs
        # the sender's sequence numbers exactly.
        self._obs_arrive_seq: Dict[Tuple[int, int], int] = defaultdict(int)

    # ------------------------------------------------------------- plumbing
    def attach_conn(self, peer_world: int, conn) -> None:
        self.conns[peer_world] = conn
        conn.on_data = self.kick.set

    @staticmethod
    def _connect_pair_now(ep_i, ep_j) -> None:  # pragma: no cover - abstract
        """Build and attach the connection pair between two endpoints."""
        raise NotImplementedError

    def _link_ready(self, dest: int) -> bool:
        """Is there a stream to *dest*?  Lazy mesh: build the pair on
        first outbound use.  Both directions attach (the peer gets its
        ``on_data`` kick), so a rank that only ever receives from us
        never needs its own call.  Handshake mode: False while the
        connection is still being established."""
        if dest in self.conns:
            return True
        if self._mesh_endpoints is None:
            return False
        self._connect_pair_now(self, self._mesh_endpoints[dest])
        return True

    @staticmethod
    def _unpack_env(raw: bytes, src_world: int) -> Envelope:
        src, context, tag, nbytes, cookie, mode = _ENV.unpack(raw)
        return Envelope(
            src=src,
            tag=tag,
            context=context,
            nbytes=nbytes,
            mode=_MODES_REV[mode],
            cookie=cookie,
            extra=src_world,
        )

    # ------------------------------------------------------------ flow units
    def _flow_initial(self) -> int:
        return self.config.reserve_bytes

    def _flow_need(self, nbytes: int, eager: bool) -> int:
        return HEADER_BYTES + (nbytes if eager else 0)

    # ------------------------------------------------------------------- put
    def _put(self, dest: int, kind: int, env, data=b""):
        credits = self.owed[dest]
        self.owed[dest] = 0
        if env is None:  # explicit credit message: an all-zero envelope
            header = _HDR_FULL.pack(kind, credits, 0, 0, 0, 0, 0, 0)
        else:
            header = _HDR_FULL.pack(
                kind,
                credits,
                env.src,
                env.context,
                env.tag,
                env.nbytes,
                env.cookie or 0,
                _MODES[env.mode],
            )
        return self.conns[dest].send(header + data)

    # ------------------------------------------------------------------ poll
    def _poll(self):
        """Parse as many complete messages as are buffered (never blocks).

        A dead connection (retransmissions exhausted, peer reset) raises
        its terminal error here, surfacing device failure inside whatever
        MPI call is driving progress.
        """
        did = False
        obs = self.sim.obs
        for peer in list(self.conns):
            if peer in self._ft_dead:
                continue  # the FT layer announced this peer dead
            conn = self.conns[peer]
            if conn.error is not None:
                ft = getattr(self.sim, "ft", None)
                if ft is not None and ft.is_crashing(peer):
                    # transport-level failure detection: retransmissions to
                    # the crashed host exhausted before the detector fired
                    ft.mark_failed(peer, cause="retransmit")
                    continue
                raise conn.error
            st = self._rx[peer]
            while True:
                if st.header is None:
                    if conn.available < HEADER_BYTES:
                        break
                    type_raw = yield from conn.recv_exact(1)  # read for msg type
                    rest = yield from conn.recv_exact(HEADER_BYTES - 1)  # read for envelope
                    kind = type_raw[0]
                    credits = int.from_bytes(rest[:4], "little")
                    if credits:
                        self.credits[peer] += credits
                    env = self._unpack_env(rest[4:], peer)
                    if obs is not None and kind <= RTS:
                        # reconstruct the sender's sequence number (FIFO
                        # stream, one envelope per send => arrival order
                        # == sequence order)
                        akey = (peer, env.context)
                        env.seq = self._obs_arrive_seq[akey]
                        self._obs_arrive_seq[akey] = env.seq + 1
                    st.header = (kind, env)
                    st.need = env.nbytes if kind in (EAGER, RDV_DATA) else 0
                kind, env = st.header
                if conn.available < st.need:
                    break
                data = b""
                if st.need:
                    data = yield from conn.recv_exact(st.need)
                st.header = None
                st.need = 0
                yield from self._dispatch(peer, kind, env, data)
                did = True
        return did

    # ------------------------------------------------------------ rendezvous
    def _rdv_fetch(self, peer: int, env: Envelope):
        return self._put(peer, RDV_REQ, env)

    def _rdv_unit(self, peer: int, kind: int, env: Envelope, data: bytes):
        """Sender-CPU push: ``RDV_REQ`` makes this CPU write the payload
        into the stream; ``RDV_DATA`` is that payload arriving."""
        if kind == RDV_DATA:
            entry = self.rdv_recv.pop((peer, env.cookie), None)
            if entry is not None:  # else the receive already failed: drop it
                self._land(entry[0], entry[1], data)
            return
        sent = self._rdv_send_take(env.cookie)
        if sent is None:
            return
        wire, sreq, mid = sent
        obs = self.sim.obs
        if obs is not None:
            obs.emit(self.sim.now, "dev", "rdv.data", rank=self.world_rank,
                     msg=mid, detail={"nbytes": len(wire)})
        yield from self._put(peer, RDV_DATA, env, wire)
        self._rdv_send_done(wire, sreq, mid)

    # --------------------------------------------------------------- wiring
    @classmethod
    def wire(cls, machine, endpoints) -> None:
        """Static, pre-established full mesh — or, for large worlds, each
        pair deferred until a first send needs it: pre-building O(P²)
        connections dominates construction time and memory, and most
        pairs of a wide collective never talk."""
        if len(endpoints) > cls.LAZY_MESH_THRESHOLD:
            for ep in endpoints:
                ep._mesh_endpoints = endpoints
            return
        for i, ep_i in enumerate(endpoints):
            for j in range(i + 1, len(endpoints)):
                cls._connect_pair_now(ep_i, endpoints[j])
