"""Modern interconnects: an RDMA NIC fabric and a CXL memory fabric.

The paper's protocol questions — where to match, eager vs rendezvous
handoff, flow control without sliding windows — replay on today's
interconnects.  A :class:`ModernMachine` is the cross-era testbed:
*n* hosts on either

* an ``rdma`` fabric (InfiniBand/RoCE-style: a switched, lossless-ish
  link whose NIC retransmits on a per-packet timeout and deduplicates
  by PSN, MVAPICH-style), or
* a ``cxl`` fabric (a CXL switch carrying load/store traffic to shared
  memory segments, cMPI-style).

Both fabrics share one delivery model, :class:`ModernFabric`: a lazily
created worker per directed host pair serializes units in FIFO order,
charges wire time (overhead + bytes/bandwidth) on the simulator clock —
**never** on a host CPU, which is the defining contrast with the kernel
TCP/UDP paths — and hands the unit to the destination's completion
queue.  Delivery is a plain callback plus a counted kick, so a crashed
host (CPU seized forever) never blocks the fabric: its CQ just fills
and is never polled.

Faults plug in exactly like the legacy fabrics: one
:class:`repro.faults.FaultInjector` per fabric decides the fate of every
unit.  Drops and corruptions trigger the NIC's bounded link-level
retransmission (head-of-line blocking: the link retries the head unit
in place, preserving FIFO, unlike the go-back-N kernel transports);
duplicates burn wire time and are absorbed by the PSN check at the
receiving NIC, observable only in the counters.  Exhausted retries kill
the link and surface a :class:`~repro.errors.NetworkError` on both
endpoints — the transport-level failure backstop the FT layer's
detector races against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, NetworkError
from repro.hw.node import Host
from repro.sim import Simulator
from repro.sim.notify import Notify

__all__ = [
    "ModernLinkParams",
    "RDMA_LINK",
    "CXL_LINK",
    "ModernFabric",
    "ModernMachine",
]


@dataclass(frozen=True)
class ModernLinkParams:
    """Wire-level tunables of a modern fabric (bytes / µs)."""

    #: per-unit serialization + switch + propagation overhead
    link_overhead: float = 0.6
    #: inverse bandwidth (µs per byte)
    per_byte: float = 1.0 / 12500.0
    #: NIC retransmission timeout after a lost/corrupted unit
    retry_timeout: float = 10.0
    #: retransmissions before the link is declared dead.  The budget
    #: (``retry_timeout * max_retries``) deliberately exceeds the FT
    #: layer's ``DETECT_DELAY["modern"]`` so the failure detector, not
    #: the transport, normally announces a crash.
    max_retries: int = 6

    def with_overrides(self, **kw) -> "ModernLinkParams":
        return replace(self, **kw)


#: 100 Gb/s-class switched RDMA fabric (~0.6 µs port-to-port)
RDMA_LINK = ModernLinkParams()

#: CXL 2.0 x8-class memory fabric: lower per-hop latency, higher
#: bandwidth, faster retry on its short link
CXL_LINK = ModernLinkParams(
    link_overhead=0.25, per_byte=1.0 / 25000.0, retry_timeout=5.0,
    max_retries=10,
)

#: wire bytes of a control unit (RTS / FIN / ACK / credit / READ request)
CONTROL_BYTES = 32


class _Unit:
    """One unit of delivery: opaque item + accounting size."""

    __slots__ = ("nbytes", "item", "read")

    def __init__(self, nbytes: int, item: Any, read=None):
        self.nbytes = nbytes
        self.item = item
        #: None, or (reader hostid, data bytes, resolve fn) for the
        #: request leg of an RDMA READ
        self.read = read


class _Link:
    """One directed host pair: FIFO queue + its worker's kick."""

    __slots__ = ("q", "kick", "error")

    def __init__(self, sim: Simulator, name: str):
        self.q: deque = deque()
        self.kick = Notify(sim, name)
        self.error: Optional[Exception] = None


class ModernFabric:
    """Per-pair FIFO delivery with NIC-level retransmission.

    Endpoints attach with :meth:`attach`; units arrive through the
    registered ``deliver`` callback (append to the endpoint's CQ) at
    the moment the wire time elapses — no destination CPU involved,
    which is what lets an RDMA write or READ progress against a busy
    (or crashed) peer.
    """

    def __init__(self, sim: Simulator, name: str, params: ModernLinkParams,
                 injector=None):
        self.sim = sim
        self.name = name
        self.params = params
        self.injector = injector
        self._links: Dict[Tuple[int, int], _Link] = {}
        #: hostid -> (deliver(unit item), link_dead(peer, err))
        self._handlers: Dict[int, Tuple[Callable, Callable]] = {}
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_corrupted = 0
        self.packets_duplicated = 0
        self.retransmits = 0

    # -------------------------------------------------------------- wiring
    def attach(self, hostid: int, deliver: Callable[[Any], None],
               link_dead: Callable[[int, Exception], None]) -> None:
        self._handlers[hostid] = (deliver, link_dead)

    # ------------------------------------------------------------ transfer
    def send(self, src: int, dst: int, nbytes: int, item: Any) -> None:
        """Queue one unit on the (src, dst) link (returns immediately)."""
        self._enqueue(src, dst, _Unit(nbytes, item))

    def read(self, reader: int, target: int, nbytes: int,
             resolve: Callable[[], Any]) -> None:
        """RDMA READ: a control-sized request travels reader -> target;
        at arrival the target NIC runs *resolve* (no target CPU) and, if
        it returns an item, streams *nbytes* of data back to *reader*.
        ``resolve`` returning None abandons the pull (the exposed region
        was withdrawn — e.g. the sender's operation was poisoned)."""
        self._enqueue(reader, target,
                      _Unit(CONTROL_BYTES, None, read=(reader, nbytes, resolve)))

    # ----------------------------------------------------------- internals
    def _enqueue(self, src: int, dst: int, unit: _Unit) -> None:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link(
                self.sim, f"{self.name}-{src}->{dst}")
            self.sim.process(self._worker(src, dst, link),
                             name=f"{self.name}-link-{src}-{dst}")
        if link.error is not None:
            return  # dead link: the unit is lost, like the peer
        link.q.append(unit)
        link.kick.set()

    def _worker(self, src: int, dst: int, link: _Link):
        """One in-flight unit at a time, FIFO, head-of-line retry."""
        p = self.params
        sim = self.sim
        while True:
            yield link.kick.wait1()
            if not link.q:
                continue  # spurious kick (unit lost to a dying link)
            unit = link.q.popleft()
            attempts = 0
            while True:
                wire = p.link_overhead + unit.nbytes * p.per_byte
                if not sim.hold(wire):
                    yield sim.timeout1(wire)
                self.packets_sent += 1
                fate = ("deliver" if self.injector is None
                        else self.injector.decide(src, dst, unit.nbytes))
                if fate == "duplicate":
                    # the duplicate serializes too; the receiving NIC's
                    # PSN check discards it (counter-visible only)
                    self.packets_duplicated += 1
                    if not sim.hold(wire):
                        yield sim.timeout1(wire)
                    fate = "deliver"
                if fate == "deliver":
                    break
                if fate == "corrupt":
                    self.packets_corrupted += 1
                else:
                    self.packets_dropped += 1
                if attempts >= p.max_retries:
                    self._kill(src, dst, link, attempts + 1)
                    return
                attempts += 1
                self.retransmits += 1
                if not sim.hold(p.retry_timeout):
                    yield sim.timeout1(p.retry_timeout)
            self._deliver(dst, unit)

    def _deliver(self, dst: int, unit: _Unit) -> None:
        if unit.read is not None:
            reader, nbytes, resolve = unit.read
            item = resolve()
            if item is not None:
                self.send(dst, reader, nbytes, item)
            return
        handler = self._handlers.get(dst)
        if handler is not None:
            handler[0](unit.item)

    def _kill(self, src: int, dst: int, link: _Link, tries: int) -> None:
        err = NetworkError(
            f"{self.name} link {src}->{dst} dead: {tries} transmissions "
            "lost (retry budget exhausted)"
        )
        link.error = err
        link.q.clear()
        for hostid, peer in ((src, dst), (dst, src)):
            handler = self._handlers.get(hostid)
            if handler is not None:
                handler[1](peer, err)


class ModernMachine:
    """*n* hosts on one modern fabric ('rdma' or 'cxl')."""

    def __init__(
        self,
        sim: Simulator,
        nhosts: int,
        network: str = "rdma",
        params: Optional[ModernLinkParams] = None,
        seed: int = 0,
        faults=None,
    ):
        if nhosts < 1:
            raise ConfigurationError(f"nhosts must be >= 1, got {nhosts}")
        if network not in ("rdma", "cxl"):
            raise ConfigurationError(
                f"network must be 'rdma' or 'cxl', got {network!r}")
        self.sim = sim
        self.network = network
        self.hosts: List[Host] = [
            Host(sim, i, name=f"node{i}", seed=seed) for i in range(nhosts)
        ]
        self.params = params or (RDMA_LINK if network == "rdma" else CXL_LINK)
        injector = faults.injector(network, sim, seed) if faults is not None else None
        self.fabric = ModernFabric(sim, network, self.params, injector=injector)

    @property
    def nhosts(self) -> int:
        return len(self.hosts)

    def connect_endpoints(self, endpoints) -> None:
        """Let the device type attach its endpoints to the fabric."""
        if endpoints:
            type(endpoints[0]).wire(self, endpoints)
