"""The CS/2 data network: a radix-4 fat tree with hardware broadcast.

The fabric has full bisection bandwidth, so the model charges
serialization at the injection point (the Elan or the DMA engine — see
:mod:`repro.hw.meiko.node`) and the fabric itself only adds routing
latency: a base cost plus a per-stage cost, where the number of stages
is how high in the fat tree the route must climb
(``ceil(log4(span))`` for nodes *src*, *dst* with span
``max(src,dst)//4**k`` logic below).

Hardware broadcast delivers one packet to every node of a contiguous
segment in a single traversal of the tree (the CS/2's broadcast uses
the top switch level), costing one full-height route plus
:attr:`MeikoParams.bcast_extra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List

from repro.errors import HardwareError
from repro.hw.meiko.params import MeikoParams
from repro.sim import Simulator

__all__ = ["Packet", "MeikoNetwork", "PKT_TXN", "PKT_DMA"]

#: packet kinds: remote transactions are processed by the receiving Elan
#: (charged elan_rx); DMA packets are deposited by the DMA engine
#: (charged dma_rx).
PKT_TXN = "txn"
PKT_DMA = "dma"


@dataclass
class Packet:
    """A unit of delivery handed to the destination node's receive path."""

    kind: str
    src: int
    dst: int
    nbytes: int
    #: callable or generator-function invoked at the receiver (in Elan
    #: context) to apply the packet's effect
    deliver: Callable[[], Any]


class MeikoNetwork:
    """Latency model of the fat-tree fabric."""

    def __init__(self, sim: Simulator, nnodes: int, params: MeikoParams, injector=None):
        if nnodes < 1:
            raise HardwareError(f"need at least one node, got {nnodes}")
        self.sim = sim
        self.nnodes = nnodes
        self.params = params
        #: structured fault injection (:class:`repro.faults.FaultInjector`);
        #: the CS/2 fabric is CRC-protected per link, so a corrupted packet
        #: behaves like a dropped one (counted separately below)
        self.injector = injector
        #: filled by MeikoMachine: node index -> MeikoNode
        self.nodes: List = []
        #: delivered packet count, by kind (for tests/diagnostics)
        self.delivered = {PKT_TXN: 0, PKT_DMA: 0}
        self.packets_dropped = 0
        self.packets_corrupted = 0
        #: one-way route latency by stages climbed (0 .. height)
        self._latency = [
            params.net_base + params.net_per_stage * max(1, 2 * s - 1)
            for s in range(self.height() + 1)
        ]

    # -- topology ---------------------------------------------------------
    def stages(self, src: int, dst: int) -> int:
        """Fat-tree stages a route climbs (0 for self, else >= 1)."""
        self._check(src)
        self._check(dst)
        if src == dst:
            return 0
        radix = self.params.fat_tree_radix
        span = radix
        stages = 1
        while src // span != dst // span:
            span *= radix
            stages += 1
        return stages

    def height(self) -> int:
        """Stages needed to span the whole machine (broadcast height)."""
        radix = self.params.fat_tree_radix
        span = radix
        h = 1
        while span < self.nnodes:
            span *= radix
            h += 1
        return h

    def route_latency(self, src: int, dst: int) -> float:
        """One-way fabric latency, excluding injection serialization:
        up and down the tree, 2*stages - 1 switch traversals."""
        return self._latency[self.stages(src, dst)]

    def _check(self, node: int) -> None:
        if not (0 <= node < self.nnodes):
            raise HardwareError(f"node {node} out of range [0, {self.nnodes})")

    # -- transmission -------------------------------------------------------
    def transmit(self, packet: Packet) -> None:
        """Launch *packet*; it arrives at the destination after the route
        latency and is queued on the destination's receive path."""
        delay = self.route_latency(packet.src, packet.dst)
        if self._faulted(packet):
            return
        self.sim.timeout1(delay, packet).callbacks.append(self._arrive)

    def _faulted(self, packet: Packet) -> bool:
        """Consult the fault injector; True if the packet is lost."""
        if self.injector is None:
            return False
        from repro.faults import CORRUPT, DROP

        action = self.injector.decide(packet.src, packet.dst, packet.nbytes)
        if action == DROP:
            self.packets_dropped += 1
            return True
        if action == CORRUPT:
            # per-link CRC: the fabric discards a damaged packet
            self.packets_corrupted += 1
            return True
        return False  # duplication never matches the meiko fabric

    def broadcast(self, src: int, make_packet: Callable[[int], Packet]) -> None:
        """Hardware broadcast: one traversal delivers to **all** nodes
        (including the sender — the CS/2 broadcast range covers the whole
        segment; senders typically ignore their own copy)."""
        self._check(src)
        delay = self._latency[-1] + self.params.bcast_extra  # a full-height route
        timeout1 = self.sim.timeout1
        arrive = self._arrive
        for dst in range(self.nnodes):
            packet = make_packet(dst)
            if packet is None:
                continue
            if self._faulted(packet):
                continue
            timeout1(delay, packet).callbacks.append(arrive)

    def _arrive(self, event) -> None:
        packet: Packet = event.value
        self.delivered[packet.kind] += 1
        self.nodes[packet.dst].enqueue_rx(packet)
