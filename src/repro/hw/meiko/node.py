"""A Meiko CS/2 node: SPARC + Elan + DMA engine + memory regions.

The SPARC (the node's :attr:`Host.cpu`) runs application and library
code.  Communication is issued by writing command descriptors to the
Elan's command queue; the Elan worker process executes them in FIFO
order, charging Elan time, and injects packets into the fabric.  An
arriving packet is processed by the receive worker (charging
``elan_rx`` or ``dma_rx``) which applies the packet's ``deliver``
closure — writing a :class:`Region`, setting a hardware event, or
running protocol code in Elan context.

Memory is modeled as named :class:`Region` objects (bounce buffers,
envelope slots, user buffers); remote stores and DMA write into regions
at offsets, exactly the user-level remote-memory-access the CS/2
provides.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import HardwareError
from repro.hw.meiko.events import HwEvent
from repro.hw.meiko.network import PKT_DMA, PKT_TXN, Packet
from repro.hw.meiko.params import MeikoParams
from repro.hw.node import Host, Processor
from repro.sim import Resource, Simulator, Store

__all__ = [
    "Region",
    "MeikoNode",
    "TxnCommand",
    "DmaCommand",
    "BcastCommand",
    "ElanCallCommand",
]


class Region:
    """A named, fixed-size memory region (destination of remote writes)."""

    def __init__(self, name: str, size: int):
        if size < 0:
            raise ValueError(f"negative region size {size}")
        self.name = name
        self.data = bytearray(size)

    def __len__(self) -> int:
        return len(self.data)

    def write(self, offset: int, payload: bytes) -> None:
        end = offset + len(payload)
        if offset < 0 or end > len(self.data):
            raise HardwareError(
                f"write [{offset}, {end}) outside region {self.name!r} of size {len(self.data)}"
            )
        self.data[offset:end] = payload

    def read(self, offset: int, nbytes: int) -> bytes:
        end = offset + nbytes
        if offset < 0 or end > len(self.data):
            raise HardwareError(
                f"read [{offset}, {end}) outside region {self.name!r} of size {len(self.data)}"
            )
        return bytes(self.data[offset:end])


@dataclass
class TxnCommand:
    """Remote transaction: word-by-word store of *payload_nbytes* bytes."""

    dst: int
    payload_nbytes: int
    deliver: Callable
    #: optional event set locally once the Elan has injected the packet
    local_done: Optional[HwEvent] = None


@dataclass
class DmaCommand:
    """Block transfer streamed by the DMA engine."""

    dst: int
    nbytes: int
    deliver: Callable
    #: optional event set locally once the stream has left the node
    local_done: Optional[HwEvent] = None


@dataclass
class BcastCommand:
    """Hardware broadcast: one DMA injection, one fabric traversal,
    delivered to every node (the CS/2 broadcast range).  ``make_deliver``
    maps a destination node id to its deliver closure (or None to skip)."""

    nbytes: int
    make_deliver: Callable[[int], Optional[Callable]]
    local_done: Optional[HwEvent] = None


@dataclass
class ElanCallCommand:
    """Run protocol code on the Elan (used by the tport widget to post
    receive descriptors and by devices for Elan-side bookkeeping)."""

    run: Callable


class MeikoNode(Host):
    """One CS/2 node.  ``cpu`` is the SPARC; ``elan`` the co-processor."""

    def __init__(self, sim: Simulator, hostid: int, params: MeikoParams, network, seed: int = 0):
        super().__init__(sim, hostid, name=f"meiko{hostid}", seed=seed)
        self.params = params
        self.network = network
        self.elan = Processor(sim, name=f"{self.name}.elan")
        self.dma_engine = Resource(sim, capacity=1, name=f"{self.name}.dma")
        self.cmdq: Store = Store(sim, name=f"{self.name}.cmdq")
        self.rxq: Store = Store(sim, name=f"{self.name}.rxq")
        self._regions = {}
        self._started = False

    # -- memory -----------------------------------------------------------
    def alloc_region(self, name: str, size: int) -> Region:
        """Allocate a named memory region on this node."""
        if name in self._regions:
            raise HardwareError(f"region {name!r} already allocated on {self.name}")
        region = Region(f"{self.name}.{name}", size)
        self._regions[name] = region
        return region

    def region(self, name: str) -> Region:
        return self._regions[name]

    def event(self, name: str = "") -> HwEvent:
        """A fresh hardware event word on this node."""
        return HwEvent(self.sim, name=f"{self.name}.{name}")

    # -- workers ------------------------------------------------------------
    def start(self) -> None:
        """Start the Elan command and receive workers (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.process(self._cmd_worker(), name=f"{self.name}.elan-cmd")
        self.sim.process(self._rx_worker(), name=f"{self.name}.elan-rx")

    def enqueue_rx(self, packet: Packet) -> None:
        """Called by the network when a packet arrives for this node."""
        self.rxq.post(packet)

    def _cmd_worker(self):
        p = self.params
        while True:
            cmd = yield self.cmdq.get()
            if isinstance(cmd, TxnCommand):
                # Elan generates the remote stores word by word.
                cost = p.elan_cmd + cmd.payload_nbytes * p.txn_per_byte
                yield from self.elan.execute(cost)
                self.network.transmit(
                    Packet(
                        PKT_TXN,
                        self.hostid,
                        cmd.dst,
                        cmd.payload_nbytes + p.packet_header,
                        cmd.deliver,
                    )
                )
                if cmd.local_done is not None:
                    cmd.local_done.set()
            elif isinstance(cmd, DmaCommand):
                # Elan processes the descriptor, then the DMA engine
                # streams the block; the Elan is free during the stream.
                yield from self.elan.execute(p.elan_cmd + p.dma_setup)
                self.sim.process(self._dma_stream(cmd), name=f"{self.name}.dma-stream")
            elif isinstance(cmd, BcastCommand):
                yield from self.elan.execute(p.elan_cmd + p.dma_setup)
                self.sim.process(self._bcast_stream(cmd), name=f"{self.name}.bcast-stream")
            elif isinstance(cmd, ElanCallCommand):
                yield from self.elan.execute(p.elan_cmd)
                result = cmd.run()
                if inspect.isgenerator(result):
                    yield from result
            else:  # pragma: no cover - defensive
                raise HardwareError(f"unknown Elan command {cmd!r}")

    def _dma_stream(self, cmd: DmaCommand):
        p = self.params
        yield from self.dma_engine.use(cmd.nbytes * p.dma_per_byte)
        self.network.transmit(
            Packet(
                PKT_DMA,
                self.hostid,
                cmd.dst,
                cmd.nbytes + p.packet_header,
                cmd.deliver,
            )
        )
        if cmd.local_done is not None:
            cmd.local_done.set()

    def _bcast_stream(self, cmd: BcastCommand):
        p = self.params
        yield from self.dma_engine.use(cmd.nbytes * p.dma_per_byte)
        src = self.hostid
        wire = cmd.nbytes + p.packet_header

        def make_packet(dst: int) -> Optional[Packet]:
            deliver = cmd.make_deliver(dst)
            if deliver is None:
                return None
            return Packet(PKT_DMA, src, dst, wire, deliver)

        self.network.broadcast(src, make_packet)
        if cmd.local_done is not None:
            cmd.local_done.set()

    def _rx_worker(self):
        p = self.params
        while True:
            packet = yield self.rxq.get()
            yield from self.elan.execute(p.elan_rx if packet.kind == PKT_TXN else p.dma_rx)
            result = packet.deliver()
            if inspect.isgenerator(result):
                # deliver may be protocol code running in Elan context
                yield from result

    # -- SPARC-side primitives (generators, run in the caller's process) ----
    def issue(self, cmd) -> None:
        """Enqueue an Elan command without charging SPARC time (internal)."""
        self.cmdq.post(cmd)

    def issue_txn(
        self,
        dst: int,
        payload_nbytes: int,
        deliver: Callable,
        local_done: Optional[HwEvent] = None,
    ):
        """Issue a remote transaction from the SPARC (charges txn_issue)."""
        yield from self.cpu.execute(self.params.txn_issue)
        self.cmdq.post(TxnCommand(dst, payload_nbytes, deliver, local_done))

    def issue_dma(
        self,
        dst: int,
        nbytes: int,
        deliver: Callable,
        local_done: Optional[HwEvent] = None,
    ):
        """Issue a DMA from the SPARC (charges txn_issue for the descriptor)."""
        yield from self.cpu.execute(self.params.txn_issue)
        self.cmdq.post(DmaCommand(dst, nbytes, deliver, local_done))

    def issue_bcast(
        self,
        nbytes: int,
        make_deliver: Callable[[int], Optional[Callable]],
        local_done: Optional[HwEvent] = None,
    ):
        """Issue a hardware broadcast from the SPARC."""
        yield from self.cpu.execute(self.params.txn_issue)
        self.cmdq.post(BcastCommand(nbytes, make_deliver, local_done))

    def set_remote_event(self, dst: int, event: HwEvent):
        """Set a hardware event on a remote node (a zero-payload txn)."""
        yield from self.issue_txn(dst, 0, event.set)

    def wait_event(self, event: HwEvent):
        """SPARC wait on a hardware event (charges the wake/poll cost)."""
        yield event.wait1()
        yield from self.cpu.execute(self.params.event_poll)
