"""UDP: unreliable datagrams over IP.

Datagrams larger than the link MTU are IP-fragmented; a finite
per-socket receive queue drops datagrams when full (so even a loss-free
fabric can lose UDP under overload, as in life).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import NetworkError
from repro.sim import Store

__all__ = ["UDP_HEADER", "UdpDatagram", "UdpSocket", "UdpLayer"]

#: UDP header bytes
UDP_HEADER = 8


@dataclass
class UdpDatagram:
    sport: int
    dport: int
    data: bytes

    @property
    def nbytes(self) -> int:
        return UDP_HEADER + len(self.data)


class UdpSocket:
    """A bound UDP port."""

    def __init__(self, layer: "UdpLayer", port: int, queue_limit: int = 64):
        self.layer = layer
        self.kernel = layer.kernel
        self.port = port
        self._queue: Store = Store(layer.kernel.sim)
        self.queue_limit = queue_limit
        self.drops = 0
        #: optional callback on datagram arrival
        self.on_data: Optional[Callable] = None

    def sendto(self, dst_host: int, dst_port: int, data: bytes):
        """Generator: transmit one datagram."""
        data = bytes(data)
        p = self.kernel.params
        yield from self.kernel.syscall_write(len(data))
        yield from self.kernel.charge(p.udp_out)
        dgram = UdpDatagram(self.port, dst_port, data)
        self.kernel.ip.send(dst_host, "udp", dgram, dgram.nbytes)

    def recvfrom(self):
        """Generator -> (src_host, bytes): block for the next datagram."""
        src, dgram = yield self._queue.get()
        yield from self.kernel.syscall_read(len(dgram.data))
        return src, dgram.data

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _deliver(self, src_host: int, dgram: UdpDatagram) -> None:
        if len(self._queue) >= self.queue_limit:
            self.drops += 1
            return
        self._queue.post((src_host, dgram))
        if self.on_data is not None:
            self.on_data()


class UdpLayer:
    """Per-host UDP instance."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sockets: Dict[int, UdpSocket] = {}

    def bind(self, port: int, queue_limit: int = 64) -> UdpSocket:
        if port in self.sockets:
            raise NetworkError(f"UDP port {port} already bound")
        sock = UdpSocket(self, port, queue_limit)
        self.sockets[port] = sock
        return sock

    def on_datagram(self, src_host: int, dgram: UdpDatagram):
        """Generator (kernel worker context)."""
        yield from self.kernel.charge(self.kernel.params.udp_in)
        sock = self.sockets.get(dgram.dport)
        if sock is not None:
            sock._deliver(src_host, dgram)
        # datagrams to unbound ports vanish (a real stack sends ICMP)
