"""Ethernet NIC: one transmit queue per station, receive hand-off.

The NIC serializes this station's outgoing frames (a second send waits
for the first to clear the transceiver) and hands received frames to
the host's protocol stack via ``rx_handler``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import NetworkError
from repro.hw.ethernet.frame import Frame
from repro.hw.ethernet.medium import Medium
from repro.sim import Store

__all__ = ["EthernetNic"]


class EthernetNic:
    """One station's attachment to the shared segment."""

    def __init__(self, host, medium: Medium, addr: Optional[int] = None):
        self.host = host
        self.sim = host.sim
        self.medium = medium
        # backoff draws randrange from host.rng: pin the host's jitter
        # stream to the raw Random (no float batching, see Host.claim_raw_rng)
        host.claim_raw_rng()
        self.addr = host.hostid if addr is None else addr
        #: set by the protocol stack: called with each received Frame
        self.rx_handler: Optional[Callable[[Frame], None]] = None
        #: frames abandoned after 16 collisions (excessive-collision errors)
        self.tx_aborts = 0
        self._txq: Store = Store(host.sim, name=f"eth{self.addr}.txq")
        self.mtu = medium.params.mtu
        self.sim.process(self._tx_worker(), name=f"eth{self.addr}.tx")

    @property
    def max_payload(self) -> int:
        return self.mtu

    def send(self, dst: int, nbytes: int, payload: Any) -> None:
        """Queue a frame for transmission (returns immediately; the NIC
        transmits in the background)."""
        if nbytes > self.mtu:
            raise NetworkError(f"payload {nbytes} exceeds Ethernet MTU {self.mtu}")
        self._txq.post(Frame(self.addr, dst, nbytes, payload))

    def _tx_worker(self):
        while True:
            frame = yield self._txq.get()
            try:
                yield from self.medium.transmit(frame, self.host.rng)
            except NetworkError:
                # Excessive collisions: a real transceiver gives up on
                # *this frame* and reports the error — the station keeps
                # transmitting and the protocol layers retransmit.  The
                # worker must survive, or the station is mute forever.
                self.tx_aborts += 1

    def on_frame(self, frame: Frame) -> None:
        """Called by the medium on delivery."""
        if self.rx_handler is not None:
            self.rx_handler(frame)
