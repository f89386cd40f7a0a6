"""The Fore API: direct user access to the ATM adaptation layers.

Fore's API lets applications send AAL3/4 (or AAL5) PDUs without TCP/IP
— but the data still crosses the kernel through the same STREAMS
modules, so (as the paper measures in Figure 4) its latency is barely
better than TCP's.  We charge ``fore_out``/``fore_in`` from the ATM
kernel profile plus the usual syscalls, and ship PDUs straight to the
NIC with AAL3/4 segmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import NetworkError
from repro.hw.atm.aal import AAL34
from repro.sim import Store

__all__ = ["ForeMessage", "ForeApi"]


@dataclass
class ForeMessage:
    """One AAL PDU exchanged through the Fore API."""

    sport: int
    dport: int
    data: bytes

    @property
    def nbytes(self) -> int:
        return len(self.data)


class ForeApi:
    """Per-host Fore API instance (requires an ATM NIC)."""

    def __init__(self, kernel, aal: str = AAL34):
        from repro.hw.atm.nic import AtmNic

        if not isinstance(kernel.nic, AtmNic):
            raise NetworkError("the Fore API requires an ATM interface")
        self.kernel = kernel
        self.nic = kernel.nic
        self.aal = aal
        self._queues: Dict[int, Store] = {}
        kernel.register_handler(ForeMessage, self._on_message)

    def bind(self, port: int) -> int:
        if port in self._queues:
            raise NetworkError(f"Fore port {port} already bound")
        self._queues[port] = Store(self.kernel.sim)
        return port

    def send(self, dst_host: int, dst_port: int, data: bytes, sport: int = 0):
        """Generator: send one PDU."""
        data = bytes(data)
        p = self.kernel.params
        yield from self.kernel.syscall_write(len(data))
        yield from self.kernel.charge(p.fore_out)
        self.nic.send(dst_host, len(data), ForeMessage(sport, dst_port, data), aal=self.aal)

    def recv(self, port: int):
        """Generator -> (bytes): block for the next PDU on *port*."""
        if port not in self._queues:
            raise NetworkError(f"Fore port {port} not bound")
        msg = yield self._queues[port].get()
        yield from self.kernel.syscall_read(len(msg.data))
        return msg.data

    def _on_message(self, msg: ForeMessage):
        """Generator (kernel worker context)."""
        yield from self.kernel.charge(self.kernel.params.fore_in)
        q = self._queues.get(msg.dport)
        if q is not None:
            q.post(msg)
