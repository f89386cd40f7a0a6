"""The Fore GIA-200 interface card.

The card's i960 performs segmentation and reassembly on board, so SAR
costs are charged to the card's own processor, not the host CPU — the
host only pays its protocol-stack and syscall costs (which, the paper
finds, dominate: the Fore API is barely faster than kernel TCP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import NetworkError
from repro.hw.atm.aal import AAL5, aal_cells
from repro.hw.atm.params import AtmParams
from repro.hw.node import Processor
from repro.sim import Store

__all__ = ["Pdu", "AtmNic"]


@dataclass
class Pdu:
    """An AAL protocol data unit traveling the fabric as a cell train."""

    src: int
    dst: int
    nbytes: int
    ncells: int
    aal: str
    payload: Any


class AtmNic:
    """One host's GIA-200 attachment to the switch."""

    def __init__(self, host, switch, addr: Optional[int] = None, params: Optional[AtmParams] = None):
        self.host = host
        self.sim = host.sim
        self.switch = switch
        self.params = params or switch.params
        self.addr = host.hostid if addr is None else addr
        #: set by the protocol stack: called with each reassembled Pdu
        self.rx_handler: Optional[Callable[[Pdu], None]] = None
        #: the on-board i960 doing SAR
        self.i960 = Processor(host.sim, name=f"atm{self.addr}.i960")
        self._txq: Store = Store(host.sim, name=f"atm{self.addr}.txq")
        self.mtu = self.params.max_pdu
        self.sim.process(self._tx_worker(), name=f"atm{self.addr}.tx")
        switch.attach(self)

    @property
    def max_payload(self) -> int:
        return self.mtu

    def send(self, dst: int, nbytes: int, payload: Any, aal: str = AAL5) -> None:
        """Queue a PDU for transmission (the card segments and sends in
        the background)."""
        if nbytes > self.mtu:
            raise NetworkError(f"PDU of {nbytes} bytes exceeds max {self.mtu}")
        ncells = aal_cells(nbytes, aal, self.params)
        self._txq.post(Pdu(self.addr, dst, nbytes, ncells, aal, payload))

    def _tx_worker(self):
        p = self.params
        sim = self.sim
        while True:
            pdu = yield self._txq.get()
            # i960 segmentation
            yield from self.i960.execute(p.sar_per_pdu + pdu.ncells * p.sar_per_cell)
            # serialize the cell train onto the link
            train = pdu.ncells * p.cell_time()
            if not sim.hold(train):
                yield sim.timeout1(train)
            self.switch.forward(pdu)

    def on_pdu(self, pdu: Pdu) -> None:
        """Called by the switch when the train has cleared our port;
        reassembly runs on the i960, then the stack is notified."""
        self.sim.process(self._rx_one(pdu), name=f"atm{self.addr}.rx")

    def _rx_one(self, pdu: Pdu):
        p = self.params
        yield from self.i960.execute(p.sar_per_pdu + pdu.ncells * p.sar_per_cell)
        if self.rx_handler is not None:
            self.rx_handler(pdu)
