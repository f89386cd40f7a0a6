"""The ATM switch: output-buffered, one queue per port.

A PDU travels as a train of cells.  The model serializes the train on
the sender's link (done by the NIC), adds the switch's fixed forwarding
latency, then serializes the train again on the destination's output
port — contention between senders targeting the same receiver queues at
that port, exactly like an output-buffered ASX-200.  There is no shared
medium: disjoint pairs communicate without interference (the property
Figure 9 credits for ATM's scaling).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import NetworkError
from repro.sim import Resource, Simulator

__all__ = ["AtmSwitch"]


class AtmSwitch:
    """An output-buffered cell switch."""

    def __init__(self, sim: Simulator, params, nports: int = 8, injector=None):
        self.sim = sim
        self.params = params
        self.nports = nports
        #: structured fault injection (:class:`repro.faults.FaultInjector`)
        self.injector = injector
        self._ports: Dict[int, Resource] = {
            i: Resource(sim, 1, name=f"atm-port{i}") for i in range(nports)
        }
        self.nics: Dict[int, "AtmNicLike"] = {}
        self.pdus_forwarded = 0
        self.pdus_dropped = 0
        self.pdus_corrupted = 0
        self.pdus_duplicated = 0

    def attach(self, nic) -> None:
        if nic.addr in self.nics:
            raise NetworkError(f"port {nic.addr} already attached")
        if not (0 <= nic.addr < self.nports):
            raise NetworkError(f"port {nic.addr} out of range [0, {self.nports})")
        self.nics[nic.addr] = nic

    def forward(self, pdu) -> None:
        """Accept a PDU train from an input port (called by the NIC after
        link serialization); forwards it in the background."""
        if pdu.dst not in self.nics:
            raise NetworkError(f"no NIC on port {pdu.dst}")
        copies = 1
        if self.injector is not None:
            from repro.faults import CORRUPT, DROP, DUPLICATE

            action = self.injector.decide(pdu.src, pdu.dst, pdu.nbytes)
            if action == DROP:
                self.pdus_dropped += 1
                return
            if action == CORRUPT:
                # delivered damaged; the AAL5 CRC-32 discards the train
                self.pdus_corrupted += 1
                return
            if action == DUPLICATE:
                self.pdus_duplicated += 1
                copies = 2
        for _ in range(copies):
            self.sim.process(self._forward(pdu), name=f"atm-fwd-{pdu.dst}")

    def _forward(self, pdu):
        p = self.params
        sim = self.sim
        if not sim.hold(p.switch_latency):
            yield sim.timeout1(p.switch_latency)
        # serialize the train on the destination's output port
        train_time = pdu.ncells * p.cell_time()
        yield from self._ports[pdu.dst].use(train_time)
        self.pdus_forwarded += 1
        self.nics[pdu.dst].on_pdu(pdu)
