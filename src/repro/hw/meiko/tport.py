"""The Meiko *tport* widget: tagged message passing with Elan matching.

This is the communication layer the stock MPICH CS/2 port is built on
(and the baseline of the paper's Figure 2/3).  Semantics:

* a **send** carries a (sender, tag) pair and a byte payload;
* a **receive** posts a descriptor with a sender filter (exact id or
  ``ANY_SENDER``) and a tag/mask filter;
* **matching runs on the Elan co-processor** in arrival order, so the
  main SPARC processor is free, at the cost of slow (10 MHz) matching
  and SPARC↔Elan synchronization on completion;
* messages up to :attr:`MeikoParams.tport_rdv_threshold` travel eagerly
  with the envelope (buffered in the tport heap if unmatched); larger
  messages send an envelope and the data follows by DMA once matched
  (rendezvous), giving the widget its high large-message bandwidth.

Tags are arbitrary-width Python ints; ``mask`` selects the bits that
must agree — MPI layers use wide tags encoding (context, user tag).
Non-overtaking: matching scans queues in arrival/post order, and the
fabric delivers envelopes of a sender pair in issue order.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.errors import HardwareError
from repro.hw.meiko.events import HwEvent
from repro.hw.meiko.node import ElanCallCommand, MeikoNode, TxnCommand, DmaCommand
from repro.sim import EMPTY

__all__ = ["ANY_SENDER", "ALL_BITS", "TPort", "TPortHandle"]

#: wildcard sender filter
ANY_SENDER = -1
#: default mask: all tag bits must match
ALL_BITS = -1  # Python ints: -1 is ...111 in two's complement, & keeps all bits

#: envelope bytes carried by every tport message on the wire
ENVELOPE_BYTES = 24


class TPortHandle:
    """Completion handle for a nonblocking tport operation."""

    __slots__ = ("kind", "done", "data", "src", "tag", "nbytes", "sender_filter", "mask")

    def __init__(self, kind: str, done: HwEvent):
        self.kind = kind
        self.done = done
        self.data: Optional[bytes] = None
        self.src: Optional[int] = None
        self.tag: Optional[int] = None
        self.nbytes = 0
        self.sender_filter = ANY_SENDER
        self.mask = ALL_BITS

    @property
    def complete(self) -> bool:
        """True once the operation has finished (event was set)."""
        return self.done.total_sets > 0


class _Arrival:
    """An envelope sitting in the unexpected queue (Elan side)."""

    __slots__ = ("src", "tag", "data", "nbytes", "request_data")

    def __init__(self, src, tag, nbytes, data=None, request_data=None):
        self.src = src
        self.tag = tag
        self.nbytes = nbytes
        #: payload, present for eager arrivals (buffered in the tport heap)
        self.data = data
        #: for rendezvous arrivals: callable(handle) that asks the sender
        #: to DMA straight into the matched receive
        self.request_data = request_data


class TPort:
    """Per-node endpoint of the machine-wide tport widget."""

    def __init__(self, node: MeikoNode, machine):
        self.node = node
        self.machine = machine
        self.params = node.params
        #: receive descriptors posted but unmatched (Elan state); like
        #: ``unexpected`` a deque from its first entry on
        #: (repro.sim.EMPTY until then)
        self.posted: Sequence[TPortHandle] = EMPTY
        #: arrivals not yet matched (Elan state)
        self.unexpected: Sequence[_Arrival] = EMPTY
        #: rendezvous sends awaiting the receiver's data request,
        #: keyed by a per-send cookie
        self._pending_rdv = {}
        self._cookie = 0

    # -- public API (SPARC context, generators) ---------------------------
    def isend(self, dst: int, tag: int, data: bytes) -> TPortHandle:
        """Nonblocking tagged send; handle completes when the payload has
        left the user buffer.  Constant SPARC cost — the Elan does the rest.
        """
        self._check_dst(dst)
        data = bytes(data)
        handle = TPortHandle("send", self.node.event("tsend"))
        handle.nbytes = len(data)
        p = self.params
        if len(data) <= p.tport_rdv_threshold:
            self.node.issue(
                TxnCommand(
                    dst,
                    ENVELOPE_BYTES + len(data),
                    self._make_eager_deliver(dst, tag, data),
                    local_done=handle.done,
                )
            )
        else:
            cookie = self._cookie = self._cookie + 1
            self._pending_rdv[cookie] = (dst, data, handle)
            self.node.issue(
                TxnCommand(
                    dst,
                    ENVELOPE_BYTES,
                    self._make_rdv_envelope_deliver(dst, tag, len(data), cookie),
                )
            )
        return handle

    def tsend(self, dst: int, tag: int, data: bytes):
        """Blocking tagged send (generator)."""
        yield from self.node.cpu.execute(self.params.sparc_call + self.params.tport_call_overhead)
        yield from self.node.cpu.execute(self.params.txn_issue)
        handle = self.isend(dst, tag, data)
        yield from self.twait(handle)

    def irecv(
        self, tag: int, sender: int = ANY_SENDER, mask: int = ALL_BITS
    ) -> TPortHandle:
        """Nonblocking tagged receive: posts a descriptor to the Elan."""
        handle = TPortHandle("recv", self.node.event("trecv"))
        handle.sender_filter = sender
        handle.tag = tag
        handle.mask = mask
        self.node.issue(ElanCallCommand(lambda: self._elan_post(handle)))
        return handle

    def trecv(self, tag: int, sender: int = ANY_SENDER, mask: int = ALL_BITS):
        """Blocking tagged receive (generator); returns (data, src, tag)."""
        yield from self.node.cpu.execute(
            self.params.sparc_call + self.params.tport_call_overhead + self.params.txn_issue
        )
        handle = self.irecv(tag, sender, mask)
        yield from self.twait(handle)
        return handle.data, handle.src, handle.tag

    def twait(self, handle: TPortHandle):
        """Wait for a handle; charges the SPARC↔Elan completion sync."""
        yield handle.done.wait1()
        yield from self.node.cpu.execute(self.params.sparc_elan_sync)

    def tcancel(self, handle: TPortHandle):
        """Generator -> bool: withdraw a posted, unmatched receive
        descriptor (asks the Elan; True if it was still posted)."""
        yield from self.node.cpu.execute(self.params.sparc_call + self.params.txn_issue)
        holder = {}
        done = self.node.event("tcancel")

        def scan():
            holder["ok"] = handle in self.posted
            if holder["ok"]:
                self.posted.remove(handle)
            done.set()

        self.node.issue(ElanCallCommand(scan))
        yield done.wait1()
        yield from self.node.cpu.execute(self.params.sparc_elan_sync)
        return holder["ok"]

    def tprobe(self, tag: int, sender: int = ANY_SENDER, mask: int = ALL_BITS):
        """Generator -> Optional[(src, tag, nbytes)]: ask the Elan for the
        first unexpected arrival a receive posted with these filters
        would match, leaving it queued."""
        yield from self.node.cpu.execute(self.params.sparc_call + self.params.txn_issue)
        probe = TPortHandle("probe", self.node.event("tprobe"))
        probe.sender_filter = sender
        probe.tag = tag
        probe.mask = mask
        elan = self.node.elan
        match_cost = self.params.elan_match
        hit = []

        def scan():
            # scan the entries queued now, holding no deque iterator
            # across the match charge: the receive context appends
            # arrivals meanwhile (the next poll's), and nothing can
            # leave — receives are posted through the command queue,
            # which this scan occupies
            for arrival in tuple(self.unexpected):
                yield from elan.execute(match_cost)
                if self._matches(probe, arrival.src, arrival.tag):
                    hit.append((arrival.src, arrival.tag, arrival.nbytes))
                    break
            probe.done.set()

        self.node.issue(ElanCallCommand(scan))
        yield probe.done.wait1()
        yield from self.node.cpu.execute(self.params.sparc_elan_sync)
        return hit[0] if hit else None

    # -- Elan-side machinery ------------------------------------------------
    def _check_dst(self, dst: int) -> None:
        if not (0 <= dst < self.machine.nnodes):
            raise HardwareError(f"tport destination {dst} out of range")

    def _remote(self, dst: int) -> "TPort":
        return self.machine.tports()[dst]

    @staticmethod
    def _matches(handle: TPortHandle, src: int, tag: int) -> bool:
        if handle.sender_filter != ANY_SENDER and handle.sender_filter != src:
            return False
        return (tag & handle.mask) == (handle.tag & handle.mask)

    def _make_eager_deliver(self, dst, tag, data):
        src = self.node.hostid
        remote = self._remote(dst)

        def deliver():
            return remote._elan_arrival(_Arrival(src, tag, len(data), data=data))

        return deliver

    def _make_rdv_envelope_deliver(self, dst, tag, nbytes, cookie):
        src = self.node.hostid
        remote = self._remote(dst)
        sender_port = self

        def request_data(handle: TPortHandle):
            """Runs at the *receiver's* Elan when the envelope matches:
            sends the data request back to the sender."""
            def deliver_request():
                return sender_port._elan_start_dma(cookie, handle)

            remote.node.issue(TxnCommand(src, ENVELOPE_BYTES, deliver_request))

        def deliver():
            return remote._elan_arrival(
                _Arrival(src, tag, nbytes, request_data=request_data)
            )

        return deliver

    def _elan_arrival(self, arrival: _Arrival):
        """Runs in this node's Elan receive context (generator).

        Costs are charged *before* the scan so that the scan and the
        queue update are atomic — a concurrent post must not interleave
        between them (it would strand both sides in their queues).
        """
        p = self.params
        yield from self.node.elan.execute(p.elan_match * max(1, len(self.posted)))
        if arrival.data is not None:
            # copy into the tport heap / matched buffer
            yield from self.node.elan.execute(len(arrival.data) * p.elan_copy_per_byte)
        for handle in self.posted:
            if self._matches(handle, arrival.src, arrival.tag):
                self.posted.remove(handle)
                self._elan_complete_recv(handle, arrival)
                return
        unexpected = self.unexpected
        if unexpected is EMPTY:
            unexpected = self.unexpected = deque()
        unexpected.append(arrival)

    def _elan_post(self, handle: TPortHandle):
        """Runs in this node's Elan command context (generator).

        Same atomicity discipline as :meth:`_elan_arrival`.
        """
        p = self.params
        yield from self.node.elan.execute(p.elan_match * max(1, len(self.unexpected)))
        matched = None
        for arrival in self.unexpected:
            if self._matches(handle, arrival.src, arrival.tag):
                matched = arrival
                break
        if matched is None:
            posted = self.posted
            if posted is EMPTY:
                posted = self.posted = deque()
            posted.append(handle)
            return
        self.unexpected.remove(matched)
        if matched.data is not None:
            yield from self.node.elan.execute(len(matched.data) * p.elan_copy_per_byte)
        self._elan_complete_recv(handle, matched)

    def _elan_complete_recv(self, handle: TPortHandle, arrival: _Arrival) -> None:
        """Atomic completion step (copy costs already charged by callers)."""
        handle.src = arrival.src
        handle.tag = arrival.tag
        handle.nbytes = arrival.nbytes
        if arrival.data is not None:
            handle.data = arrival.data
            handle.done.set()
        else:
            # Rendezvous: ask the sender to DMA straight into the buffer.
            arrival.request_data(handle)

    def _elan_start_dma(self, cookie: int, recv_handle: TPortHandle):
        """Runs at the sender's Elan when the data request arrives."""
        dst, data, send_handle = self._pending_rdv.pop(cookie)

        def deliver():
            recv_handle.data = data
            recv_handle.done.set()

        self.node.issue(DmaCommand(dst, len(data), deliver, local_done=send_handle.done))
        return None
