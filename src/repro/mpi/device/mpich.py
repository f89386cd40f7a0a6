"""The MPICH comparison device: MPI layered over the tport widget.

This models the stock ANL/MSU MPICH port for the CS/2 that the paper
measures against (Figure 2): all matching is delegated to the **Elan**
via the tport widget — sends and receives progress in the background
without the SPARC, but each operation pays

* the MPICH call-surface overhead on the SPARC (communicator and
  datatype translation, request bookkeeping), and
* slow 10 MHz Elan matching plus SPARC↔Elan completion synchronization,

which together account for the paper's measured 158 µs of added
round-trip latency over the bare widget.

MPI (source, tag, context) matching is encoded into wide tport tags:

    bits 45..      communicator context id
    bits 44..45    channel (0 = user message, 1 = internal ack,
                   2 = library-internal collective traffic — kept off
                   the user channel so ANY_TAG cannot match it)
    bits 12..43    user tag, or ack cookie
    bits 0..11     flags (not matched): FLAG_SYNC

Synchronous sends carry an 8-byte cookie prefix in the payload; the
receiver strips it and returns an ack on the internal channel.

Broadcast: MPICH has no hardware-broadcast path — ``MPI_Bcast`` runs
over point-to-point messages (binomial tree), which is exactly the
contrast Figure 7 measures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, INTERNAL_TAG_BASE, MODE_SYNCHRONOUS
from repro.mpi.device.base import Endpoint
from repro.mpi.exceptions import MPIError, TruncationError
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.hw.meiko.tport import ANY_SENDER, TPort, TPortHandle

__all__ = ["MpichConfig", "MpichEndpoint"]

# --- tag-word layout ---------------------------------------------------------
_FLAG_BITS = 12
_FIELD_BITS = 32
_CHAN_SHIFT = _FLAG_BITS + _FIELD_BITS  # 44
_CHAN_BITS = 2  # 0 = user, 1 = internal ack, 2 = collective
_CTX_SHIFT = _CHAN_SHIFT + _CHAN_BITS  # 46

FLAG_SYNC = 0x001

#: match context+channel+field, ignore flags
MASK_EXACT = ~((1 << _FLAG_BITS) - 1)
#: match context+channel only (ANY_TAG)
MASK_CHAN = ~((1 << _CHAN_SHIFT) - 1)

_COOKIE_BYTES = 8


def encode_tag(context: int, field: int, chan: int = 0, flags: int = 0) -> int:
    """Pack (context, channel, field, flags) into a tport tag word."""
    return (context << _CTX_SHIFT) | (chan << _CHAN_SHIFT) | (field << _FLAG_BITS) | flags


def match_word(context: int, tag: int):
    """The tport tag word and mask that match *tag* (or ANY_TAG) in
    *context*: a user tag and an internal one live on separate channels,
    and ANY_TAG matches the whole user channel."""
    if tag == ANY_TAG:
        return encode_tag(context, 0), MASK_CHAN
    chan = 2 if tag >= INTERNAL_TAG_BASE else 0
    return encode_tag(context, tag, chan=chan), MASK_EXACT


def decode_tag(word: int):
    """Unpack a tport tag word -> (context, chan, field, flags)."""
    return (
        word >> _CTX_SHIFT,
        (word >> _CHAN_SHIFT) & ((1 << _CHAN_BITS) - 1),
        (word >> _FLAG_BITS) & ((1 << _FIELD_BITS) - 1),
        word & ((1 << _FLAG_BITS) - 1),
    )


@dataclass(frozen=True)
class MpichConfig:
    """Tunables (µs).  The overheads are calibrated so the 1-byte
    ping-pong round trip lands at the paper's ~210 µs (52 + 158)."""

    #: SPARC cost of an MPICH send call above the tport widget
    send_overhead: float = 79.8
    #: SPARC cost of an MPICH receive call above the tport widget
    recv_overhead: float = 75.5
    #: polling interval of the blocking-probe loop
    probe_interval: float = 10.0

    def with_overrides(self, **kw) -> "MpichConfig":
        return replace(self, **kw)


class MpichEndpoint(Endpoint):
    """One rank's endpoint of the MPICH/tport device."""

    def __init__(self, world_rank: int, node, tport: TPort, config: Optional[MpichConfig] = None):
        super().__init__(world_rank, node)
        self.node = node
        self.tport = tport
        self.config = config or MpichConfig()
        #: set by the platform builder: world rank -> MpichEndpoint
        self.peers = []
        #: the live set: incomplete requests with tport handles, in posting
        #: order (read by fault tolerance).  A request leaves as the device
        #: completes it, so a finished operation holds no device memory.
        self._outstanding = {}

    # ------------------------------------------------------- fault tolerance
    def _ft_requests(self):
        for req in tuple(self._outstanding):
            yield req, (lambda r=req: self._ft_cancel(r))

    def _ft_cancel(self, req: Request) -> None:
        """Tear down a request's Elan state: withdraw its descriptors from
        the tport's posted queue (so late traffic can never match them)
        and fire their completion events to wake any blocked twait.  The
        FT layer fails the request next: it leaves the live set here."""
        del self._outstanding[req]
        state = req._device_state
        if not isinstance(state, tuple):
            return
        for h in state:
            if h is None:
                continue
            if h in self.tport.posted:
                self.tport.posted.remove(h)
            h.done.set()

    # ------------------------------------------------------------------ sends
    def start_send(self, req: Request):
        p = self.node.params
        cfg = self.config
        obs = self.sim.obs
        t0 = self.sim.now
        yield from self.node.cpu.execute(cfg.send_overhead)
        wire = req.datatype.pack(req.buf, req.count)
        if not req.datatype.contiguous:
            yield from self.node.cpu.execute(len(wire) * p.sparc_copy_per_byte)
        dest_world = req.comm.world_rank(req.peer)
        seq = self._next_seq(dest_world, req.comm.context_id)
        mid = None
        if obs is not None:
            mid = (self.world_rank, dest_world, req.comm.context_id, seq)
            obs.emit(
                t0,
                "dev",
                "msg.send",
                rank=self.world_rank,
                msg=mid,
                detail={"tag": req.tag, "nbytes": len(wire), "proto": "tport", "mode": req.mode},
            )
        flags = 0
        ack_handle = None
        if req.mode == MODE_SYNCHRONOUS:
            cookie = self._next_cookie() & 0xFFFFFFFF
            flags |= FLAG_SYNC
            wire = cookie.to_bytes(_COOKIE_BYTES, "little") + wire
            # post the ack receive before the send can possibly be acked
            ack_tag = encode_tag(req.comm.context_id, cookie, chan=1)
            ack_handle = self.tport.irecv(ack_tag, sender=dest_world, mask=-1)
        word, _mask = match_word(req.comm.context_id, req.tag)
        yield from self.node.cpu.execute(p.txn_issue)
        handle = self.tport.isend(dest_world, word | flags, wire)
        if obs is not None:
            obs.emit(
                self.sim.now,
                "dev",
                "env.sent",
                rank=self.world_rank,
                msg=mid,
                detail={"tag": req.tag, "nbytes": len(wire), "proto": "tport"},
            )
        req._device_state = (handle, ack_handle)
        self._outstanding[req] = None
        if req.on_complete is not None:
            # a bsend shadow: nobody will wait on it, so watch the handle
            self.sim.process(self._shadow_watcher(req, handle), name="mpich-bsend-watch")

    def _shadow_watcher(self, req: Request, handle: TPortHandle):
        yield handle.done.wait1()
        if not req.complete:  # the FT layer may have failed it already
            req._complete(Status(tag=req.tag, count_bytes=req.count))
            del self._outstanding[req]

    # ---------------------------------------------------------------- receives
    def start_recv(self, req: Request):
        cfg = self.config
        yield from self.node.cpu.execute(cfg.recv_overhead)
        sender = (
            ANY_SENDER if req.peer == ANY_SOURCE else req.comm.world_rank(req.peer)
        )
        word, mask = match_word(req.comm.context_id, req.tag)
        yield from self.node.cpu.execute(self.node.params.txn_issue)
        handle = self.tport.irecv(word, sender=sender, mask=mask)
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                self.sim.now,
                "dev",
                "match.post",
                rank=self.world_rank,
                detail={"source": req.peer, "tag": req.tag, "matching": "elan"},
            )
        req._device_state = (handle, None)
        self._outstanding[req] = None

    # ------------------------------------------------------------------- wait
    def wait(self, reqs: Sequence[Request], mode: str = "all"):
        if mode == "all":
            for req in reqs:
                yield from self._finalize(req)
                req.raise_if_failed()
            return
        if mode != "any":
            raise MPIError(f"wait mode must be 'all' or 'any', got {mode!r}")
        # waitany: race the primary events, then finalize the winner
        if any(r.complete for r in reqs):
            return
        # a handle may have completed between posting and this call (its
        # done event fired with no waiter) — only block when none is ready
        waits = {}
        if not any(req._device_state[0].complete for req in reqs):
            for req in reqs:
                handle, _ack = req._device_state
                waits[req] = handle.done.wait()
        if waits:
            yield self.sim.any_of(list(waits.values()))
            for req, ev in waits.items():
                if not ev.processed:
                    handle, _ack = req._device_state
                    handle.done.cancel_wait(ev)
                else:
                    # put the consumed set back for _finalize to consume
                    handle, _ack = req._device_state
                    handle.done.set()
        for req in reqs:
            handle, _ack = req._device_state
            if handle.complete:
                yield from self._finalize(req)
                req.raise_if_failed()
                return

    def test(self, req: Request):
        handle, ack = req._device_state if req._device_state else (None, None)
        if req.complete:
            req.raise_if_failed()
            return True
        if handle is not None and handle.complete and (ack is None or ack.complete):
            yield from self._finalize(req)
            req.raise_if_failed()
            return True
        sim = self.sim
        if not sim.hold(0):
            yield sim.timeout1(0)
        return False

    def _finalize(self, req: Request):
        """Drive a request to completion via its tport handle(s) and
        release it from the live set."""
        if req.complete:
            return
        handle, ack_handle = req._device_state
        yield from self.tport.twait(handle)
        if req.complete:
            return  # the FT layer failed (and released) it while we were blocked
        if req.kind == "send":
            if ack_handle is not None:
                yield from self.tport.twait(ack_handle)
                if req.complete:
                    return
            req._complete(Status(tag=req.tag, count_bytes=handle.nbytes))
        else:
            # receive: decode, strip any sync cookie, ack, unpack
            yield from self._finish_recv(req, handle)
        del self._outstanding[req]

    def _finish_recv(self, req: Request, handle: TPortHandle):
        p = self.node.params
        context, _chan, field, flags = decode_tag(handle.tag)
        data = handle.data
        if flags & FLAG_SYNC:
            cookie = int.from_bytes(data[:_COOKIE_BYTES], "little")
            data = data[_COOKIE_BYTES:]
            ack_tag = encode_tag(context, cookie, chan=1)
            yield from self.node.cpu.execute(p.txn_issue)
            self.tport.isend(handle.src, ack_tag, b"")
        src_comm_rank = req.comm.group.rank_of(handle.src)
        status = Status(source=src_comm_rank, tag=field, count_bytes=len(data))
        capacity = self._capacity_bytes(req)
        if len(data) > capacity:
            req._fail(TruncationError(f"{len(data)} bytes into a {capacity}-byte receive"))
            return
        self._store(req, data, status)
        obs = self.sim.obs
        if obs is not None:
            # Matching happened on the Elan, invisible to the SPARC, so
            # mpich carries no sender message id: Table-1 phase accounting
            # targets the envelope devices, not this comparison port.
            obs.emit(
                self.sim.now,
                "dev",
                "msg.complete",
                rank=self.world_rank,
                detail={"source": src_comm_rank, "tag": field, "nbytes": len(data)},
            )

    def state_snapshot(self) -> dict:
        """Structured dump decoded from the Elan's queues.

        The endpoint's own MatchQueues are unused here — matching runs
        on the tport — so the base snapshot would always report empty
        queues.  Decode the posted descriptors and unexpected arrivals
        the Elan actually holds instead.
        """
        posted = []
        for h in self.tport.posted:
            _ctx, _chan, field, _flags = decode_tag(h.tag)
            posted.append({
                "source": ANY_SOURCE if h.sender_filter == ANY_SENDER else h.sender_filter,
                "tag": ANY_TAG if h.mask == MASK_CHAN else field,
            })
        unexpected = []
        for a in self.tport.unexpected:
            _ctx, _chan, field, _flags = decode_tag(a.tag)
            unexpected.append({"source": a.src, "tag": field})
        snap = {"rank": self.world_rank, "posted": posted, "unexpected": unexpected}
        flow = self._flow_snapshot()
        if flow:
            snap["flow"] = flow
        return snap

    def _flow_snapshot(self) -> dict:
        return {
            "matching": "elan",
            "unexpected_elan": len(self.tport.unexpected),
        }

    def _describe_flow(self, flow: dict) -> str:
        return f"elan-unexpected={flow['unexpected_elan']}"

    # ------------------------------------------------------------------ probe
    def iprobe(self, source: int, tag: int, comm):
        """Nonblocking probe: ask the Elan to scan the unexpected queue."""
        sender = ANY_SENDER if source == ANY_SOURCE else comm.world_rank(source)
        word, mask = match_word(comm.context_id, tag)
        found = yield from self.tport.tprobe(word, sender, mask)
        if found is None:
            return None
        src_world, word, nbytes = found
        _ctx, _chan, field, flags = decode_tag(word)
        if flags & FLAG_SYNC:
            nbytes -= _COOKIE_BYTES
        return Status(source=comm.group.rank_of(src_world), tag=field, count_bytes=nbytes)

    def cancel_recv(self, req: Request):
        """Generator -> bool: withdraw the tport receive descriptor."""
        if req.complete:
            return False
        handle, _ack = req._device_state
        if handle.complete:
            return False
        ok = yield from self.tport.tcancel(handle)
        if ok:
            status = Status()
            status.cancelled = True
            req._complete(status)
            del self._outstanding[req]
        return ok

    def _progress(self, block: bool):
        """MPICH progresses on the Elan; the SPARC has nothing to pump.
        Blocking sleeps one probe interval: the inherited ``probe``
        polls the Elan at that rate."""
        delay = self.config.probe_interval if block else 0
        sim = self.sim
        if not sim.hold(delay):
            yield sim.timeout1(delay)
        return False
