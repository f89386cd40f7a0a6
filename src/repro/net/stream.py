"""The reliable byte-stream engine under TCP and reliable UDP.

The paper found that its MPI-over-UDP, once made reliable at user
level, performed "very similar to that of TCP" (Sec. 5.2).  Here the
two *are* one engine: :class:`ReliableStream` owns the bounded send
buffer, the sliding window, the retransmission timer with its
deterministic-replay contract, cumulative-ACK advance, the delayed
ACK, in-order/out-of-order reassembly and terminal failure.

A transport (:class:`~repro.net.tcp.TcpConnection`,
:class:`~repro.net.rudp.RudpConnection`) supplies only its wire format
and what the wire costs:

* ``_sender()`` — the sender process.  It owns the order in which a
  data unit's CPU charges, its piggybacked ack (``_ack_rides_out``) and
  its bus event happen, because that order differs per transport and
  is visible to the simulator;
* ``_emit_retx(seq, chunk)`` and ``_emit_ack()`` — each returns the
  generator putting a retransmission / a standalone ACK on the wire;
* whatever pumps arrivals in (the kernel's segment dispatch for TCP, a
  user-level ``recvfrom`` process for RUDP), calling ``_ack_advance``,
  ``_peer_fin``, ``_accept`` and ``_arm_dack``;
* ``_check_open()``, ``close()``, the ``proto``/``retx_kind`` names and
  the ``_route`` string naming the peer in a RetransmitExhausted.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ConnectionClosed, NetworkError, RetransmitExhausted
from repro.net.bytebuf import ByteQueue
from repro.sim.notify import Notify

__all__ = ["ReliableStream"]


class ReliableStream:
    """One endpoint of a reliable, in-order byte stream."""

    #: "tcp" / "rudp": prefixes the process and Notify names
    proto = ""
    #: bus event kind of a retransmission ("seg.retx" / "pkt.retx")
    retx_kind = ""
    #: kernel generator functions charging one syscall per ``send()`` /
    #: ``recv_exact()``; None on a user-level transport, which already
    #: pays its syscalls per packet
    _write_charge: Optional[Callable] = None
    _read_charge: Optional[Callable] = None

    def __init__(self, kernel, local_port: int, remote_host: int, remote_port: int, mss: int):
        self.kernel = kernel
        self.sim = kernel.sim
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port
        #: stream bytes per segment
        self.mss = mss
        proto = self.proto
        # send side
        self.snd_una = 0
        self.snd_nxt = 0
        self._unsent = ByteQueue()
        self._unacked = ByteQueue()
        #: bytes the peer accepts beyond snd_una (TCP refreshes it from
        #: every segment; the RUDP header advertises none)
        self.peer_window = kernel.params.window
        self._send_kick = Notify(self.sim, f"{proto}-send")
        self._space = Notify(self.sim, f"{proto}-space")
        self._ack_version = 0
        # retransmission timer: a cancellable callback, no dedicated
        # process — see _arm_retx for the draw-order contract
        self._retx_timer = None
        self._retx_arming = False
        self._retx_attempts = 0
        self._retx_epoch = 0
        self._retx_deadline = -1.0
        # receive side
        self.rcv_nxt = 0
        self._rcvbuf = ByteQueue()
        self._ooo: Dict[int, bytes] = {}
        self._readable = Notify(self.sim, f"{proto}-read")
        self.peer_closed = False
        #: optional callback fired whenever new in-order data arrives
        self.on_data: Optional[Callable] = None
        #: terminal failure (RetransmitExhausted / reset); raised by send/recv
        self.error: Optional[NetworkError] = None
        # delayed-ACK state: acks ride outgoing data when possible; a
        # standalone ACK goes out after ack_delay or two segments' worth.
        # The timer is cancelled when an ack rides out, but its deadline
        # is remembered so a re-arm resumes the pending window.
        self._ack_pending = 0
        self._ack_timer = None
        self._ack_deadline = -1.0
        # statistics
        self.retransmissions = 0
        #: arrivals lying wholly below rcv_nxt, discarded
        self.duplicates = 0
        self.sim.process(self._sender(), name=f"{proto}-snd-{local_port}")

    # ------------------------------------------------------------- user API
    @property
    def available(self) -> int:
        """Bytes ready for reading."""
        return len(self._rcvbuf)

    def send(self, data: bytes):
        """Generator: write *data* to the stream (blocks on buffer space)."""
        if self.error is not None:
            raise self.error
        self._check_open()
        if not isinstance(data, bytes) and not (
            isinstance(data, memoryview) and data.readonly
        ):
            data = bytes(data)  # freeze mutable buffers once, at the API edge
        total = len(data)
        if self._write_charge is not None:
            yield from self._write_charge(total)
        sndbuf = self.kernel.params.sndbuf
        offset = 0
        view = None
        while offset < total:
            if self.error is not None:
                raise self.error
            used = len(self._unsent) + len(self._unacked)
            if used >= sndbuf:
                obs = self.sim.obs
                if obs is not None:
                    obs.emit(
                        self.sim.now,
                        "net",
                        "stall.sndbuf",
                        rank=self.kernel.host.hostid,
                        detail={"port": self.local_port, "used": used, "pending": total - offset},
                    )
                yield self._space.wait1()
                continue
            take = min(sndbuf - used, total - offset)
            if offset == 0 and take == total:
                self._unsent.append(data)  # whole buffer, by reference
            else:
                if view is None:
                    view = memoryview(data)
                self._unsent.append(view[offset : offset + take])
            offset += take
            self._send_kick.set()

    def recv_exact(self, n: int):
        """Generator -> bytes: block until *n* bytes are readable, then
        consume them (one read syscall where ``_read_charge`` is set)."""
        if n < 0:
            raise NetworkError(f"negative read size {n}")
        while len(self._rcvbuf) < n:
            if self.error is not None:
                raise self.error
            if self.peer_closed:
                raise ConnectionClosed(
                    f"peer closed with {len(self._rcvbuf)} of {n} bytes buffered"
                )
            yield self._readable.wait1()
        if self._read_charge is not None:
            yield from self._read_charge(n)
        return self._rcvbuf.take(n)

    # --------------------------------------------------------------- window
    def _window_room(self) -> int:
        """Size of the next segment of ``_unsent`` the peer's window
        lets out; 0 (after a ``stall.window`` event) when the window is
        full — the next ACK kicks the sender again."""
        inflight = self.snd_nxt - self.snd_una
        room = self.peer_window - inflight
        if room <= 0:
            obs = self.sim.obs
            if obs is not None:
                obs.emit(
                    self.sim.now,
                    "net",
                    "stall.window",
                    rank=self.kernel.host.hostid,
                    detail={
                        "dst": self.remote_host,
                        "inflight": inflight,
                        "window": self.peer_window,
                    },
                )
            return 0
        return min(self.mss, len(self._unsent), room)

    def _ack_advance(self, ack: int) -> None:
        """A cumulative ACK beyond snd_una arrived: release the bytes."""
        self._unacked.drop(ack - self.snd_una)
        self.snd_una = ack
        self._ack_version += 1
        if self.snd_una >= self.snd_nxt:
            # fully acked: cancel the timer in O(1).  _retx_deadline
            # is kept so a re-arm before it resumes the old window.
            self._cancel_retx()
        self._space.set()
        self._send_kick.set()

    # ------------------------------------------------- retransmission timer
    # Timeout retransmission of the oldest unacked segment, with
    # exponential backoff and seeded jitter; after ``max_retries``
    # unanswered attempts the connection fails (RetransmitExhausted).
    #
    # The timer is a cancellable callback, not a dedicated process.  The
    # deterministic-replay contract with the old sleeping-process
    # implementation: the jittered RTO must be drawn from the shared host
    # RNG in exactly the event slots where the old process woke up.  So a
    # fresh arm defers its draw to a zero-delay event (where the wakeup
    # notification used to land), a full ACK cancels the timer but keeps
    # its deadline so a re-arm before the deadline "resumes" the old
    # window without drawing, and fire-time re-arms draw inline (inside
    # the event where the old process checked its progress).

    def _arm_retx(self) -> None:
        """Ensure the retransmission timer is running (called on transmit)."""
        if self._retx_timer is not None or self._retx_arming or self.error is not None:
            return
        if self.sim.now < self._retx_deadline:
            # resume the window cancelled by a full ACK: no new draw; the
            # fire handler sees the ACK progress and starts a fresh window
            self._retx_timer = self.sim.call_later(
                self._retx_deadline - self.sim.now, self._on_retx_timer
            )
            return
        self._retx_arming = True
        self.sim.call_later(0.0, self._arm_retx_fresh)

    def _arm_retx_fresh(self, _event=None) -> None:
        """Draw a jittered RTO and start a fresh retransmission window."""
        self._retx_arming = False
        if self._retx_timer is not None or self.error is not None:
            return
        if self.snd_una >= self.snd_nxt:
            self._retx_attempts = 0
            return  # everything acked while arming: nothing to time
        p = self.kernel.params
        rto = min(p.rto * p.rto_backoff**self._retx_attempts, p.rto_max)
        if p.retx_jitter:
            # jitter_stream: batched floats when the host RNG has no
            # raw-bits consumer, the raw stream otherwise (same values)
            rto *= 1.0 + p.retx_jitter * self.kernel.host.jitter_stream().uniform(-1.0, 1.0)
        self._retx_epoch = self._ack_version
        self._retx_deadline = self.sim.now + rto
        self._retx_timer = self.sim.call_later(rto, self._on_retx_timer)

    def _on_retx_timer(self, _event=None) -> None:
        self._retx_timer = None
        if self.error is not None:
            return
        if self.snd_una >= self.snd_nxt:
            self._retx_attempts = 0
            return  # all data acked: go dormant until the next transmit
        if self._ack_version != self._retx_epoch:
            self._retx_attempts = 0
            self._arm_retx_fresh()
            return  # progress was made
        self._retx_attempts += 1
        p = self.kernel.params
        if self._retx_attempts > p.max_retries:
            self._fail(RetransmitExhausted(
                f"{self._route}: "
                f"{p.max_retries} retransmissions of seq {self.snd_una} unanswered"
            ))
            return
        self.sim.process(
            self._retransmit_oldest(), name=f"{self.proto}-rtx-{self.local_port}"
        )

    def _oldest_unacked(self, **why):
        """The oldest transmitted, unacknowledged segment as ``(seq,
        chunk)``, counted and announced as a retransmission (*why* ends
        the event's detail); None when nothing is outstanding."""
        # cap at what has actually been transmitted: _unacked may hold
        # bytes the sender appended but has not yet put on the wire (it
        # yields for the kernel charge between the two), and resending
        # those would advance the receiver past our snd_nxt
        n = min(self.mss, self.snd_nxt - self.snd_una, len(self._unacked))
        if n <= 0:
            return None
        # pin the sequence number now: an ACK arriving while the
        # retransmission is charged for advances snd_una, and stamping
        # the old bytes with the new snd_una would make the receiver
        # accept them as fresh data past our snd_nxt
        seq = self.snd_una
        chunk = self._unacked.peek(n)
        self.retransmissions += 1
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                self.sim.now,
                "net",
                self.retx_kind,
                rank=self.kernel.host.hostid,
                detail={"dst": self.remote_host, "seq": seq, "nbytes": n, **why},
            )
        return seq, chunk

    def _retransmit_oldest(self):
        """Short-lived process: resend the oldest unacked segment."""
        oldest = self._oldest_unacked(attempt=self._retx_attempts)
        if oldest is not None:
            yield from self._emit_retx(*oldest)
        self._arm_retx_fresh()

    def _cancel_retx(self) -> None:
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None

    def _fail(self, exc: NetworkError) -> None:
        """Terminal failure: record it and wake every waiter."""
        self._cancel_retx()
        self.error = exc
        self._readable.set()
        self._space.set()
        self._send_kick.set()
        if self.on_data is not None:
            self.on_data()

    # ---------------------------------------------------------- delayed ACK
    # Same determinism contract as the retransmission timer: the old
    # implementation armed once and let the timer run to its deadline
    # even if the pending ack rode out on data first, so a cancelled
    # timer keeps its deadline and a re-arm before the deadline resumes
    # it (a later data arrival must NOT push the standalone ACK out by a
    # fresh ack_delay).
    def _ack_rides_out(self) -> None:
        """An outgoing segment carries the current ack: a pending
        standalone-ACK timer would fire dead, so cancel it."""
        self._ack_pending = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def _arm_dack(self, nbytes: int) -> bool:
        """*nbytes* of data arrived in order.  True: two segments' worth
        is unacknowledged, send a standalone ACK now; otherwise the
        delayed-ACK timer is (left) running."""
        self._ack_pending += nbytes
        if self._ack_pending >= 2 * self.mss:
            return True
        if self._ack_timer is None:
            now = self.sim.now
            if now < self._ack_deadline:
                delay = self._ack_deadline - now  # resume the cancelled window
            else:
                delay = self.kernel.params.ack_delay
                self._ack_deadline = now + delay
            self._ack_timer = self.sim.call_later(delay, self._on_ack_timer)
        return False

    def _on_ack_timer(self, _event=None) -> None:
        self._ack_timer = None
        if self._ack_pending > 0:
            self.sim.process(self._send_ack(), name=f"{self.proto}-dack")

    def _send_ack(self):
        """Generator: put one standalone ACK on the wire."""
        self._ack_rides_out()
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                self.sim.now,
                "net",
                "ack.send",
                rank=self.kernel.host.hostid,
                detail={"dst": self.remote_host, "ack": self.rcv_nxt},
            )
        yield from self._emit_ack()

    # ----------------------------------------------------------- reassembly
    def _peer_fin(self) -> None:
        """The peer closed its side: readers drain, then get ConnectionClosed."""
        self.peer_closed = True
        self._readable.set()
        if self.on_data is not None:
            self.on_data()

    def _accept(self, seq: int, data) -> None:
        """Place arriving stream bytes: append at rcv_nxt (draining what
        that makes contiguous), park ahead of it, or discard below it."""
        if seq + len(data) <= self.rcv_nxt:
            self.duplicates += 1
            return
        if seq > self.rcv_nxt:
            self._ooo.setdefault(seq, data)
            return
        if seq < self.rcv_nxt:  # partial overlap from a retransmission
            data = data[self.rcv_nxt - seq:]
        self._rcvbuf.append(data)
        self.rcv_nxt += len(data)
        # drain any now-contiguous out-of-order segments
        while self.rcv_nxt in self._ooo:
            nxt = self._ooo.pop(self.rcv_nxt)
            self._rcvbuf.append(nxt)
            self.rcv_nxt += len(nxt)
        self._readable.set()
        if self.on_data is not None:
            self.on_data()
