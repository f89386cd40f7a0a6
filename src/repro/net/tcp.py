"""TCP: reliable in-order byte streams over IP.

A deliberately LAN-scale TCP: three-way handshake (or pre-established
static pairs, which is what the paper's MPI uses), MSS segmentation, a
fixed advertised window, cumulative ACKs, out-of-order reassembly, and
timeout retransmission.  No congestion control (single-switch LAN,
1996) and no urgent/PSH subtleties — DESIGN.md records the
simplifications.

Cost accounting (the heart of Figures 4-6 and Table 1):

* ``send()`` charges the write syscall + user→kernel copy;
* each segment charges ``tcp_out``/``tcp_in`` + software checksum on
  the host CPU;
* each ``recv_exact()`` charges one read syscall + kernel→user copy —
  the MPI device's read-type/read-envelope/read-data sequence therefore
  pays exactly the per-read costs the paper tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConnectionClosed, NetworkError, RetransmitExhausted
from repro.net.bytebuf import ByteQueue
from repro.sim import Store
from repro.sim.notify import Notify

__all__ = ["TCP_HEADER", "TcpSegment", "TcpConnection", "TcpListener", "TcpLayer"]

#: TCP header bytes (no options)
TCP_HEADER = 20

# connection states
SYN_SENT = "syn-sent"
SYN_RCVD = "syn-rcvd"
ESTABLISHED = "established"
CLOSED = "closed"


@dataclass
class TcpSegment:
    sport: int
    dport: int
    seq: int
    ack: int
    data: bytes = b""
    syn: bool = False
    fin: bool = False
    rst: bool = False
    window: int = 65535

    @property
    def nbytes(self) -> int:
        """Wire bytes of this segment (header + payload)."""
        return TCP_HEADER + len(self.data)


class TcpConnection:
    """One endpoint of a TCP connection."""

    def __init__(self, layer: "TcpLayer", local_port: int, remote_host: int, remote_port: int):
        self.layer = layer
        self.kernel = layer.kernel
        self.sim = layer.kernel.sim
        p = self.kernel.params
        self.local_port = local_port
        self.remote_host = remote_host
        self.remote_port = remote_port
        self.state = CLOSED
        # send side
        self.snd_una = 0
        self.snd_nxt = 0
        self._unsent = ByteQueue()
        self._unacked = ByteQueue()
        self.peer_window = p.window
        self._send_kick = Notify(self.sim, "tcp-send")
        self._space = Notify(self.sim, "tcp-space")
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
        self._readable = Notify(self.sim, "tcp-read")
        self._established = Notify(self.sim, "tcp-est")
        self.peer_closed = False
        #: optional callback fired whenever new in-order data arrives
        self.on_data = None
        #: terminal failure (RetransmitExhausted / reset); raised by send/recv
        self.error: Optional[NetworkError] = None
        # delayed-ACK state: acks ride outgoing data when possible; a
        # standalone ACK goes out after ack_delay or two segments' worth.
        # The timer is cancelled when an ack rides out, but its deadline
        # is remembered so a re-arm resumes the pending window.
        self._bytes_since_ack = 0
        self._ack_timer = None
        self._ack_deadline = -1.0
        # fast-retransmit state: duplicate ACKs seen at snd_una
        self._dupacks = 0
        # statistics
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmissions = 0
        self.fast_retransmissions = 0
        self.sim.process(self._sender(), name=f"tcp-snd-{self.local_port}")

    # ------------------------------------------------------------- user API
    @property
    def available(self) -> int:
        """Bytes ready for reading."""
        return len(self._rcvbuf)

    def send(self, data: bytes):
        """Generator: write *data* to the stream (blocks on buffer space)."""
        if self.error is not None:
            raise self.error
        if self.state != ESTABLISHED:
            raise ConnectionClosed("send on a non-established connection")
        if not isinstance(data, bytes) and not (
            isinstance(data, memoryview) and data.readonly
        ):
            data = bytes(data)  # freeze mutable buffers once, at the API edge
        total = len(data)
        yield from self.kernel.syscall_write(total)
        p = self.kernel.params
        offset = 0
        view = None
        while offset < total:
            if self.error is not None:
                raise self.error
            used = len(self._unsent) + len(self._unacked)
            if used >= p.sndbuf:
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
            take = min(p.sndbuf - used, total - offset)
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
        consume them (one read syscall)."""
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
        yield from self.kernel.syscall_read(n)
        return self._rcvbuf.take(n)

    def close(self) -> None:
        """Half-close: send FIN (best-effort; see module docstring)."""
        if self.state == ESTABLISHED:
            self.state = CLOSED
            self._transmit(TcpSegment(
                self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt, fin=True
            ))

    def wait_established(self):
        """Generator: block until the handshake completes."""
        while self.state != ESTABLISHED:
            yield self._established.wait1()

    # ------------------------------------------------------------ internals
    def _transmit(self, seg: TcpSegment) -> None:
        self.segments_sent += 1
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                self.sim.now,
                "net",
                "seg.send",
                rank=self.kernel.host.hostid,
                detail={
                    "dst": self.remote_host,
                    "seq": seg.seq,
                    "ack": seg.ack,
                    "nbytes": len(seg.data),
                },
            )
        self.kernel.ip.send(self.remote_host, "tcp", seg, seg.nbytes)

    def _sender(self):
        """Kernel sender: segments _unsent into MSS chunks under the window."""
        p = self.kernel.params
        mss = self.kernel.mss
        while True:
            yield self._send_kick.wait1()
            if self.error is not None:
                return
            while self._unsent and self.state == ESTABLISHED:
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
                    break  # zero window: the next ACK kicks us again
                if p.nagle and inflight > 0 and len(self._unsent) < mss:
                    # Nagle: a sub-MSS segment waits for outstanding data
                    # to be acknowledged (or for a full segment to form)
                    break
                n = min(mss, len(self._unsent), room)
                chunk = self._unsent.take(n)
                self._unacked.append(chunk)
                yield from self.kernel.charge(p.tcp_out + n * p.checksum_per_byte)
                self._ack_rides_out()  # this segment carries the ack
                self._transmit(TcpSegment(
                    self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt,
                    data=chunk, window=p.window,
                ))
                self.snd_nxt += n
                self._arm_retx()

    # ------------------------------------------------- retransmission timer
    # Timeout retransmission of the oldest unacked segment, with
    # exponential backoff; after ``max_retries`` unanswered attempts the
    # connection is reset (RST to the peer, RetransmitExhausted locally).
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
            self._reset(RetransmitExhausted(
                f"tcp {self.local_port}->host{self.remote_host}:{self.remote_port}: "
                f"{p.max_retries} retransmissions of seq {self.snd_una} unanswered"
            ))
            return
        self.sim.process(self._retransmit_oldest(), name=f"tcp-rtx-{self.local_port}")

    def _retransmit_oldest(self):
        """Short-lived process: charge for and resend the oldest segment."""
        p = self.kernel.params
        # cap at what has actually been transmitted: _unacked may hold
        # bytes the sender appended but has not yet put on the wire (it
        # yields for the kernel charge between the two), and resending
        # those would advance the receiver past our snd_nxt
        n = min(self.kernel.mss, self.snd_nxt - self.snd_una, len(self._unacked))
        if n <= 0:
            self._arm_retx_fresh()
            return
        # pin the sequence number now: an ACK arriving during the kernel
        # charge below advances snd_una, and stamping the old bytes with
        # the new snd_una would make the receiver accept them as fresh
        # data past our snd_nxt
        seq = self.snd_una
        chunk = self._unacked.peek(n)
        self.retransmissions += 1
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                self.sim.now,
                "net",
                "seg.retx",
                rank=self.kernel.host.hostid,
                detail={
                    "dst": self.remote_host,
                    "seq": seq,
                    "nbytes": n,
                    "attempt": self._retx_attempts,
                },
            )
        yield from self.kernel.charge(p.tcp_out + n * p.checksum_per_byte)
        if self.snd_una >= seq + n:
            self._arm_retx_fresh()
            return  # fully acked while charging: nothing left to resend
        self._transmit(TcpSegment(
            self.local_port, self.remote_port, seq, self.rcv_nxt,
            data=chunk, window=p.window,
        ))
        self._arm_retx_fresh()

    def _cancel_retx(self) -> None:
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None

    def _reset(self, exc: NetworkError) -> None:
        """Abort the connection: RST the peer, fail local waiters."""
        self._cancel_retx()
        if self.state != CLOSED:
            self._transmit(TcpSegment(
                self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt, rst=True
            ))
        self.state = CLOSED
        self.error = exc
        self._readable.set()
        self._space.set()
        self._send_kick.set()
        self._established.set()
        if self.on_data is not None:
            self.on_data()

    def _on_segment(self, seg: TcpSegment):
        """Generator (kernel worker context)."""
        p = self.kernel.params
        self.segments_received += 1
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                self.sim.now,
                "net",
                "seg.recv",
                rank=self.kernel.host.hostid,
                detail={
                    "src": self.remote_host,
                    "seq": seg.seq,
                    "ack": seg.ack,
                    "nbytes": len(seg.data),
                },
            )
        yield from self.kernel.charge(p.tcp_in + len(seg.data) * p.checksum_per_byte)
        if seg.rst:
            # peer aborted: fail local waiters without answering
            self._cancel_retx()
            self.state = CLOSED
            self.error = ConnectionClosed(
                f"connection reset by host{self.remote_host}:{self.remote_port}"
            )
            self.peer_closed = True
            self._readable.set()
            self._space.set()
            self._send_kick.set()
            self._established.set()
            if self.on_data is not None:
                self.on_data()
            return
        # ACK processing (with fast retransmit on 3 duplicate ACKs)
        if seg.ack > self.snd_una:
            acked = seg.ack - self.snd_una
            self._unacked.drop(acked)
            self.snd_una = seg.ack
            self._ack_version += 1
            self._dupacks = 0
            if self.snd_una >= self.snd_nxt:
                # fully acked: cancel the timer in O(1).  _retx_deadline
                # is kept so a re-arm before it resumes the old window.
                self._cancel_retx()
            self._space.set()
            self._send_kick.set()
        elif seg.ack == self.snd_una and not seg.data and self.snd_una < self.snd_nxt:
            self._dupacks += 1
            if self._dupacks == 3:
                yield from self._fast_retransmit()
        self.peer_window = seg.window
        if seg.fin:
            self.peer_closed = True
            self._readable.set()
            if self.on_data is not None:
                self.on_data()
        if seg.data:
            in_order = seg.seq <= self.rcv_nxt
            self._accept_data(seg)
            if not in_order:
                # out-of-order arrival: immediate duplicate ACK so the
                # sender's fast-retransmit counter advances
                yield from self._send_ack()
                return
            self._bytes_since_ack += len(seg.data)
            if self._bytes_since_ack >= 2 * self.kernel.mss:
                yield from self._send_ack()
            else:
                self._arm_dack()

    def _fast_retransmit(self):
        """Resend the oldest unacked segment without waiting for the RTO."""
        p = self.kernel.params
        # same transmitted-bytes cap and pinned sequence number as
        # _retransmit_oldest
        n = min(self.kernel.mss, self.snd_nxt - self.snd_una, len(self._unacked))
        if n <= 0:
            return
        seq = self.snd_una
        chunk = self._unacked.peek(n)
        self.retransmissions += 1
        self.fast_retransmissions += 1
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                self.sim.now,
                "net",
                "seg.retx",
                rank=self.kernel.host.hostid,
                detail={"dst": self.remote_host, "seq": seq, "nbytes": n, "fast": True},
            )
        self._ack_version += 1  # restart the RTO clock
        yield from self.kernel.charge(p.tcp_out + n * p.checksum_per_byte)
        if self.snd_una >= seq + n:
            return  # fully acked while charging
        self._transmit(TcpSegment(
            self.local_port, self.remote_port, seq, self.rcv_nxt,
            data=chunk, window=p.window,
        ))

    def _send_ack(self):
        p = self.kernel.params
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
        yield from self.kernel.charge(p.ack_cost)
        self._transmit(TcpSegment(
            self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt, window=p.window
        ))

    # Delayed-ACK timer.  Same determinism contract as the retransmission
    # timer: the old implementation armed once and let the timer run to
    # its deadline even if the pending ack rode out on data first, so a
    # cancelled timer keeps its deadline and a re-arm before the deadline
    # resumes it (a later data arrival must NOT push the standalone ACK
    # out by a fresh ack_delay).
    def _ack_rides_out(self) -> None:
        """An outgoing segment carries the current ack: a pending
        standalone-ACK timer would fire dead, so cancel it."""
        self._bytes_since_ack = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def _arm_dack(self) -> None:
        if self._ack_timer is not None:
            return
        now = self.sim.now
        if now < self._ack_deadline:
            delay = self._ack_deadline - now  # resume the cancelled window
        else:
            delay = self.kernel.params.ack_delay
            self._ack_deadline = now + delay
        self._ack_timer = self.sim.call_later(delay, self._on_ack_timer)

    def _on_ack_timer(self, _event=None) -> None:
        self._ack_timer = None
        if self._bytes_since_ack > 0:
            self.sim.process(self._send_ack(), name="tcp-dack")

    def _accept_data(self, seg: TcpSegment) -> None:
        seq, data = seg.seq, seg.data
        if seq + len(data) <= self.rcv_nxt:
            return  # pure duplicate
        if seq > self.rcv_nxt:
            self._ooo.setdefault(seq, data)
            return
        if seq < self.rcv_nxt:  # partial overlap from a retransmission
            data = data[self.rcv_nxt - seq:]
            seq = self.rcv_nxt
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection {self.layer.kernel.host.name}:{self.local_port} -> "
            f"host{self.remote_host}:{self.remote_port} {self.state}>"
        )


class TcpListener:
    """A passive socket: accepts incoming connections on a port."""

    def __init__(self, layer: "TcpLayer", port: int):
        self.layer = layer
        self.port = port
        self._accepted: Store = Store(layer.kernel.sim)

    def accept(self):
        """Generator -> TcpConnection (established)."""
        conn = yield self._accepted.get()
        return conn


class TcpLayer:
    """Per-host TCP instance: demultiplexes segments to connections."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.conns: Dict[Tuple[int, int, int], TcpConnection] = {}
        self.listeners: Dict[int, TcpListener] = {}
        self._next_port = 10000

    def _ephemeral_port(self) -> int:
        self._next_port += 1
        return self._next_port

    def _register(self, conn: TcpConnection) -> None:
        key = (conn.local_port, conn.remote_host, conn.remote_port)
        if key in self.conns:
            raise NetworkError(f"connection {key} already exists")
        self.conns[key] = conn

    # ---------------------------------------------------------------- setup
    def listen(self, port: int) -> TcpListener:
        if port in self.listeners:
            raise NetworkError(f"port {port} already listening")
        lst = TcpListener(self, port)
        self.listeners[port] = lst
        return lst

    def connect(self, remote_host: int, remote_port: int, local_port: Optional[int] = None):
        """Generator -> TcpConnection: active open (3-way handshake,
        SYN retransmitted on timeout)."""
        p = self.kernel.params
        conn = TcpConnection(
            self, local_port or self._ephemeral_port(), remote_host, remote_port
        )
        self._register(conn)
        conn.state = SYN_SENT
        while conn.state != ESTABLISHED:
            yield from self.kernel.charge(p.tcp_out)
            conn._transmit(TcpSegment(conn.local_port, conn.remote_port, 0, 0, syn=True))
            ev = conn._established.wait()
            timeout = self.kernel.sim.timeout(p.rto)
            yield self.kernel.sim.any_of([ev, timeout])
            if not ev.processed:
                conn._established.cancel_wait(ev)
            if not timeout.processed:
                timeout.cancel()  # established won: the RTO must not fire dead
        return conn

    @staticmethod
    def connect_pair(kernel_a, kernel_b, port_a: int, port_b: int):
        """Create a pre-established static connection pair (no handshake
        traffic) — how the paper's MPI sets up its mesh."""
        a = TcpConnection(kernel_a.tcp, port_a, kernel_b.host.hostid, port_b)
        b = TcpConnection(kernel_b.tcp, port_b, kernel_a.host.hostid, port_a)
        a.state = ESTABLISHED
        b.state = ESTABLISHED
        kernel_a.tcp._register(a)
        kernel_b.tcp._register(b)
        return a, b

    # ------------------------------------------------------------- dispatch
    def on_segment(self, src_host: int, seg: TcpSegment):
        """Generator (kernel worker context)."""
        conn = self.conns.get((seg.dport, src_host, seg.sport))
        if conn is not None:
            if seg.syn and conn.state == SYN_SENT:
                # our SYN was answered (SYN+ACK)
                conn.state = ESTABLISHED
                conn._established.set()
                yield from self.kernel.charge(self.kernel.params.ack_cost)
                conn._transmit(TcpSegment(conn.local_port, conn.remote_port, 0, 0))
                return
            if seg.syn:
                return  # duplicate SYN+ACK, already established
            yield from conn._on_segment(seg)
            return
        if seg.syn:
            lst = self.listeners.get(seg.dport)
            if lst is None:
                return  # no listener: a real stack would RST
            conn = TcpConnection(self, seg.dport, src_host, seg.sport)
            self._register(conn)
            conn.state = ESTABLISHED
            lst._accepted.post(conn)
            yield from self.kernel.charge(self.kernel.params.tcp_out)
            conn._transmit(TcpSegment(conn.local_port, conn.remote_port, 0, 0, syn=True))
            return
        # segment for an unknown connection: drop
