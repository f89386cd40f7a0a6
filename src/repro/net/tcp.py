"""TCP: reliable in-order byte streams over IP.

A deliberately LAN-scale TCP: three-way handshake (or pre-established
static pairs, which is what the paper's MPI uses), MSS segmentation, a
fixed advertised window, cumulative ACKs, out-of-order reassembly, and
timeout retransmission.  No congestion control (single-switch LAN,
1996) and no urgent/PSH subtleties — DESIGN.md records the
simplifications.  Buffers, window, timers and reassembly are the
stream engine of :mod:`repro.net.stream`, shared with reliable UDP;
this module adds the segment format, the kernel's cost accounting,
connection state (handshake, RST), Nagle and fast retransmit.

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

from repro.errors import ConnectionClosed, NetworkError
from repro.net.stream import ReliableStream
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


class TcpConnection(ReliableStream):
    """One endpoint of a TCP connection: the stream engine over
    :class:`TcpSegment` objects handed to IP, with every segment's
    protocol processing and every send/recv syscall charged to the
    host CPU."""

    proto = "tcp"
    retx_kind = "seg.retx"

    def __init__(self, layer: "TcpLayer", local_port: int, remote_host: int, remote_port: int):
        kernel = layer.kernel
        super().__init__(kernel, local_port, remote_host, remote_port, kernel.mss)
        self.layer = layer
        self.state = CLOSED
        self._write_charge = kernel.syscall_write
        self._read_charge = kernel.syscall_read
        self._route = f"tcp {local_port}->host{remote_host}:{remote_port}"
        self._established = Notify(self.sim, "tcp-est")
        # fast-retransmit state: duplicate ACKs seen at snd_una
        self._dupacks = 0
        # statistics
        self.segments_sent = 0
        self.segments_received = 0
        self.fast_retransmissions = 0

    # ------------------------------------------------------------- user API
    def _check_open(self) -> None:
        if self.state != ESTABLISHED:
            raise ConnectionClosed("send on a non-established connection")

    def close(self) -> None:
        """Half-close: send FIN.  Best-effort — the FIN carries no
        sequence number of its own, so (on either transport) a lost one
        is never retransmitted."""
        if self.state == ESTABLISHED:
            self.state = CLOSED
            self._transmit(TcpSegment(
                self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt, fin=True
            ))

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
        while True:
            yield self._send_kick.wait1()
            if self.error is not None:
                return
            while self._unsent and self.state == ESTABLISHED:
                n = self._window_room()
                if n <= 0:
                    break
                if p.nagle and self.snd_nxt > self.snd_una and len(self._unsent) < self.mss:
                    # Nagle: a sub-MSS segment waits for outstanding data
                    # to be acknowledged (or for a full segment to form)
                    break
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

    def _emit_retx(self, seq: int, chunk: bytes):
        p = self.kernel.params
        yield from self.kernel.charge(p.tcp_out + len(chunk) * p.checksum_per_byte)
        if self.snd_una < seq + len(chunk):  # else fully acked while charging
            self._transmit(TcpSegment(
                self.local_port, self.remote_port, seq, self.rcv_nxt,
                data=chunk, window=p.window,
            ))

    def _emit_ack(self):
        p = self.kernel.params
        yield from self.kernel.charge(p.ack_cost)
        self._transmit(TcpSegment(
            self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt, window=p.window
        ))

    def _fail(self, exc: NetworkError) -> None:
        """Abort the connection: RST the peer, fail local waiters."""
        self._cancel_retx()  # ahead of the RST, where traces have its timer.cancel
        if self.state != CLOSED:
            self._transmit(TcpSegment(
                self.local_port, self.remote_port, self.snd_nxt, self.rcv_nxt, rst=True
            ))
        self.state = CLOSED
        self._established.set()
        super()._fail(exc)

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
            self.state = CLOSED
            self.peer_closed = True
            self._fail(ConnectionClosed(
                f"connection reset by host{self.remote_host}:{self.remote_port}"
            ))
            return
        # ACK processing (with fast retransmit on 3 duplicate ACKs)
        if seg.ack > self.snd_una:
            self._ack_advance(seg.ack)
            self._dupacks = 0
        elif seg.ack == self.snd_una and not seg.data and self.snd_una < self.snd_nxt:
            self._dupacks += 1
            if self._dupacks == 3:
                yield from self._fast_retransmit()
        self.peer_window = seg.window
        if seg.fin:
            self._peer_fin()
        if seg.data:
            in_order = seg.seq <= self.rcv_nxt
            self._accept(seg.seq, seg.data)
            # out-of-order arrival: immediate duplicate ACK so the
            # sender's fast-retransmit counter advances
            if not in_order or self._arm_dack(len(seg.data)):
                yield from self._send_ack()

    def _fast_retransmit(self):
        """Resend the oldest unacked segment without waiting for the RTO."""
        oldest = self._oldest_unacked(fast=True)
        if oldest is not None:
            self.fast_retransmissions += 1
            self._ack_version += 1  # restart the RTO clock
            yield from self._emit_retx(*oldest)

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
