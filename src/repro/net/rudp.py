"""Reliable UDP: a user-level reliability layer presenting a byte stream.

The paper's MPI-over-UDP keeps the same device protocol as TCP but must
make UDP reliable itself: sequence numbers, cumulative ACKs, timeout
retransmission and duplicate suppression — the shared engine of
:mod:`repro.net.stream` — all at user level, so every packet costs
real sendto/recvfrom syscalls, which is why the paper found its UDP
implementation "very similar to that of TCP".

Packet format (inside the UDP payload):
``<QQB3x`` header = 8-byte seq, 8-byte ack, 1 flag byte, 3 pad = 20
bytes, followed by stream data.
"""

from __future__ import annotations

import struct

from repro.errors import ConnectionClosed
from repro.net.stream import ReliableStream
from repro.net.udp import UdpSocket

__all__ = ["RUDP_HEADER", "RudpConnection"]

_HDR = struct.Struct("<QQB3x")
#: user-level reliability header bytes per packet
RUDP_HEADER = _HDR.size

_FLAG_FIN = 1

#: user-level per-packet bookkeeping in µs (header pack/unpack, timer
#: management) — the cost that makes reliable UDP perform "very similar
#: to TCP" (paper, Sec. 5.2)
PROC_COST = 35.0


class RudpConnection(ReliableStream):
    """One endpoint of a reliable-UDP stream: the stream engine over
    packets sent and received through a :class:`UdpSocket` at user
    level.  Window, RTO, retry budget and ACK delay are the kernel
    profile's, as for TCP."""

    proto = "rudp"
    retx_kind = "pkt.retx"

    def __init__(self, kernel, sock: UdpSocket, remote_host: int, remote_port: int):
        # stream bytes per packet are bounded so that one packet fits a
        # few IP fragments at most
        super().__init__(kernel, sock.port, remote_host, remote_port, min(kernel.mss, 8192))
        self.sock = sock
        self.closed = False
        self._route = f"rudp to host {remote_host}:{remote_port}"
        # statistics
        self.packets_sent = 0
        self.packets_received = 0
        self.sim.process(self._receiver(), name=f"rudp-rcv-{sock.port}")

    # -------------------------------------------------------------- user API
    def _check_open(self) -> None:
        if self.closed:
            raise ConnectionClosed("send on a closed RUDP connection")

    def close(self) -> None:
        self.closed = True
        self._send_kick.set()  # the sender emits the FIN when drained

    # ------------------------------------------------------------- internals
    def _packet(self, seq: int, data: bytes, flags: int = 0) -> bytes:
        return _HDR.pack(seq, self.rcv_nxt, flags) + data

    def _sender(self):
        while True:
            yield self._send_kick.wait1()
            if self.error is not None:
                return
            while self._unsent:
                n = self._window_room()
                if n <= 0:
                    break
                chunk = self._unsent.take(n)
                self._unacked.append(chunk)
                self.packets_sent += 1
                self._ack_rides_out()  # this packet carries the ack
                obs = self.sim.obs
                if obs is not None:
                    obs.emit(
                        self.sim.now,
                        "net",
                        "pkt.send",
                        rank=self.kernel.host.hostid,
                        detail={"dst": self.remote_host, "seq": self.snd_nxt, "nbytes": n},
                    )
                yield from self.kernel.charge(PROC_COST)
                yield from self.sock.sendto(
                    self.remote_host, self.remote_port, self._packet(self.snd_nxt, chunk)
                )
                self.snd_nxt += n
                self._arm_retx()
            if self.closed and not self._unsent and self.snd_una >= self.snd_nxt:
                yield from self.sock.sendto(
                    self.remote_host, self.remote_port, self._packet(self.snd_nxt, b"", _FLAG_FIN)
                )

    def _emit_retx(self, seq: int, chunk: bytes):
        return self.sock.sendto(self.remote_host, self.remote_port, self._packet(seq, chunk))

    def _emit_ack(self):
        return self.sock.sendto(
            self.remote_host, self.remote_port, self._packet(self.snd_nxt, b"")
        )

    def _receiver(self):
        """User-level receive pump: one recvfrom syscall per packet."""
        while True:
            _src, payload = yield from self.sock.recvfrom()
            yield from self.kernel.charge(PROC_COST)
            seq, ack, flags = _HDR.unpack_from(payload)
            # zero-copy view of the stream bytes after the header
            data = memoryview(payload)[RUDP_HEADER:]
            self.packets_received += 1
            obs = self.sim.obs
            if obs is not None:
                obs.emit(
                    self.sim.now,
                    "net",
                    "pkt.recv",
                    rank=self.kernel.host.hostid,
                    detail={"src": _src, "seq": seq, "ack": ack, "nbytes": len(data)},
                )
            if ack > self.snd_una:
                self._ack_advance(ack)
            if flags & _FLAG_FIN:
                self._peer_fin()
            if data:
                self._accept(seq, data)
                if self._arm_dack(len(data)):
                    yield from self._send_ack()
