"""The kernel cost model and per-host kernel instance.

All protocol processing is charged to the host CPU (SGI Indy, 133 MHz
R4600), so heavy communication steals cycles from computation and vice
versa.  Two calibrated profiles exist:

* :data:`ETH_KERNEL` — the plain BSD-socket path over the Ethernet
  driver;
* :data:`ATM_KERNEL` — the same sockets over Fore's STREAMS-based ATM
  driver stack, with higher per-syscall and per-segment costs (the
  overhead the paper blames for the Fore API's unimpressive latency).

Calibration targets (paper): TCP 1-byte round trip ≈ 925 µs on
Ethernet, ≈ 1065 µs on ATM; a 25-byte-longer message costs ≈ 45 µs more
on Ethernet (wire-dominated) and ≈ 5 µs on ATM; each extra read syscall
is ≈ 65 µs (Ethernet path) / ≈ 85 µs (ATM path).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim import Store

__all__ = ["KernelParams", "ETH_KERNEL", "ATM_KERNEL", "Kernel"]


@dataclass(frozen=True)
class KernelParams:
    """Per-host kernel costs (µs / µs-per-byte)."""

    #: fixed cost of a read(2) crossing the kernel boundary
    syscall_read: float = 65.0
    #: fixed cost of a write(2)
    syscall_write: float = 60.0
    #: user<->kernel copy rate
    copy_per_byte: float = 0.025
    #: software TCP checksum rate
    checksum_per_byte: float = 0.012
    #: TCP/IP output processing per segment
    tcp_out: float = 120.0
    #: TCP/IP input processing per segment
    tcp_in: float = 120.0
    #: UDP output / input processing per datagram
    udp_out: float = 90.0
    udp_in: float = 90.0
    #: interrupt + driver cost per received packet
    intr: float = 30.0
    #: generating or absorbing a bare ACK
    ack_cost: float = 25.0
    #: delayed-ACK timer (a standalone ACK waits this long for data to
    #: piggyback on)
    ack_delay: float = 2000.0
    #: Fore API (direct AAL access through STREAMS) per-message costs
    fore_out: float = 0.0
    fore_in: float = 0.0
    #: TCP retransmission timeout (initial; backed off on repeat losses)
    rto: float = 200_000.0
    #: consecutive retransmissions of the same data before the transport
    #: gives up and fails the connection with RetransmitExhausted
    max_retries: int = 12
    #: RTO multiplier per consecutive unanswered retransmission
    rto_backoff: float = 2.0
    #: ceiling on the backed-off RTO
    rto_max: float = 4_000_000.0
    #: fractional retransmission-timer jitter (±), drawn from the host's
    #: seeded RNG to avoid synchronized retry storms deterministically
    retx_jitter: float = 0.1
    #: Nagle's algorithm: hold sub-MSS segments while data is unacked.
    #: Off by default — MPI implementations of the era disabled it
    #: (TCP_NODELAY) because it interacts terribly with delayed ACKs on
    #: request-response traffic; tests/bench/test_ablations.py shows why.
    nagle: bool = False
    #: socket buffer sizes
    sndbuf: int = 131072
    rcvbuf: int = 131072
    #: advertised TCP window
    window: int = 65535

    def with_overrides(self, **kw) -> "KernelParams":
        return replace(self, **kw)


#: BSD sockets over the Ethernet driver
ETH_KERNEL = KernelParams()

#: BSD sockets over Fore's STREAMS ATM stack: every kernel crossing and
#: every segment pays the module traversal
ATM_KERNEL = KernelParams(
    syscall_read=85.0,
    syscall_write=75.0,
    tcp_out=151.0,
    tcp_in=151.0,
    udp_out=115.0,
    udp_in=115.0,
    intr=35.0,
    ack_cost=30.0,
    # the Fore API skips TCP/IP but still walks the STREAMS modules
    fore_out=95.0,
    fore_in=120.0,
)


class Kernel:
    """One host's kernel: charges CPU for protocol work, owns the stack."""

    def __init__(self, host, params: KernelParams, nic, mss: int):
        from repro.net.ip import IpLayer
        from repro.net.tcp import TcpLayer
        from repro.net.udp import UdpLayer

        self.host = host
        self.sim = host.sim
        self.params = params
        self.nic = nic
        #: TCP maximum segment size on this interface
        self.mss = mss
        self.ip = IpLayer(self, nic)
        self.tcp = TcpLayer(self)
        self.udp = UdpLayer(self)
        #: receive-side work queue: the interrupt path enqueues, the
        #: kernel worker charges CPU and dispatches up the stack
        self._rxq: Store = Store(host.sim, name=f"{host.name}.krnl-rxq")
        #: extra link-payload handlers by type (the Fore API registers here)
        self._handlers = {}
        self.sim.process(self._rx_worker(), name=f"{host.name}.krnl-rx")

    def register_handler(self, payload_type, handler) -> None:
        """Route received link payloads of *payload_type* to *handler*
        (a callable returning a generator or None)."""
        self._handlers[payload_type] = handler

    # -- CPU charging helpers (generators) -----------------------------------
    def charge(self, cost: float):
        yield from self.host.cpu.execute(cost)

    def syscall_read(self, nbytes: int = 0):
        p = self.params
        yield from self.host.cpu.execute(p.syscall_read + nbytes * p.copy_per_byte)

    def syscall_write(self, nbytes: int = 0):
        p = self.params
        yield from self.host.cpu.execute(p.syscall_write + nbytes * p.copy_per_byte)

    # -- receive path ---------------------------------------------------------
    def enqueue_rx(self, item) -> None:
        """Called from NIC delivery context: queue for kernel processing."""
        self._rxq.post(item)

    def _rx_worker(self):
        from repro.net.ip import IpPacket

        p = self.params
        while True:
            item = yield self._rxq.get()
            yield from self.host.cpu.execute(p.intr)
            if isinstance(item, IpPacket):
                gen = self.ip.on_packet(item)
            else:
                handler = self._handlers.get(type(item))
                gen = handler(item) if handler is not None else None
            if gen is not None:
                yield from gen
