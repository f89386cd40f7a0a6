"""UDP and reliable-UDP tests."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.hw.cluster import ClusterMachine
from repro.net.kernel import KernelParams
from repro.net.rudp import RudpConnection
from repro.sim import Simulator
from tests.net.fakes import DropIf


def build(network="ethernet", drop_if=None, kernel_params=None):
    sim = Simulator()
    m = ClusterMachine(sim, 2, network=network, kernel_params=kernel_params)
    if drop_if is not None:
        m.fabric.injector = DropIf(drop_if)
    return sim, m


# ---------------------------------------------------------------------------
# plain UDP
# ---------------------------------------------------------------------------


def test_udp_datagram_delivery():
    sim, m = build()
    sock0 = m.kernels[0].udp.bind(100)
    sock1 = m.kernels[1].udp.bind(200)

    def sender(sim):
        yield from sock0.sendto(1, 200, b"datagram")

    def receiver(sim):
        return (yield from sock1.recvfrom())

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert p.value == (0, b"datagram")


def test_udp_unbound_port_drops():
    sim, m = build()
    sock0 = m.kernels[0].udp.bind(100)

    def sender(sim):
        yield from sock0.sendto(1, 999, b"void")

    sim.process(sender(sim))
    sim.run()  # no error; datagram vanished


def test_udp_duplicate_bind_rejected():
    sim, m = build()
    m.kernels[0].udp.bind(100)
    with pytest.raises(NetworkError):
        m.kernels[0].udp.bind(100)


def test_udp_queue_overflow_drops():
    sim, m = build()
    sock0 = m.kernels[0].udp.bind(100)
    sock1 = m.kernels[1].udp.bind(200, queue_limit=2)

    def sender(sim):
        for _ in range(5):
            yield from sock0.sendto(1, 200, b"x")

    sim.process(sender(sim))
    sim.run()
    assert sock1.pending == 2
    assert sock1.drops == 3


def test_udp_on_data_callback():
    sim, m = build()
    sock0 = m.kernels[0].udp.bind(100)
    sock1 = m.kernels[1].udp.bind(200)
    hits = []
    sock1.on_data = lambda: hits.append(sim.now)

    def sender(sim):
        yield from sock0.sendto(1, 200, b"x")

    sim.process(sender(sim))
    sim.run()
    assert len(hits) == 1


# ---------------------------------------------------------------------------
# reliable UDP
# ---------------------------------------------------------------------------


def rudp_pair(m, mss=None, rto=None):
    s0 = m.kernels[0].udp.bind(700)
    s1 = m.kernels[1].udp.bind(700)
    kw = {}
    if mss:
        kw["mss"] = mss
    if rto:
        kw["rto"] = rto
    a = RudpConnection(m.kernels[0], s0, 1, 700, **kw)
    b = RudpConnection(m.kernels[1], s1, 0, 700, **kw)
    return a, b


def test_rudp_stream():
    sim, m = build()
    a, b = rudp_pair(m)

    def sender(sim):
        yield from a.send(b"reliable")

    def receiver(sim):
        return (yield from b.recv_exact(8))

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert p.value == b"reliable"


def test_rudp_recovers_from_loss():
    """Deterministically drop every 4th *data* frame: the stream still
    arrives intact through retransmission."""
    dropped = {"n": 0, "seen": 0}

    def lossy(nbytes):
        if nbytes > 500:  # a data-bearing frame
            dropped["seen"] += 1
            if dropped["seen"] % 4 == 0:
                dropped["n"] += 1
                return True
        return False

    sim, m = build("ethernet", drop_if=lossy)
    a, b = rudp_pair(m, rto=8000.0)
    payload = bytes(range(256)) * 40

    def sender(sim):
        yield from a.send(payload)

    def receiver(sim):
        return (yield from b.recv_exact(len(payload)))

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run(until=60_000_000.0)
    assert p.value == payload
    assert dropped["n"] > 0
    assert a.retransmissions > 0


def test_rudp_duplicate_suppression():
    """A retransmission that races its original is delivered once."""
    # drop nothing but use a tiny RTO to force spurious retransmissions
    sim, m = build("ethernet")
    a, b = rudp_pair(m, rto=600.0)
    payload = bytes(1000)

    def sender(sim):
        yield from a.send(payload)

    def receiver(sim):
        return (yield from b.recv_exact(len(payload)))

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run(until=10_000_000.0)
    assert p.value == payload
    if a.retransmissions:
        assert b.duplicates >= 1


def test_rudp_close_wakes_reader():
    from repro.errors import ConnectionClosed

    sim, m = build()
    a, b = rudp_pair(m)

    def closer(sim):
        yield sim.timeout(3000.0)
        a.close()

    def reader(sim):
        with pytest.raises(ConnectionClosed):
            yield from b.recv_exact(4)
        return True

    sim.process(closer(sim))
    p = sim.process(reader(sim))
    sim.run()
    assert p.value is True


def test_rudp_latency_similar_to_tcp():
    """Paper, Sec. 5.2: the reliable-UDP implementation performs very
    similarly to TCP."""
    from repro.net.tcp import TcpLayer

    def rtt(make_pair):
        sim, m = build("atm")
        a, b = make_pair(m)

        def client(sim):
            t0 = sim.now
            yield from a.send(b"x")
            yield from a.recv_exact(1)
            return sim.now - t0

        def server(sim):
            d = yield from b.recv_exact(1)
            yield from b.send(d)

        p = sim.process(client(sim))
        sim.process(server(sim))
        sim.run()
        return p.value

    tcp = rtt(lambda m: TcpLayer.connect_pair(m.kernels[0], m.kernels[1], 5000, 5000))
    rudp = rtt(rudp_pair)
    assert abs(rudp - tcp) / tcp < 0.45


@settings(max_examples=10, deadline=None)
@given(chunks=st.lists(st.binary(min_size=1, max_size=3000), min_size=1, max_size=5))
def test_property_rudp_stream_integrity(chunks):
    sim, m = build("atm")
    a, b = rudp_pair(m)
    whole = b"".join(chunks)

    def sender(sim):
        for c in chunks:
            yield from a.send(c)

    def receiver(sim):
        return (yield from b.recv_exact(len(whole)))

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert p.value == whole
