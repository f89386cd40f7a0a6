"""UDP and reliable-UDP tests."""

import pytest

from repro.errors import NetworkError
from repro.net.kernel import KernelParams
from repro.net.rudp import RudpConnection

# RUDP is TCP's stream engine under another wire format, so it must pass
# TCP's stream tests unchanged: importing them collects them here, where
# ``stream_pair`` (below) hands them a reliable-UDP pair.  Four keep the
# ids that RUDP's own copies of them used to have.
from tests.net.test_tcp import (  # noqa: F401
    build,
    test_basic_stream as test_rudp_stream,
    test_close_wakes_blocked_reader as test_rudp_close_wakes_reader,
    test_property_stream_integrity as test_property_rudp_stream_integrity,
    test_recovers_from_periodic_loss as test_rudp_recovers_from_loss,
    test_send_larger_than_sndbuf_blocks_then_completes,
    test_window_backpressure,
)
from tests.net.test_tcp_timer_cancel import (  # noqa: F401
    test_lossless_run_leaves_no_armed_timers,
    test_lossless_run_never_fires_retx_timer,
)


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


def rudp_pair(m):
    s0 = m.kernels[0].udp.bind(700)
    s1 = m.kernels[1].udp.bind(700)
    a = RudpConnection(m.kernels[0], s0, 1, 700)
    b = RudpConnection(m.kernels[1], s1, 0, 700)
    return a, b


@pytest.fixture(scope="module")
def stream_pair():
    """Overrides conftest's TCP default for this module."""
    return rudp_pair


def test_rudp_duplicate_suppression():
    """A retransmission that races its original is delivered once."""
    # drop nothing but use a tiny RTO to force spurious retransmissions
    sim, m = build("ethernet", kernel_params=KernelParams().with_overrides(rto=600.0))
    a, b = rudp_pair(m)
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
