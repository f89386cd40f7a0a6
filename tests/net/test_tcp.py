"""TCP tests: streams, handshake, windows, retransmission under loss.

The tests taking ``stream_pair`` check behaviour of the shared stream
engine; ``test_udp_rudp.py`` imports them to run on a reliable-UDP pair.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConnectionClosed
from repro.hw.cluster import ClusterMachine
from repro.net.kernel import KernelParams
from repro.obs import EventBus
from repro.sim import Simulator
from tests.net.conftest import tcp_pair as pair
from tests.net.fakes import DropIf


def build(network="ethernet", drop_if=None, kernel_params=None, **kw):
    sim = Simulator()
    m = ClusterMachine(sim, 2, network=network, kernel_params=kernel_params, **kw)
    if drop_if is not None:
        m.fabric.injector = DropIf(drop_if)
    return sim, m


def test_basic_stream(stream_pair):
    sim, m = build()
    a, b = stream_pair(m)

    def sender(sim):
        yield from a.send(b"hello world")

    def receiver(sim):
        return (yield from b.recv_exact(11))

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert p.value == b"hello world"


def test_bidirectional():
    sim, m = build()
    a, b = pair(m)

    def side(conn, tx, n):
        def gen(sim):
            yield from conn.send(tx)
            rx = yield from conn.recv_exact(n)
            return rx

        return gen

    pa = sim.process(side(a, b"ping", 4)(sim))
    pb = sim.process(side(b, b"pong", 4)(sim))
    sim.run()
    assert pa.value == b"pong"
    assert pb.value == b"ping"


def test_segmentation_respects_mss():
    sim, m = build("ethernet")
    a, b = pair(m)
    total = 10000

    def sender(sim):
        yield from a.send(bytes(total))

    def receiver(sim):
        return (yield from b.recv_exact(total))

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert len(p.value) == total
    import math

    assert a.segments_sent >= math.ceil(total / m.kernels[0].mss)


def test_multiple_reads_accumulate():
    sim, m = build()
    a, b = pair(m)

    def sender(sim):
        yield from a.send(b"abcdef")

    def receiver(sim):
        x = yield from b.recv_exact(2)
        y = yield from b.recv_exact(4)
        return (x, y)

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert p.value == (b"ab", b"cdef")


def test_handshake_connect_accept():
    sim, m = build()
    lst = m.kernels[1].tcp.listen(80)

    def client(sim):
        conn = yield from m.kernels[0].tcp.connect(1, 80)
        yield from conn.send(b"GET /")
        return conn

    def server(sim):
        conn = yield from lst.accept()
        data = yield from conn.recv_exact(5)
        return data

    pc = sim.process(client(sim))
    ps = sim.process(server(sim))
    sim.run()
    assert ps.value == b"GET /"
    assert pc.value.state == "established"


def test_duplicate_listen_rejected():
    sim, m = build()
    m.kernels[0].tcp.listen(80)
    from repro.errors import NetworkError

    with pytest.raises(NetworkError):
        m.kernels[0].tcp.listen(80)


def test_retransmission_recovers_from_loss():
    """Drop 20%% of frames: the stream still arrives intact, with
    retransmissions recorded."""
    from repro.faults import FaultPlan

    # short RTO so the test completes quickly
    kp = KernelParams().with_overrides(rto=10_000.0)
    sim, m = build("ethernet", kernel_params=kp, faults=FaultPlan.loss(0.2), seed=7)
    a, b = pair(m)
    payload = bytes(range(256)) * 80  # 20 KB

    def sender(sim):
        yield from a.send(payload)

    def receiver(sim):
        return (yield from b.recv_exact(len(payload)))

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run(until=60_000_000.0)
    assert p.value == payload
    assert m.fabric.frames_dropped > 0
    assert a.retransmissions + b.retransmissions > 0


def test_recovers_from_periodic_loss(stream_pair):
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

    kp = KernelParams().with_overrides(rto=8000.0)
    sim, m = build("ethernet", drop_if=lossy, kernel_params=kp)
    a, b = stream_pair(m)
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


def test_window_backpressure(stream_pair):
    """With a tiny advertised window, in-flight data never exceeds it."""
    kp = KernelParams().with_overrides(window=2000)
    sim, m = build("ethernet", kernel_params=kp)
    a, b = stream_pair(m)
    total = 20000

    def sender(sim):
        yield from a.send(bytes(total))

    def receiver(sim):
        return (yield from b.recv_exact(total))

    maxin = {"v": 0}

    def monitor(sim):
        while True:
            maxin["v"] = max(maxin["v"], a.snd_nxt - a.snd_una)
            yield sim.timeout(100.0)

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.process(monitor(sim))
    sim.run(until=10_000_000.0)
    assert len(p.value) == total
    assert maxin["v"] <= 2000


def test_send_larger_than_sndbuf_blocks_then_completes(stream_pair):
    """A write bigger than the send buffer stalls on buffer space
    (``stall.sndbuf``) and resumes as ACKs free it."""
    kp = KernelParams().with_overrides(sndbuf=4096)
    sim, m = build("ethernet", kernel_params=kp)
    sim.obs = bus = EventBus()
    a, b = stream_pair(m)
    payload = bytes(range(256)) * 64  # four send buffers' worth

    def sender(sim):
        yield from a.send(payload)
        return sim.now

    def receiver(sim):
        return (yield from b.recv_exact(len(payload)))

    ps = sim.process(sender(sim))
    pr = sim.process(receiver(sim))
    sim.run(until=10_000_000.0)
    assert pr.value == payload
    stalls = [e.detail for e in bus if e.kind == "stall.sndbuf"]
    assert stalls and all(d["used"] >= 4096 and d["pending"] > 0 for d in stalls)
    assert ps.value > 0.0  # the writer was held, then released


def test_close_wakes_blocked_reader(stream_pair):
    sim, m = build()
    a, b = stream_pair(m)

    def closer(sim):
        yield sim.timeout(5000.0)
        a.close()

    def reader(sim):
        with pytest.raises(ConnectionClosed):
            yield from b.recv_exact(10)
        return True

    sim.process(closer(sim))
    p = sim.process(reader(sim))
    sim.run()
    assert p.value is True


def test_send_on_closed_rejected():
    sim, m = build()
    a, b = pair(m)
    a.close()
    with pytest.raises(ConnectionClosed):
        next(a.send(b"x"))


def test_latency_matches_paper_band():
    """1-byte TCP RTT: ~925 µs Ethernet, ~1065 µs ATM (paper, Fig. 4/5)."""

    def rtt(network):
        sim, m = build(network)
        a, b = pair(m)

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

    eth, atm = rtt("ethernet"), rtt("atm")
    assert 800 <= eth <= 1050, f"ethernet RTT {eth} outside the paper band"
    assert 950 <= atm <= 1200, f"atm RTT {atm} outside the paper band"
    assert atm > eth  # the ATM stack's per-packet cost dominates at 1 byte


def test_bandwidth_ordering_atm_much_faster():
    """Figure 6: TCP bandwidth on ATM is roughly an order of magnitude
    above the 10 Mb/s Ethernet."""

    def bw(network, total=200_000):
        sim, m = build(network)
        a, b = pair(m)

        def client(sim):
            t0 = sim.now
            yield from a.send(bytes(total))
            yield from a.recv_exact(1)
            return total / (sim.now - t0)

        def server(sim):
            yield from b.recv_exact(total)
            yield from b.send(b"k")

        p = sim.process(client(sim))
        sim.process(server(sim))
        sim.run()
        return p.value

    eth, atm = bw("ethernet"), bw("atm")
    assert eth < 1.25  # can't beat the wire
    assert atm > 4 * eth


@settings(max_examples=15, deadline=None)
@given(chunks=st.lists(st.binary(min_size=1, max_size=4000), min_size=1, max_size=8))
def test_property_stream_integrity(stream_pair, chunks):
    """Any sequence of writes is read back as the exact concatenation."""
    sim, m = build("atm")
    a, b = stream_pair(m)
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


def test_nagle_holds_small_second_write():
    """With Nagle on, a sub-MSS write waits for the previous segment's
    (delayed) acknowledgement; with TCP_NODELAY semantics it does not."""

    def request_time(nagle):
        kp = KernelParams().with_overrides(nagle=nagle)
        sim, m = build("atm", kernel_params=kp)
        a, b = pair(m)

        def client(sim):
            t0 = sim.now
            yield from a.send(b"h" * 25)
            yield from a.send(b"p" * 100)
            yield from a.recv_exact(1)
            return sim.now - t0

        def server(sim):
            yield from b.recv_exact(125)
            yield from b.send(b"k")

        p = sim.process(client(sim))
        sim.process(server(sim))
        sim.run()
        return p.value

    assert request_time(True) > request_time(False) + 1000.0


def test_nagle_full_segments_flow_immediately():
    """Nagle never delays MSS-sized segments."""
    kp = KernelParams().with_overrides(nagle=True)
    sim, m = build("atm", kernel_params=kp)
    a, b = pair(m)
    total = m.kernels[0].mss * 3

    def client(sim):
        t0 = sim.now
        yield from a.send(bytes(total))
        yield from a.recv_exact(1)
        return sim.now - t0

    def server(sim):
        yield from b.recv_exact(total)
        yield from b.send(b"k")

    p = sim.process(client(sim))
    sim.process(server(sim))
    sim.run()
    # no multi-ms delayed-ack stall: full segments went out back to back
    assert p.value < 10_000.0


def test_fast_retransmit_beats_rto():
    """Drop exactly one mid-stream data frame: three duplicate ACKs
    trigger a fast retransmit, recovering orders of magnitude before
    the 200 ms RTO."""
    state = {"data_frames": 0}

    def drop_third_data(nbytes):
        if nbytes > 500:
            state["data_frames"] += 1
            return state["data_frames"] == 3
        return False

    sim, m = build("atm", drop_if=drop_third_data)
    a, b = pair(m)
    total = m.kernels[0].mss * 8  # enough segments after the hole

    def sender(sim):
        yield from a.send(bytes(total))

    def receiver(sim):
        data = yield from b.recv_exact(total)
        return sim.now

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert a.fast_retransmissions >= 1
    # recovery well before the RTO would have fired
    assert p.value < m.kernels[0].params.rto


def test_dupack_counter_resets_on_progress():
    """A normal lossless stream never triggers fast retransmit."""
    sim, m = build("atm")
    a, b = pair(m)
    total = m.kernels[0].mss * 6

    def sender(sim):
        yield from a.send(bytes(total))

    def receiver(sim):
        return (yield from b.recv_exact(total))

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert len(p.value) == total
    assert a.fast_retransmissions == 0
