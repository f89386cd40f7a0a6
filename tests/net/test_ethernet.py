"""Ethernet medium tests: CSMA/CD invariants, contention, framing."""

import pytest

from repro.errors import NetworkError
from repro.hw.ethernet import BROADCAST, EthernetParams, Frame, Medium
from repro.hw.node import Host
from repro.sim import Simulator
from tests.net.fakes import DropIf


class StubNic:
    def __init__(self, addr):
        self.addr = addr
        self.received = []

    def on_frame(self, frame):
        self.received.append(frame)


def build(n=2, **overrides):
    sim = Simulator()
    params = EthernetParams().with_overrides(**overrides) if overrides else EthernetParams()
    medium = Medium(sim, params)
    hosts = [Host(sim, i, seed=3) for i in range(n)]
    nics = [StubNic(i) for i in range(n)]
    for nic in nics:
        medium.attach(nic)
    return sim, medium, hosts, nics


def test_frame_wire_bytes_min_frame():
    p = EthernetParams()
    # 1-byte payload is padded to the 64-byte minimum (+ 8 preamble)
    assert p.frame_wire_bytes(1) == 72
    assert p.frame_wire_bytes(1500) == 8 + 14 + 1500 + 4


def test_frame_time_10mbps():
    p = EthernetParams()
    assert p.frame_time(1500) == pytest.approx(1526 * 0.8)


def test_single_frame_delivered():
    sim, medium, hosts, nics = build()

    def sender(sim):
        yield from medium.transmit(Frame(0, 1, 100, "payload"), hosts[0].rng)

    sim.process(sender(sim))
    sim.run()
    assert len(nics[1].received) == 1
    assert nics[1].received[0].payload == "payload"
    assert nics[0].received == []  # unicast not echoed to sender


def test_broadcast_frame():
    sim, medium, hosts, nics = build(4)

    def sender(sim):
        yield from medium.transmit(Frame(0, BROADCAST, 50, "all"), hosts[0].rng)

    sim.process(sender(sim))
    sim.run()
    for nic in nics[1:]:
        assert len(nic.received) == 1
    assert nics[0].received == []


def test_two_senders_serialize_no_overlap():
    """The wire carries one frame at a time: completion times differ by
    at least a frame time."""
    sim, medium, hosts, nics = build(3)
    done = []

    def sender(sim, src):
        yield from medium.transmit(Frame(src, 2, 1000, src), hosts[src].rng)
        done.append(sim.now)

    sim.process(sender(sim, 0))
    sim.process(sender(sim, 1))
    sim.run()
    assert len(nics[2].received) == 2
    ftime = EthernetParams().frame_time(1000)
    assert abs(done[1] - done[0]) >= ftime * 0.9


def test_simultaneous_start_collides_and_recovers():
    sim, medium, hosts, nics = build(3)

    def sender(sim, src):
        yield from medium.transmit(Frame(src, 2, 500, src), hosts[src].rng)

    sim.process(sender(sim, 0))
    sim.process(sender(sim, 1))
    sim.run()
    assert medium.collisions >= 1  # both started cold at t=0
    assert len(nics[2].received) == 2  # but both got through


def test_contention_grows_with_stations():
    """More stations contending -> more collisions and lower efficiency
    (Figure 9's Ethernet degradation mechanism).  Note the aggregate
    throughput of a saturated wire barely moves; the damage shows up in
    collisions and access latency."""

    def run(nstations):
        sim, medium, hosts, nics = build(nstations + 1)

        def sender(sim, src):
            for _ in range(10):
                yield from medium.transmit(Frame(src, nstations, 800, None), hosts[src].rng)

        for s in range(nstations):
            sim.process(sender(sim, s))
        sim.run()
        return medium.collisions, sim.now / (10 * nstations)

    c1, t1 = run(1)
    c4, t4 = run(4)
    assert c4 > c1  # contention produces collisions
    assert t4 >= t1  # and at least no improvement in per-frame time


def test_loss_injection():
    sim = Simulator()
    medium = Medium(sim, injector=DropIf(lambda nbytes: True))
    host = Host(sim, 0)
    a, b = StubNic(0), StubNic(1)
    medium.attach(a)
    medium.attach(b)

    def sender(sim):
        yield from medium.transmit(Frame(0, 1, 100, None), host.rng)

    sim.process(sender(sim))
    sim.run()
    assert b.received == []
    assert medium.frames_dropped == 1


def test_duplicate_address_rejected():
    sim, medium, hosts, nics = build(2)
    with pytest.raises(NetworkError):
        medium.attach(StubNic(0))


def test_utilization_tracked():
    sim, medium, hosts, nics = build()

    def sender(sim):
        yield from medium.transmit(Frame(0, 1, 1000, None), hosts[0].rng)

    sim.process(sender(sim))
    sim.run()
    assert 0.0 < medium.utilization() <= 1.0


def test_backoff_is_deterministic_per_seed():
    def run_once():
        sim, medium, hosts, nics = build(3)

        def sender(sim, src):
            for _ in range(5):
                yield from medium.transmit(Frame(src, 2, 400, None), hosts[src].rng)

        sim.process(sender(sim, 0))
        sim.process(sender(sim, 1))
        sim.run()
        return sim.now, medium.collisions

    assert run_once() == run_once()


def test_mtu_enforced_by_nic():
    from repro.hw.ethernet import EthernetNic

    sim = Simulator()
    medium = Medium(sim)
    host = Host(sim, 0)
    nic = EthernetNic(host, medium)
    medium.attach(nic)
    with pytest.raises(NetworkError):
        nic.send(1, 2000, None)


def test_nic_survives_excessive_collision_abort(monkeypatch):
    """An excessive-collision abort drops *that frame* only: the tx
    worker keeps draining the queue (a dead worker mutes the station
    forever, which under fault storms turned crashes into deadlocks)."""
    from repro.hw.ethernet import EthernetNic

    sim = Simulator()
    medium = Medium(sim)
    host = Host(sim, 0, seed=1)
    nic = EthernetNic(host, medium)
    medium.attach(nic)
    peer = StubNic(1)
    medium.attach(peer)

    real_transmit = medium.transmit
    calls = []

    def flaky_transmit(frame, rng):
        calls.append(frame.payload)
        if len(calls) == 1:
            raise NetworkError("excessive collisions")
            yield  # pragma: no cover - makes this a generator
        yield from real_transmit(frame, rng)

    monkeypatch.setattr(medium, "transmit", flaky_transmit)
    nic.send(1, 100, "aborted")
    nic.send(1, 100, "delivered")
    sim.run()
    assert nic.tx_aborts == 1
    assert [f.payload for f in peer.received] == ["delivered"]
