"""IP layer tests: fragmentation, reassembly, dispatch."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cluster import ClusterMachine
from repro.net.ip import IP_HEADER, IpPacket
from repro.net.udp import UdpDatagram
from repro.sim import Simulator
from tests.net.fakes import DropIf


def build(network="ethernet", n=2, drop_if=None):
    sim = Simulator()
    machine = ClusterMachine(sim, n, network=network)
    if drop_if is not None:
        machine.fabric.injector = DropIf(drop_if)
    return sim, machine


def test_small_datagram_single_fragment():
    sim, m = build()
    m.kernels[0].ip.send(1, "udp", UdpDatagram(1, 2, b"x"), 9)
    assert m.kernels[0].ip.fragments_sent == 1


def test_large_datagram_fragments_on_ethernet():
    sim, m = build("ethernet")
    n = 4000
    m.kernels[0].ip.send(1, "udp", UdpDatagram(1, 2, bytes(n)), n + 8)
    import math

    expected = math.ceil((n + 8) / (1500 - IP_HEADER))
    assert m.kernels[0].ip.fragments_sent == expected


def test_no_fragmentation_needed_on_atm():
    sim, m = build("atm")
    m.kernels[0].ip.send(1, "udp", UdpDatagram(1, 2, bytes(4000)), 4008)
    assert m.kernels[0].ip.fragments_sent == 1


def test_fragmented_datagram_reassembles_and_delivers():
    sim, m = build("ethernet")
    sock = m.kernels[1].udp.bind(7)
    payload = bytes(range(256)) * 20  # 5120 bytes -> several fragments

    def sender(sim):
        yield from m.kernels[0].udp.bind(9).sendto(1, 7, payload)

    def receiver(sim):
        src, data = yield from sock.recvfrom()
        return (src, data)

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    src, data = p.value
    assert src == 0
    assert data == payload


def test_lost_fragment_loses_datagram():
    drops = {"n": 0}

    def drop_second(nbytes):
        drops["n"] += 1
        return drops["n"] == 2  # drop exactly the second frame

    sim, m = build("ethernet", drop_if=drop_second)
    sock = m.kernels[1].udp.bind(7)

    def sender(sim):
        yield from m.kernels[0].udp.bind(9).sendto(1, 7, bytes(4000))

    sim.process(sender(sim))
    sim.run()
    assert sock.pending == 0  # datagram never delivered
    assert len(m.kernels[1].ip._partials) == 1  # stuck partial


def test_partial_buffer_evicts_oldest():
    sim, m = build("ethernet")
    ip = m.kernels[1].ip
    ip.max_partials = 2

    def gen():
        for i in range(3):
            pkt = IpPacket(0, 1, "udp", ident=i, offset=0, nbytes=10, total=100,
                           payload=UdpDatagram(1, 7, bytes(100)))
            g = ip.on_packet(pkt)
            if g is not None:
                yield from g
        yield sim.timeout(0)

    sim.process(gen())
    sim.run()
    assert len(ip._partials) == 2
    assert (0, 0) not in ip._partials  # the oldest was evicted


def test_wrong_destination_dropped():
    sim, m = build("ethernet", n=3)
    ip = m.kernels[1].ip
    pkt = IpPacket(0, 2, "udp", ident=1, offset=0, nbytes=1, total=1,
                   payload=UdpDatagram(1, 7, b"x"))

    def gen():
        g = ip.on_packet(pkt)
        if g is not None:
            yield from g
        yield sim.timeout(0)

    sim.process(gen())
    sim.run()
    assert ip.datagrams_delivered == 0


@settings(max_examples=20, deadline=None)
@given(size=st.integers(min_value=0, max_value=12000))
def test_property_any_size_survives_fragmentation(size):
    """Datagrams of any size reassemble exactly over the Ethernet MTU."""
    sim, m = build("ethernet")
    sock = m.kernels[1].udp.bind(7)
    payload = bytes(i % 251 for i in range(size))

    def sender(sim):
        yield from m.kernels[0].udp.bind(9).sendto(1, 7, payload)

    def receiver(sim):
        _, data = yield from sock.recvfrom()
        return data

    sim.process(sender(sim))
    p = sim.process(receiver(sim))
    sim.run()
    assert p.value == payload
