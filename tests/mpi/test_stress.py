"""Randomized stress tests: arbitrary traffic patterns must deliver
every payload exactly, on every device."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ANY_SOURCE, World
from tests.conftest import MEIKO_DEVICES, run_world


def payload_for(src, tag, seq, size):
    """Deterministic, content-checkable payload."""
    head = bytes([src & 0xFF, tag & 0xFF, seq & 0xFF])
    body = bytes((src * 7 + tag * 13 + seq * 29 + i) % 251 for i in range(size - 3))
    return head + body


messages_strategy = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # sender rank (1..3)
        st.integers(min_value=0, max_value=2),  # tag
        st.integers(min_value=3, max_value=600),  # size (spans the 180B switch)
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=15, deadline=None)
@given(messages=messages_strategy)
def test_random_fan_in_exact_delivery(messages):
    """Random many-to-one traffic: rank 0 receives everything exactly,
    with per-(sender, tag) streams in order."""

    def main(comm):
        mine = [
            (i, tag, size)
            for i, (src, tag, size) in enumerate(messages)
            if src == comm.rank
        ]
        if comm.rank == 0:
            got = {}
            for _ in range(len(messages)):
                data, st_ = yield from comm.recv(source=ANY_SOURCE)
                got.setdefault((st_.source, st_.tag), []).append(bytes(data))
            return got
        for seq, tag, size in mine:
            yield from comm.send(payload_for(comm.rank, tag, seq, size), dest=0, tag=tag)

    got = World(4, platform="meiko", device="lowlatency").run(main)[0]
    # rebuild the expected per-(source, tag) streams in send order
    expected = {}
    for i, (src, tag, size) in enumerate(messages):
        expected.setdefault((src, tag), []).append(payload_for(src, tag, i, size))
    assert got == expected


@settings(max_examples=8, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=30000), min_size=2, max_size=5),
    seed=st.integers(min_value=0, max_value=3),
)
def test_random_ring_sizes_all_devices(sizes, seed):
    """A ring exchange of random-size messages survives the protocol
    switches on both Meiko devices."""

    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        out = []
        for i, size in enumerate(sizes):
            data = payload_for(comm.rank, i, seed, max(3, size))
            req = yield from comm.isend(data, dest=right, tag=i)
            got, _ = yield from comm.recv(source=left, tag=i)
            yield from comm.wait(req)
            out.append(bytes(got))
        return out

    for platform, device in MEIKO_DEVICES:
        res = run_world(3, main, platform, device)
        for rank in range(3):
            left = (rank - 1) % 3
            expected = [
                payload_for(left, i, seed, max(3, s)) for i, s in enumerate(sizes)
            ]
            assert res[rank] == expected


def test_sustained_bidirectional_traffic_cluster():
    """Hundreds of interleaved messages over the credit-limited TCP
    device: no deadlock, no loss, exact ordering per stream."""
    N = 150

    def main(comm):
        other = 1 - comm.rank
        reqs = []
        for i in range(N):
            r = yield from comm.isend(payload_for(comm.rank, 1, i, 40), dest=other, tag=1)
            reqs.append(r)
        out = []
        for i in range(N):
            data, _ = yield from comm.recv(source=other, tag=1)
            out.append(bytes(data))
        yield from comm.waitall(reqs)
        return out

    res = run_world(2, main, "atm", "tcp")
    for rank in range(2):
        expected = [payload_for(1 - rank, 1, i, 40) for i in range(N)]
        assert res[rank] == expected


def test_mixed_collectives_and_pt2pt_stress(meiko_device):
    """Collectives interleaved with wildcard point-to-point traffic."""
    platform, device = meiko_device
    rounds = 6

    def main(comm):
        total = np.zeros(1)
        for k in range(rounds):
            if comm.rank == k % comm.size:
                for r in range(comm.size):
                    if r != comm.rank:
                        yield from comm.send(bytes([k]), dest=r, tag=50 + k)
            else:
                data, st_ = yield from comm.recv(source=ANY_SOURCE, tag=50 + k)
                assert data[0] == k
            result = yield from comm.allreduce(np.array([float(comm.rank)]))
            total += result
            yield from comm.barrier()
        return float(total[0])

    res = run_world(4, main, platform, device)
    assert res == [6.0 * rounds] * 4  # sum(0..3) per round


def test_unexpected_flood_then_drain(meiko_device):
    """A flood of unexpected messages (buffered at the receiver) drains
    correctly once receives are finally posted — in order per tag."""
    platform, device = meiko_device
    per_tag = 10

    def main(comm):
        if comm.rank == 0:
            for i in range(per_tag):
                for tag in (1, 2, 3):
                    yield from comm.send(bytes([tag, i]), dest=1, tag=tag)
            yield from comm.send(b"done", dest=1, tag=9)
        else:
            yield from comm.recv(source=0, tag=9)  # everything else is unexpected
            out = {}
            for tag in (3, 1, 2):  # drain in a different order than sent
                got = []
                for _ in range(per_tag):
                    data, _ = yield from comm.recv(source=0, tag=tag)
                    got.append(data[1])
                out[tag] = got
            return out

    res = run_world(2, main, platform, device)[1]
    for tag in (1, 2, 3):
        assert res[tag] == list(range(per_tag))


def test_mpi_over_lossy_fabric_still_correct():
    """10% frame loss on the Ethernet: TCP retransmits underneath and the
    MPI layer never notices — every message arrives exactly once, in
    order (end-to-end fault-tolerance of the stack)."""
    from repro.faults import FaultPlan
    from repro.net.kernel import KernelParams

    kp = KernelParams().with_overrides(rto=8_000.0)

    def main(comm):
        other = 1 - comm.rank
        out = []
        for i in range(12):
            req = yield from comm.isend(payload_for(comm.rank, 2, i, 300),
                                        dest=other, tag=2)
            data, _ = yield from comm.recv(source=other, tag=2)
            yield from comm.wait(req)
            out.append(bytes(data))
        return out

    world = World(2, platform="ethernet", device="tcp", kernel_params=kp,
                  faults=FaultPlan.loss(0.10), seed=3)
    res = world.run(main)
    assert world.platform.machine.fabric.frames_dropped > 0
    for rank in range(2):
        assert res[rank] == [payload_for(1 - rank, 2, i, 300) for i in range(12)]


def test_mpi_udp_over_lossy_fabric_still_correct():
    """The same under reliable-UDP: the user-level layer recovers."""
    from repro.faults import FaultPlan
    from repro.net.kernel import KernelParams

    kp = KernelParams().with_overrides(rto=8_000.0)

    def main(comm):
        if comm.rank == 0:
            got = []
            for i in range(10):
                data, _ = yield from comm.recv(source=1, tag=1)
                got.append(bytes(data))
            return got
        for i in range(10):
            yield from comm.send(payload_for(1, 1, i, 500), dest=0, tag=1)

    world = World(2, platform="ethernet", device="udp", kernel_params=kp,
                  faults=FaultPlan.loss(0.08), seed=9)
    res = world.run(main)
    assert world.platform.machine.fabric.frames_dropped > 0
    assert res[0] == [payload_for(1, 1, i, 500) for i in range(10)]


def test_meiko_rejects_cluster_only_options():
    import pytest as _pytest

    from repro.errors import ConfigurationError

    from repro.net.kernel import KernelParams

    with _pytest.raises(ConfigurationError):
        World(2, platform="meiko", kernel_params=KernelParams())
    with _pytest.raises(ConfigurationError):
        World(2, platform="meiko", host_speeds=[1.0, 2.0])
