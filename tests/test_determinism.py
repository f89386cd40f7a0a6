"""Determinism guard: pinned simulated-time outputs across the stack.

The kernel fast paths (cancellable timers, batch drain), the bucketed
matching engine, and the zero-copy byte paths are all wall-clock
optimisations — they must not move a single simulated microsecond or
reorder a single event.  These goldens were captured before that work
landed; any drift here means an optimisation changed observable
behaviour (event order, RNG draw order, matching cost, or byte
accounting), which is a bug even if every other test still passes.
"""

from dataclasses import replace

import pytest

from repro.bench import figures
from repro.faults import FaultPlan, PacketLoss
from repro.mpi import World
from repro.net.kernel import ATM_KERNEL, ETH_KERNEL
from repro.obs import EventBus

# (completion wtime µs rounded to 3 dp, rank, iteration) for a 4-rank
# 5-iteration 64-byte ring with even ranks sending first, seed=3 —
# sorted by (time, rank) so same-time completions compare stably.
GOLDEN_RING_TRACE = {
    "meiko": [
        (97.3, 1, 0), (97.3, 3, 0), (123.6, 0, 0), (123.6, 2, 0),
        (220.9, 1, 1), (220.9, 3, 1), (247.2, 0, 1), (247.2, 2, 1),
        (344.5, 1, 2), (344.5, 3, 2), (370.8, 0, 2), (370.8, 2, 2),
        (468.1, 1, 3), (468.1, 3, 3), (494.4, 0, 3), (494.4, 2, 3),
        (591.7, 1, 4), (591.7, 3, 4), (618.0, 0, 4), (618.0, 2, 4),
    ],
    "ethernet": [
        (817.372, 1, 0), (960.189, 3, 0), (1456.333, 2, 0), (1599.15, 0, 0),
        (2239.744, 3, 1), (2382.561, 1, 1), (3028.705, 0, 1), (3171.522, 2, 1),
        (3962.116, 1, 2), (4101.912, 3, 2), (4601.077, 2, 2), (4740.873, 0, 2),
        (5384.488, 3, 3), (5524.284, 1, 3), (6173.449, 0, 3), (6379.997, 2, 3),
        (7106.86, 1, 4), (7246.035, 3, 4), (7735.821, 2, 4), (7874.996, 0, 4),
    ],
    "atm": [
        (856.569, 1, 0), (856.569, 3, 0), (1538.688, 0, 0), (1538.688, 2, 0),
        (2395.257, 1, 1), (2395.257, 3, 1), (3263.376, 0, 1), (3263.376, 2, 1),
        (4149.945, 1, 2), (4149.945, 3, 2), (4832.064, 0, 2), (4832.064, 2, 2),
        (5688.633, 1, 3), (5688.633, 3, 3), (6556.752, 0, 3), (6556.752, 2, 3),
        (7443.321, 1, 4), (7443.321, 3, 4), (8115.44, 0, 4), (8115.44, 2, 4),
    ],
}

# Figure 2 / Figure 5 round-trip latencies (µs) at pinned sizes.  Each
# point is an independent simulation, so spot-checking a few sizes pins
# the whole pipeline without rerunning the full sweeps.
GOLDEN_FIG02 = {
    "MPI(mpich)": {1: 208.4399999999999, 180: 265.71999999999986, 1024: 308.95282051282044},
    "MPI(low latency)": {1: 104.06999999999995, 180: 159.55999999999995, 1024: 210.35282051282047},
    "Meiko tport": {1: 54.44000000000003, 180: 111.72000000000001, 1024: 154.95282051282052},
}
GOLDEN_FIG05 = {
    "mpi/tcp/atm": {1: 1647.5253662551434, 1024: 1967.5417119341564},
    "mpi/tcp/eth": {1: 1308.9146666666663, 1024: 3097.1186666666677},
    "tcp/atm": {1: 1063.1586995884782, 1024: 1477.1750452674903},
    "tcp/eth": {1: 1006.5480000000002, 1024: 2686.752000000003},
}

# (final simulated time, events scheduled, timeout retransmissions) of
# 40 round trips of a 20 000-byte payload under 5 % packet loss with a
# short RTO, seed=1.  Multi-segment on purpose: window stalls, the
# delayed-ACK resume, duplicate ACKs and RTO backoff all fire, so this
# pins the retransmit-timer RNG draw order of *both* stream transports
# under loss — the fault-free goldens above and the chaos digests reach
# only TCP there.
GOLDEN_LOSSY_STREAM = {
    ("ethernet", "tcp"): (2030782.940661654, 39197, 129),
    ("ethernet", "udp"): (3056312.146215324, 67118, 189),
    ("atm", "tcp"): (543405.656110008, 15098, 26),
    ("atm", "udp"): (497210.66237033234, 17760, 22),
}


def _ring_trace(platform):
    world = World(4, platform=platform, seed=3)
    trace = []

    def main(comm):
        rank = comm.rank
        nxt, prv = (rank + 1) % 4, (rank - 1) % 4
        for i in range(5):
            if rank % 2 == 0:
                yield from comm.send(bytes([i] * 64), dest=nxt, tag=i)
                yield from comm.recv(source=prv, tag=i)
            else:
                yield from comm.recv(source=prv, tag=i)
                yield from comm.send(bytes([i] * 64), dest=nxt, tag=i)
            trace.append((round(comm.wtime(), 3), rank, i))
        return None

    world.run(main)
    return sorted(trace)


@pytest.mark.parametrize("platform", sorted(GOLDEN_RING_TRACE))
def test_ring_trace_pinned(platform):
    """Per-rank completion times of every iteration are pinned.

    The ethernet trace is the sharp one: it runs the full TCP stack with
    retransmit/delayed-ACK timers armed and the shared per-host RNG
    drawing CSMA/CD jitter, so any change in timer draw order shifts
    every subsequent latency.
    """
    assert _ring_trace(platform) == GOLDEN_RING_TRACE[platform]


def test_fig02_meiko_latency_pinned():
    series = figures.fig02_meiko_latency(sizes=(1, 180, 1024))["series"]
    for label, want in GOLDEN_FIG02.items():
        got = dict(series[label])
        for n, v in want.items():
            assert got[n] == pytest.approx(v, abs=1e-9), (label, n)


def test_fig05_tcp_latency_pinned():
    series = figures.fig05_tcp_latency(sizes=(1, 1024))["series"]
    for label, want in GOLDEN_FIG05.items():
        got = dict(series[label])
        for n, v in want.items():
            assert got[n] == pytest.approx(v, abs=1e-9), (label, n)


@pytest.mark.parametrize("cell", sorted(GOLDEN_LOSSY_STREAM), ids="-".join)
def test_lossy_stream_pinned(cell):
    platform, device = cell
    base = ETH_KERNEL if platform == "ethernet" else ATM_KERNEL
    bus = EventBus()
    world = World(
        2, platform, device,
        faults=FaultPlan.of(PacketLoss(probability=0.05)),
        kernel_params=replace(base, rto=4000.0, rto_max=64000.0, max_retries=8),
        seed=1, obs=bus,
    )
    payload = bytes(20000)

    def main(comm):
        for _ in range(40):
            if comm.rank == 0:
                yield from comm.send(payload, dest=1, tag=1)
                yield from comm.recv(source=1, tag=2)
            else:
                data, _status = yield from comm.recv(source=0, tag=1)
                yield from comm.send(data, dest=0, tag=2)

    world.run(main)
    retx = sum(1 for e in bus if e.kind in ("seg.retx", "pkt.retx"))
    assert (world.sim.now, world.sim._seq, retx) == GOLDEN_LOSSY_STREAM[cell]
