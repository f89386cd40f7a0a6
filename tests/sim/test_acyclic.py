"""A fault-free run leaves no cyclic garbage.

The engine pauses the cyclic collector while a cell runs
(``repro.parallel.tasks.run_cell``), so whatever a live world drops must
be freed by reference counting alone: a finished ``Process`` must not be
a cycle through its cached bound methods, a granted ``Request`` must not
carry itself as its value.  With the collector off, build -> run ->
(world still referenced) ``gc.collect()`` has to find nothing.
"""

import gc

import numpy as np
import pytest

from repro.bench.harness import cold_pingpong
from repro.mpi import World
from repro.platforms import DEVICE_MATRIX, device_key


@pytest.fixture
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()            # earlier tests' dead worlds are not ours to count
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _eager_threshold(platform, device):
    world = World(2, platform=platform, device=device)
    config = getattr(world.comms[0].endpoint, "config", None)
    if hasattr(config, "eager_threshold"):
        return config.eager_threshold
    # mpich delegates the protocol switch to the tport widget
    return world.platform.machine.params.tport_rdv_threshold


@pytest.mark.parametrize("side", [-1, +1], ids=["eager", "rendezvous"])
@pytest.mark.parametrize(
    "platform,device", DEVICE_MATRIX, ids=[device_key(*pd) for pd in DEVICE_MATRIX]
)
def test_pingpong_leaves_no_cycles(platform, device, side, collector_off):
    nbytes = _eager_threshold(platform, device) + side
    gc.collect()            # the probe world is dead, and cyclic
    world = World(2, platform=platform, device=device)
    world.run(cold_pingpong(nbytes, 200))
    assert gc.collect() == 0
    assert world.sim.now > 0


def test_wide_collectives_leave_no_cycles(collector_off):
    def main(comm):
        buf = np.zeros(64, dtype=np.int64)
        if comm.rank == 0:
            buf[:] = np.arange(64)
        yield from comm.bcast(buf, root=0)      # hardware broadcast
        val = np.array([comm.rank], dtype=np.int64)
        tot = yield from comm.allreduce(val)
        yield from comm.barrier()
        assert int(tot[0]) == comm.size * (comm.size - 1) // 2
        return int(buf[63])

    world = World(256, platform="meiko", device="lowlatency")
    assert world.run(main) == [63] * 256
    assert gc.collect() == 0


def test_contended_resource_grants_leave_no_cycles(collector_off):
    """Queued grants carry None, not the request (4 sites: request,
    release, use, Processor.execute)."""
    from repro.hw.node import Processor
    from repro.sim import Resource, Simulator

    sim = Simulator()
    res = Resource(sim, capacity=1)
    cpu = Processor(sim, name="cpu")
    granted = []

    def by_request(sim):
        req = res.request()
        granted.append((yield req))
        yield sim.timeout(1.0)
        res.release(req)

    def by_use(sim):
        yield from res.use(1.0)
        yield from cpu.execute(1.0)

    for _ in range(4):
        sim.process(by_request(sim))
        sim.process(by_use(sim))
    sim.run()
    assert granted == [None] * 4
    assert gc.collect() == 0
