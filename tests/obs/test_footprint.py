"""A traced event holds only what it records.

Budgets measured with ``tracemalloc``: a kernel timer event retained
on the bus (a four-field :class:`~repro.obs.bus.TimerEvent`, not an
``Event`` carrying a ``{"delay": d}`` dict), and the transient of
writing a trace (a bounded chunk of records, never the whole list or
document, and text caches keyed by kind, never by rank).
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.mpi import World
from repro.obs import EventBus, write_trace
from repro.sim import Simulator

#: bytes a retained kernel timer event may cost, its delay float included
TIMER_EVENT_BUDGET = 140
#: transient bytes an export may add above its start
EXPORT_BUDGET = 1 << 20


def test_a_retained_timer_event_costs_at_most_its_budget():
    n = 10_000
    sim = Simulator()
    sim.obs = bus = EventBus()

    def sleeper():
        for i in range(n):
            yield sim.timeout(1.0 + i / n)  # a distinct delay each: its float is retained

    sim.process(sleeper())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    timers = sum(1 for ev in bus.events if ev.kind == "timer.fire")
    assert timers == n
    assert retained / timers <= TIMER_EVENT_BUDGET, f"{retained / timers:.0f} B per timer event"


def _traced_bus(n_events):
    """A real traced run (an 8-rank ring on ethernet/tcp) cut to *n_events*."""
    bus = EventBus()

    def main(comm):
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        for i in range(200):
            yield from comm.sendrecv(b"x" * 64, dest=right, source=left, sendtag=i, recvtag=i)

    World(8, platform="ethernet", device="tcp", obs=bus).run(main)
    assert len(bus) >= n_events
    del bus.events[n_events:]
    return bus


def _export_peak(bus, path, fmt="chrome"):
    """Bytes ``write_trace`` allocates above its start, at its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_trace(bus, path, fmt)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_a_chrome_export_holds_a_bounded_chunk(tmp_path):
    bus = _traced_bus(40_000)
    peak = _export_peak(bus, str(tmp_path / "trace.json"))
    assert peak <= EXPORT_BUDGET, f"{peak / 2**20:.2f} MB above the start"


@pytest.fixture(scope="module")
def wide_bus():
    """A traced 1 024-rank Meiko world: a small bcast and a barrier."""
    bus = EventBus()

    def main(comm):
        buf = np.arange(4, dtype=np.int32) if comm.rank == 0 else np.zeros(4, dtype=np.int32)
        yield from comm.bcast(buf, root=0)
        yield from comm.barrier()

    World(1024, platform="meiko", device="lowlatency", obs=bus).run(main)
    assert len(bus) > 80_000
    return bus


@pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
def test_a_wide_export_caches_per_kind_not_per_rank(tmp_path, wide_bus, fmt):
    """The writers' text caches hold one fragment per kind (or call name);
    one per rank and kind would grow with the world (4 MB at 1 024 ranks)."""
    peak = _export_peak(wide_bus, str(tmp_path / "trace"), fmt)
    assert peak <= EXPORT_BUDGET, f"{peak / 2**20:.2f} MB above the start"
