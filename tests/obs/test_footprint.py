"""A traced event holds only what it records.

Two budgets, measured with ``tracemalloc``: a kernel timer event
retained on the bus (a four-field :class:`~repro.obs.bus.TimerEvent`,
not an ``Event`` carrying a ``{"delay": d}`` dict), and the transient
of streaming a 40 000-event bus to a chrome trace (a bounded chunk of
records, never the whole list or document).
"""

import gc
import tracemalloc

from repro.mpi import World
from repro.obs import EventBus, write_trace
from repro.sim import Simulator

#: bytes a retained kernel timer event may cost, its delay float included
TIMER_EVENT_BUDGET = 140
#: transient bytes a chrome export may add above its start
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


def test_a_chrome_export_holds_a_bounded_chunk(tmp_path):
    bus = _traced_bus(40_000)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_trace(bus, str(tmp_path / "trace.json"))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= EXPORT_BUDGET, f"{peak / 2**20:.2f} MB above the start"
