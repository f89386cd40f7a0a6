"""Record-pool safety: no aliasing of live records, no behaviour drift.

The kernel recycles its internal single-waiter timeout/event records
through per-simulator free lists (``Simulator.timeout1`` /
``Simulator.event1``).  The contract is strict: a record returned by
the pool must never still be reachable as a *live* record (scheduled
and unfired, or fired with callbacks pending) — aliasing one would
deliver a value to the wrong waiter.  And pooling must be purely a
wall-clock optimisation: event order, sequence numbering, and every
simulated timestamp are identical with pooling forced on or off
(``Simulator(pool=False)``, a constructor-only test oracle).
"""

import functools
import random

import pytest

import repro.mpi.world
from repro.sim import Simulator

from tests.test_determinism import GOLDEN_RING_TRACE, _ring_trace


def force_world_pool(monkeypatch, pool: bool) -> None:
    """Make every ``World`` built in this test use ``Simulator(pool=pool)``."""
    monkeypatch.setattr(repro.mpi.world, "Simulator",
                        functools.partial(Simulator, pool=pool))


def test_pool_never_aliases_live_records():
    """Property: interleaved allocate/fire/recycle never hands out a
    record that is still live.

    A seeded driver allocates pooled timeouts and events in a random
    interleaving, consuming some itself and letting others fire in the
    run loop; every allocation asserts the returned object is not one
    of the records currently tracked as live.  The ``live`` dict holds
    strong references, so two distinct objects can never share an id —
    a hit is a real alias.
    """
    rnd = random.Random(0xC0FFEE)
    sim = Simulator(pool=True)
    live = {}  # id(record) -> record, while scheduled & unfired
    ids_ever = set()
    reused = 0

    def on_fire(ev):
        live.pop(id(ev), None)

    def driver(sim):
        nonlocal reused
        for _ in range(3000):
            roll = rnd.random()
            if roll < 0.45:
                rec = sim.timeout1(rnd.choice((0.0, 1.0, 2.0, 7.0)))
            elif roll < 0.65:
                rec = sim.event1()
                rec.succeed(rnd.random())
            else:
                # unpooled churn in between, for interleaving realism
                handle = sim.call_later(50.0, lambda _e: None)
                yield sim.timeout1(1.0)
                handle.cancel()
                continue
            assert id(rec) not in live, "pool handed out a live record"
            if id(rec) in ids_ever:
                reused += 1
            ids_ever.add(id(rec))
            live[id(rec)] = rec
            rec.callbacks.append(on_fire)
            if rnd.random() < 0.5:
                yield rec
                live.pop(id(rec), None)

    sim.process(driver(sim))
    sim.run()
    # the property is vacuous if the pool never recycled anything
    assert reused > 100, f"pool recycled only {reused} records"


def test_pool_disabled_never_recycles():
    """``pool=False`` switches to plain throwaway records."""
    sim = Simulator(pool=False)

    def driver(sim):
        first = sim.timeout1(1.0)
        yield first
        second = sim.timeout1(1.0)
        assert second is not first
        yield second

    sim.process(driver(sim))
    sim.run()
    assert not sim._tpool and not sim._epool


def test_pool_reuses_after_fire():
    """The same object comes back once its previous life has ended."""
    sim = Simulator(pool=True)

    def driver(sim):
        first = sim.timeout1(1.0)
        yield first
        # first is recycled only *after* this resume returns (the run
        # loop recycles once all callbacks have run), so an allocation
        # here must NOT see it...
        second = sim.timeout1(1.0)
        assert second is not first
        yield second
        # ...but one event later first HAS been recycled and comes back
        third = sim.timeout1(2.0)
        assert third is first
        yield third

    sim.process(driver(sim))
    sim.run()


@pytest.mark.parametrize("platform", sorted(GOLDEN_RING_TRACE))
@pytest.mark.parametrize("pool", [pytest.param(True, id="1"), pytest.param(False, id="0")])
def test_ring_golden_with_pool_forced(platform, pool, monkeypatch):
    """The determinism goldens hold with pooling forced on AND off."""
    force_world_pool(monkeypatch, pool)
    assert _ring_trace(platform) == GOLDEN_RING_TRACE[platform]


def test_seq_identical_with_and_without_pool(monkeypatch):
    """Pooling changes no sequence numbers: same event count either way."""
    from repro.mpi import World

    counts = {}
    for pool in (True, False):
        force_world_pool(monkeypatch, pool)
        world = World(4, platform="meiko", device="lowlatency")
        assert world.sim._pool_on is pool

        def main(comm):
            for i in range(3):
                if comm.rank % 2 == 0:
                    yield from comm.send(bytes(32), dest=(comm.rank + 1) % 4, tag=i)
                    yield from comm.recv(source=(comm.rank - 1) % 4, tag=i)
                else:
                    yield from comm.recv(source=(comm.rank - 1) % 4, tag=i)
                    yield from comm.send(bytes(32), dest=(comm.rank + 1) % 4, tag=i)

        world.run(main)
        counts[pool] = (world.sim._seq, world.sim.now)
    assert counts[True] == counts[False]
