"""A primitive costs what it uses: nothing is allocated before first use.

A fresh ``Resource`` / ``Store`` / ``Notify`` / ``MatchQueues`` / ``Host``
holds no queue, set or RNG (checked by walking what it references, not
by a size), every read of a never-used queue answers like an empty one,
and the two behaviour-bearing pieces of the change — ``Host.rng`` seeded
at its first draw, ``Store.put``/``post`` handing an item straight to a
waiting getter — are pinned against their eager / queued references.
"""

import gc
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings

from repro.faults import BatchedRandom
from repro.hw.node import Host, Processor
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.matching import MatchQueues
from repro.mpi.request import Request as MpiRequest
from repro.sim import EMPTY, PriorityStore, Resource, SimulationError, Simulator, Store
from repro.sim.notify import Notify
from repro.sim.resources import Request
from tests.sim.test_elision import _drive, _programs

# ---------------------------------------------------------------------------
# nothing before first use
# ---------------------------------------------------------------------------


def _owned(obj, sim):
    """Everything *obj* references, transitively, short of the simulator
    it lives in and of code (types, functions, modules)."""
    seen, todo = {}, [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or o is sim or isinstance(o, type) or callable(o):
            continue
        seen[id(o)] = o
        if type(o).__module__.startswith("repro") or isinstance(o, (dict, list, tuple)):
            todo.extend(gc.get_referents(o))
    return list(seen.values())


@pytest.mark.parametrize("make", [
    lambda sim: Resource(sim, capacity=1, name="r"),
    lambda sim: Store(sim, name="s"),
    lambda sim: PriorityStore(sim, name="p"),
    lambda sim: Notify(sim, "n"),
    lambda sim: Processor(sim, name="cpu"),
    lambda sim: MatchQueues(),
    lambda sim: Host(sim, 3, seed=5),
], ids=["Resource", "Store", "PriorityStore", "Notify", "Processor",
        "MatchQueues", "Host"])
def test_a_fresh_object_references_no_queue_set_or_rng(make):
    sim = Simulator()
    owned = _owned(make(sim), sim)
    assert len(owned) > 1  # the walk saw the instance's attributes
    heavy = [o for o in owned if isinstance(o, (deque, set, random.Random))]
    assert heavy == []


def test_the_uncontended_paths_never_allocate_a_queue():
    sim = Simulator()
    res, cpu, store = Resource(sim), Processor(sim), Store(sim)
    got = []

    def worker():
        while True:
            got.append((yield store.get()))

    def user():
        for i in range(5):
            yield from res.use(1.0)
            yield from cpu.execute(1.0)
            store.post(i)       # the worker is waiting: handed over
            yield sim.timeout(1.0)

    sim.process(worker())
    sim.process(user())
    sim.run()
    assert got == [0, 1, 2, 3, 4]
    assert res._queue is EMPTY and cpu._res._queue is EMPTY
    assert store.items is EMPTY and store._putters is EMPTY


# ---------------------------------------------------------------------------
# lazy edges: typed errors and zeros with no queue ever allocated
# ---------------------------------------------------------------------------


def test_release_of_an_unknown_or_foreign_request_on_a_fresh_resource():
    sim = Simulator()
    res, other = Resource(sim), Resource(sim)
    with pytest.raises(SimulationError, match="unknown pending request"):
        res.release(Request(res))  # never queued, never granted
    with pytest.raises(SimulationError, match="different resource"):
        res.release(other.request())
    assert res._queue is EMPTY


def test_cancelling_a_queued_request_still_works():
    sim = Simulator()
    res = Resource(sim)
    held, waiting = res.request(), res.request()
    assert res.queued == 1
    res.release(waiting)  # withdraw the pending claim
    assert res.queued == 0 and waiting.triggered
    with pytest.raises(SimulationError, match="unknown pending request"):
        res.release(Request(res))
    res.release(held)
    assert res.in_use == 0


def test_fresh_primitives_read_as_empty():
    sim = Simulator()
    res, store, pstore, note = Resource(sim), Store(sim), PriorityStore(sim), Notify(sim)
    assert res.queued == 0
    for s in (store, pstore):
        assert len(s) == 0 and s.waiting_getters == 0 and s.try_get() is None
    assert note.cancel_wait(sim.event()) is False
    assert "waiters=0" in repr(note)
    ev = note.wait()
    assert note.cancel_wait(ev) is True and note.cancel_wait(ev) is False


def test_fresh_match_queues_read_as_empty():
    q = MatchQueues()
    assert q.posted == [] and q.unexpected == []
    assert q.probe(ANY_SOURCE, ANY_TAG, 0) is None
    assert q.probe(1, 7, 0) is None
    req = MpiRequest("recv", None, None, 0, None, 1, 7)
    assert q.cancel_post(req) is False
    assert q._posted_fifo is EMPTY and q._unexp_fifo is EMPTY


# ---------------------------------------------------------------------------
# Host.rng: seeded at the first draw, same stream
# ---------------------------------------------------------------------------


def _reference_rng(seed, hostid):
    return random.Random((seed << 16) ^ (hostid * 2654435761 % 2**32))


@pytest.mark.parametrize("seed,hostid", [(0, 0), (5, 3), (7, 2047)])
def test_host_rng_draws_are_those_of_the_eager_seed_expression(seed, hostid):
    sim = Simulator()
    ref = _reference_rng(seed, hostid)
    want = [ref.random(), ref.randrange(1 << 10), ref.uniform(-1.0, 1.0)]

    host = Host(sim, hostid, seed=seed)
    assert "rng" not in vars(host)  # nothing seeded yet
    assert [host.rng.random(), host.rng.randrange(1 << 10),
            host.rng.uniform(-1.0, 1.0)] == want
    assert host.rng is host.rng

    claimed = Host(sim, hostid, seed=seed)
    claimed.claim_raw_rng()
    assert "rng" not in vars(claimed)  # claiming draws nothing
    assert [claimed.rng.random(), claimed.rng.randrange(1 << 10),
            claimed.rng.uniform(-1.0, 1.0)] == want


def test_jitter_stream_is_batched_unless_a_raw_consumer_claimed():
    sim = Simulator()
    host = Host(sim, 1, seed=9)
    stream = host.jitter_stream()
    assert isinstance(stream, BatchedRandom) and host.jitter_stream() is stream
    ref = _reference_rng(9, 1)
    assert [stream.uniform(-1.0, 1.0) for _ in range(3)] == [
        ref.uniform(-1.0, 1.0) for _ in range(3)]


def test_jitter_stream_is_the_raw_stream_on_an_ethernet_host():
    from repro.mpi import World

    world = World(2, platform="ethernet")
    for host in world.platform.hosts:
        assert "rng" not in vars(host)  # the NIC claimed it without seeding it
        assert host.jitter_stream() is host.rng


# ---------------------------------------------------------------------------
# Store hand-off against the queued path
# ---------------------------------------------------------------------------


class _QueuedStore(Store):
    """The reference: every item goes through ``items`` and getters are
    woken from it (``put``/``post`` as they were before the hand-off)."""

    def put(self, item):
        ev = self.sim.event1()
        if len(self.items) < self.capacity:
            self._do_put(item)
            ev.succeed(None)
            self._wake_getters()
        else:
            self._queue_putter(ev, item)
        return ev

    def post(self, item):
        if len(self.items) < self.capacity:
            self._do_put(item)
            self._accept(None)
            self._wake_getters()
        else:
            self._queue_putter(None, item)

    def _wake_getters(self):
        while self._getters and self.items:
            self._getters.pop(0).succeed(self._do_get())
            self._admit_putters()

    def _admit_putters(self):
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            self._do_put(item)
            self._accept(putter)
            self._wake_getters()


class _QueuedPriorityStore(_QueuedStore, PriorityStore):
    pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_programs)
def test_the_hand_off_is_invisible(programs):
    """Same (time, ``_seq``, process, item) after every step of every
    process, same final ``_seq`` — bounded stores with queued putters
    and ``PriorityStore`` included, with and without elision."""
    for elide in (True, False):
        for cls, ref in ((Store, _QueuedStore), (PriorityStore, _QueuedPriorityStore)):
            assert (_drive(programs, elide, "run", store_cls=cls)
                    == _drive(programs, elide, "run", store_cls=ref))


def _three_getters(cls, producer):
    sim = Simulator()
    store = cls(sim, capacity=1)
    log = []

    def getter(name):
        item = yield store.get()
        log.append((name, item, sim.now, sim._seq))

    for name in "abc":
        sim.process(getter(name))
    sim.process(producer(sim, store, log))
    sim.run()
    return log, sim._seq


@pytest.mark.parametrize("cls,ref", [(Store, _QueuedStore),
                                     (PriorityStore, _QueuedPriorityStore)])
def test_three_getters_are_served_oldest_first(cls, ref):
    def producer(sim, store, log):
        yield sim.timeout(1.0)
        store.post(3)
        log.append(("posted", sim._seq))
        yield store.put(1)
        log.append(("put", sim._seq))
        store.post(2)
        log.append(("posted", sim._seq))

    log, seq = _three_getters(cls, producer)
    assert [e[:2] for e in log if e[0] in "abc"] == [("a", 3), ("b", 1), ("c", 2)]
    assert (log, seq) == _three_getters(ref, producer)


@pytest.mark.parametrize("cls,ref", [(Store, _QueuedStore),
                                     (PriorityStore, _QueuedPriorityStore)])
def test_queued_putters_behind_a_full_store(cls, ref):
    def run(store_cls):
        sim = Simulator()
        store = store_cls(sim, capacity=1)
        log = []

        def producer():
            yield store.put(5)           # buffered: nobody is waiting
            handle = store.put(1)        # full: queues
            store.post(3)                # queues behind it
            log.append(("queued", len(store), sim._seq))
            yield handle
            log.append(("1 accepted", sim.now, sim._seq))

        def consumer():
            yield sim.timeout(2.0)
            for _ in range(3):
                log.append(((yield store.get()), sim.now, sim._seq))
            log.append(((yield store.get()), sim.now, sim._seq))  # waits: handed over

        def late():
            yield sim.timeout(9.0)
            store.post(7)

        for body in (producer, consumer, late):
            sim.process(body())
        sim.run()
        return log, sim._seq, len(store), store.waiting_getters

    out = run(cls)
    assert [e[0] for e in out[0]] == ["queued", 5, "1 accepted", 1, 3, 7]
    assert out[2:] == (0, 0)
    assert out == run(ref)


def test_priority_store_hands_out_the_smallest_buffered_item():
    sim = Simulator()
    store = PriorityStore(sim)
    for item in (4, 1, 3):
        store.post(item)
    got = []

    def consumer():
        for _ in range(4):
            got.append((yield store.get()))

    sim.process(consumer())
    sim.call_later(5.0, lambda _ev: store.post(9))  # arrives while it waits
    sim.run()
    assert got == [1, 3, 4, 9]


# ---------------------------------------------------------------------------
# waiter queues are lists: FIFO, and not quadratic where a test can reach
# ---------------------------------------------------------------------------


def test_ten_thousand_waiters_drain_in_fifo_order_quickly():
    n = 10_000
    t0 = time.perf_counter()
    sim = Simulator()
    note, store = Notify(sim), Store(sim)
    woken, served = [], []
    for i in range(n):
        note.wait().add_callback(lambda _ev, i=i: woken.append(i))
        store.get().add_callback(lambda ev, i=i: served.append((i, ev.value)))
    for i in range(n):
        note.set()
        store.post(i)
    sim.run()
    assert woken == list(range(n))
    assert served == [(i, i) for i in range(n)]
    assert time.perf_counter() - t0 < 1.0
