"""Unit tests for Resource / Store / PriorityStore."""

import pytest

from repro.sim import PriorityStore, Resource, SimulationError, Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# Resource
# ---------------------------------------------------------------------------


def test_resource_grants_immediately_when_free(sim):
    res = Resource(sim, capacity=1)

    def proc(sim):
        req = res.request()
        yield req
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 0.0


def test_resource_serializes_two_users(sim):
    res = Resource(sim, capacity=1)
    log = []

    def user(sim, tag, hold):
        yield from res.use(hold)
        log.append((tag, sim.now))

    sim.process(user(sim, "a", 10.0))
    sim.process(user(sim, "b", 5.0))
    sim.run()
    assert log == [("a", 10.0), ("b", 15.0)]


def test_resource_capacity_two_runs_in_parallel(sim):
    res = Resource(sim, capacity=2)
    log = []

    def user(sim, tag):
        yield from res.use(10.0)
        log.append((tag, sim.now))

    for tag in "abc":
        sim.process(user(sim, tag))
    sim.run()
    assert log == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_resource_fifo_order(sim):
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, tag):
        yield from res.use(1.0)
        order.append(tag)

    for tag in "abcdef":
        sim.process(user(sim, tag))
    sim.run()
    assert order == list("abcdef")


def test_resource_counters(sim):
    res = Resource(sim, capacity=1)

    def holder(sim):
        req = res.request()
        yield req
        assert res.in_use == 1
        yield sim.timeout(5.0)
        res.release(req)

    def waiter(sim):
        yield sim.timeout(1.0)
        assert res.queued == 0
        req = res.request()
        assert res.queued == 1
        yield req
        res.release(req)

    sim.process(holder(sim))
    sim.process(waiter(sim))
    sim.run()
    assert res.in_use == 0


def test_resource_over_release_rejected(sim):
    res = Resource(sim, capacity=1)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_release_foreign_request_rejected(sim):
    r1 = Resource(sim)
    r2 = Resource(sim)
    req = r1.request()
    with pytest.raises(SimulationError):
        r2.release(req)


def test_resource_cancel_pending_request(sim):
    res = Resource(sim, capacity=1)
    held = res.request()  # granted
    pending = res.request()  # queued
    res.release(pending)  # cancel before grant
    assert res.queued == 0
    res.release(held)
    assert res.in_use == 0


def test_resource_bad_capacity(sim):
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_use_releases_on_exception(sim):
    """An exception thrown into ``use()`` wherever it is suspended
    returns the claim (however many events the acquisition yields)."""
    res = Resource(sim, capacity=1)
    gen = res.use(100.0)
    next(gen)  # suspended somewhere inside the claim
    assert res.in_use == 1
    with pytest.raises(RuntimeError):
        gen.throw(RuntimeError("abort"))  # triggers finally -> release
    assert res.in_use == 0

    def after(sim):
        yield sim.timeout(1.0)
        yield from res.use(1.0)
        return sim.now

    p = sim.process(after(sim))
    sim.run()
    assert p.value == 2.0  # not blocked for 100us


@pytest.mark.parametrize("contended", [False, True], ids=["free", "queued"])
def test_use_rejects_a_negative_hold_at_the_call(sim, contended):
    """The check runs before the claim: the caller gets the ValueError,
    no unit is taken, nothing is queued and no sequence number is used
    (the run loop, which carries a grant into its hold, never sees it)."""
    res = Resource(sim, capacity=1)
    seen = {}

    def holder(sim):
        yield from res.use(5.0)

    def caller(sim):
        yield sim.timeout(1.0)
        before = (res.in_use, res.queued, sim._seq)
        try:
            yield from res.use(-1.0)
        except ValueError as exc:
            seen["error"] = str(exc)
        seen["state"] = before, (res.in_use, res.queued, sim._seq)

    if contended:
        sim.process(holder(sim))
    sim.process(caller(sim))
    sim.run()
    assert seen["error"] == "negative hold time -1.0"
    before, after = seen["state"]
    assert after == before
    assert before[:2] == (int(contended), 0)  # the holder's unit, no waiter
    assert res.in_use == 0 and res.queued == 0


# ---------------------------------------------------------------------------
# Store
# ---------------------------------------------------------------------------


def test_store_put_then_get(sim):
    store = Store(sim)

    def proc(sim):
        yield store.put("x")
        item = yield store.get()
        return item

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "x"


def test_store_get_blocks_until_put(sim):
    store = Store(sim)

    def getter(sim):
        item = yield store.get()
        return (sim.now, item)

    def putter(sim):
        yield sim.timeout(7.0)
        yield store.put("late")

    p = sim.process(getter(sim))
    sim.process(putter(sim))
    sim.run()
    assert p.value == (7.0, "late")


def test_store_fifo(sim):
    store = Store(sim)
    for i in range(5):
        store.put(i)

    def getter(sim):
        out = []
        for _ in range(5):
            out.append((yield store.get()))
        return out

    p = sim.process(getter(sim))
    sim.run()
    assert p.value == [0, 1, 2, 3, 4]


def test_bounded_store_blocks_putter(sim):
    store = Store(sim, capacity=1)
    log = []

    def putter(sim):
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def getter(sim):
        yield sim.timeout(10.0)
        item = yield store.get()
        log.append((f"got-{item}", sim.now))

    sim.process(putter(sim))
    sim.process(getter(sim))
    sim.run()
    assert log == [("put-a", 0.0), ("got-a", 10.0), ("put-b", 10.0)]


def test_store_try_get(sim):
    store = Store(sim)
    assert store.try_get() is None
    store.put(1)
    assert store.try_get() == 1
    assert store.try_get() is None


def test_store_try_get_admits_blocked_putter(sim):
    store = Store(sim, capacity=1)
    store.put("a")
    blocked = store.put("b")
    assert not blocked.triggered
    assert store.try_get() == "a"
    assert blocked.triggered
    assert store.try_get() == "b"


def test_store_len_and_getter_count(sim):
    store = Store(sim)
    assert len(store) == 0
    store.get()
    assert store.waiting_getters == 1
    store.put("x")
    assert store.waiting_getters == 0


def test_store_bad_capacity(sim):
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_many_getters_served_in_order(sim):
    store = Store(sim)
    got = []

    def getter(sim, tag):
        item = yield store.get()
        got.append((tag, item))

    for tag in "abc":
        sim.process(getter(sim, tag))

    def putter(sim):
        for i in range(3):
            yield sim.timeout(1.0)
            yield store.put(i)

    sim.process(putter(sim))
    sim.run()
    assert got == [("a", 0), ("b", 1), ("c", 2)]


# ---------------------------------------------------------------------------
# PriorityStore
# ---------------------------------------------------------------------------


def test_priority_store_orders_items(sim):
    store = PriorityStore(sim)
    for v in [5, 1, 3]:
        store.put(v)

    def getter(sim):
        out = []
        for _ in range(3):
            out.append((yield store.get()))
        return out

    p = sim.process(getter(sim))
    sim.run()
    assert p.value == [1, 3, 5]


def test_priority_store_with_tuples(sim):
    store = PriorityStore(sim)
    store.put((2, "b"))
    store.put((1, "a"))

    def getter(sim):
        return (yield store.get())

    p = sim.process(getter(sim))
    sim.run()
    assert p.value == (1, "a")
