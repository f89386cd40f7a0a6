"""Tests for Notify (counted events)."""

import pytest

from repro.sim import Simulator
from repro.sim.notify import Notify


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# Notify
# ---------------------------------------------------------------------------


def test_set_before_wait_counted(sim):
    n = Notify(sim)
    n.set()
    n.set()
    assert n.count == 2

    def proc(sim):
        yield n.wait()
        yield n.wait()
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 0.0
    assert n.count == 0


def test_waiters_fifo(sim):
    n = Notify(sim)
    order = []

    def waiter(sim, tag):
        yield n.wait()
        order.append(tag)

    for tag in "abc":
        sim.process(waiter(sim, tag))

    def setter(sim):
        for _ in range(3):
            yield sim.timeout(1.0)
            n.set()

    sim.process(setter(sim))
    sim.run()
    assert order == list("abc")


def test_cancel_wait_preserves_token(sim):
    n = Notify(sim)
    ev = n.wait()
    assert n.cancel_wait(ev)
    n.set()
    assert n.count == 1  # the cancelled waiter did not consume it
    assert not n.cancel_wait(ev)  # second cancel is a no-op


def test_poll(sim):
    n = Notify(sim)
    assert not n.poll()
    n.set()
    assert n.poll()
    assert not n.poll()


def test_total_sets_counts_lifetime(sim):
    n = Notify(sim)
    for _ in range(5):
        n.set()
    n.poll()
    assert n.total_sets == 5
