"""Counted notifications: set/wait/poll with semaphore semantics.

A :class:`Notify` is the kernel-side analogue of a condition flag: a
``set()`` that arrives before the ``wait()`` is not lost (it is
counted), waiters wake FIFO, and an un-fired wait can be cancelled so
its token is not consumed by a stale waiter.  The Meiko hardware event
(:class:`repro.hw.meiko.events.HwEvent`) and the protocol stacks'
wakeups are both built on this.
"""

from __future__ import annotations

from repro.sim.core import Event, Simulator
from repro.sim.resources import EMPTY

__all__ = ["Notify"]


class Notify:
    """A counted event (semaphore-style signal)."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._count = 0
        #: blocked waits, oldest first: a list from the first one on
        #: (see :data:`repro.sim.resources.EMPTY`)
        self._waiters = EMPTY
        self.total_sets = 0

    @property
    def count(self) -> int:
        """Pending (unconsumed) sets."""
        return self._count

    def set(self) -> None:
        """Fire once; wakes the oldest waiter if any."""
        self.total_sets += 1
        if self._waiters:
            self._waiters.pop(0).succeed(None)
        else:
            self._count += 1

    def wait(self) -> Event:
        """An event firing when a set is available (consumes one set)."""
        ev = Event(self.sim)
        if self._count > 0:
            self._count -= 1
            ev.succeed(None)
        elif self._waiters is EMPTY:
            self._waiters = [ev]
        else:
            self._waiters.append(ev)
        return ev

    def wait1(self) -> Event:
        """Pooled :meth:`wait` for internal hot paths.

        The returned event comes from the simulator's record pool
        (:meth:`repro.sim.Simulator.event1`): yield it exactly once and
        drop it.  Never put a ``wait1`` event into an
        :class:`~repro.sim.AnyOf`/:class:`~repro.sim.AllOf` or read it
        after it fired — use :meth:`wait` for those (the transports'
        RTO races do).  ``cancel_wait`` is safe on either kind.
        """
        ev = self.sim.event1()
        if self._count > 0:
            self._count -= 1
            ev.succeed(None)
        elif self._waiters is EMPTY:
            self._waiters = [ev]
        else:
            self._waiters.append(ev)
        return ev

    def cancel_wait(self, ev: Event) -> bool:
        """Withdraw a not-yet-fired wait.  True if it was still queued."""
        if ev not in self._waiters:
            return False
        self._waiters.remove(ev)
        return True

    def poll(self) -> bool:
        """Consume one pending set if available (non-blocking)."""
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} count={self._count} waiters={len(self._waiters)}>"
