"""Shared-resource primitives built on the event kernel.

* :class:`Resource` -- a counted resource (CPU, bus, DMA engine) with a
  strict-FIFO wait queue;
* :class:`Store` -- an unbounded-or-bounded FIFO of items (mailboxes,
  NIC receive queues, co-processor command queues);
* :class:`PriorityStore` -- a store whose ``get`` returns the smallest
  item first.

All waits are events, so processes use them with plain ``yield``::

    req = cpu.request()
    yield req
    yield sim.timeout(cost)
    cpu.release(req)

or, more conveniently, with :meth:`Resource.use`::

    yield from cpu.use(cost)

A primitive costs what it uses: a wide world builds a handful of these
per rank and most of their queues stay empty for the whole run, while an
empty ``deque`` mallocs its 64-slot block at birth (760 B).  So every
queue here starts as :data:`EMPTY` — one shared immutable empty sequence
that answers ``len``, truth, ``in`` and iteration like a drained queue —
and becomes a real container at its first enqueue, which is the only
place that has to know.  An existing container is never swapped back to
:data:`EMPTY` (that would cost an allocation per message on the hottest
stores), so an alias taken while it exists stays valid.  Item queues
become deques; waiter queues (``Store._getters``,
``Notify._waiters``), whose depth is bounded by the processes blocked
on one object, become plain lists.
"""

from __future__ import annotations

from heapq import heappush, heappop
from collections import deque
from typing import Any, Optional

from repro.sim.core import Event, _PENDING, SimulationError, Simulator

__all__ = ["EMPTY", "Request", "Resource", "Store", "PriorityStore"]

#: the queue nothing has been put on yet (see the module docstring);
#: compare with ``is`` at the enqueue, use like an empty queue elsewhere
EMPTY: tuple = ()


class Request(Event):
    """A pending claim on a :class:`Resource` (fires when granted).

    Requests are handles the caller retains across the hold (``release``
    takes the request back), so they are never pooled.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.sim = resource.sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = False
        self._defused = False
        self._cancelled = False
        self.resource = resource


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` units exist; :meth:`request` returns an event that fires
    when a unit is granted; :meth:`release` returns the unit and wakes
    the next waiter.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: waiting requests: a deque from the first contended request on
        self._queue = EMPTY

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Requests waiting for a unit."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted.

        Grants carry ``None``, never the request: a request whose value
        is itself is a reference cycle only the cyclic collector frees.
        """
        req = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(None)
        else:
            queue = self._queue
            if queue is EMPTY:
                queue = self._queue = deque()
            queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted unit."""
        if request.resource is not self:
            raise SimulationError("release() of a request from a different resource")
        if not request.triggered:
            # The request never got granted: just cancel it.
            if request not in self._queue:
                raise SimulationError("release() of an unknown pending request")
            self._queue.remove(request)
            request.succeed(None)  # fire so any waiter is not stranded
            return
        self._hand_on()

    def _hand_on(self) -> None:
        """Give a granted unit to the oldest waiter, or back to the pool."""
        queue = self._queue
        if queue:
            queue.popleft().succeed(None)
        else:
            if self._in_use <= 0:
                raise SimulationError(f"over-release of resource {self.name!r}")
            self._in_use -= 1

    def use(self, hold_time: float):
        """Generator helper: acquire, hold for *hold_time*, release.

        A negative *hold_time* raises :class:`ValueError` at the call,
        before any unit is claimed or sequence number used.  The release
        is in a ``finally`` that also covers the acquisition wait, so an
        exception thrown into the generator at any point (interrupt,
        failure) returns or withdraws the claim.

        The claim is one pooled record (:meth:`repro.sim.Simulator.grant1`)
        numbered exactly where a Request grant is -- at once when
        uncontended, by the releaser's ``succeed`` when it queued --
        which carries the hold: the process is woken once, when its hold
        is over, and event count and sequence numbering are those of a
        grant followed by a hold (determinism depends on it).  When
        nothing else is runnable at this instant the uncontended grant
        is elided (:meth:`repro.sim.Simulator.elide`), and when nothing
        can run before the hold ends the hold is too
        (:meth:`repro.sim.Simulator.hold`): the process then carries on
        without yielding at all.
        """
        if hold_time < 0:
            raise ValueError(f"negative hold time {hold_time!r}")
        sim = self.sim
        if self._in_use < self.capacity and not self._queue:
            self._in_use += 1
            try:
                if not sim.elide():
                    yield sim.grant1(hold_time).succeed(None)
                elif not sim.hold(hold_time):
                    yield sim.timeout1(hold_time)
            finally:
                self._hand_on()
            return
        grant = sim.grant1(hold_time)
        queue = self._queue
        if queue is EMPTY:
            queue = self._queue = deque()
        queue.append(grant)
        try:
            yield grant
        finally:
            if grant._value is _PENDING:
                # thrown out of the queue: withdraw the claim, numbered
                # as a cancelled request's grant (it fires into nobody)
                queue.remove(grant)
                grant.succeed(None)
            else:
                self._hand_on()


class Store:
    """A FIFO buffer of items with blocking ``put`` (if bounded) and ``get``.

    ``put(item)`` returns an event firing when the item has been
    accepted; ``get()`` returns an event firing with the next item.

    Both handles come from the simulator's record pool: yield them once
    and drop them.  A producer that would discard the ``put`` handle
    calls :meth:`post` instead (every producer in the tree does — they
    are the NIC rx/tx and co-processor command queues, the hottest store
    traffic in the simulation).

    A getter only ever waits on a store with no items and no queued
    putters, so an item that finds one is handed straight to it: a
    worker inbox materialises ``items`` only while its worker is busy.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf"), name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        #: a deque from the first item that has to be buffered on
        self.items = EMPTY
        #: blocked ``get`` events, oldest first: a list from the first on
        self._getters = EMPTY
        #: queued put handles ride with their item: (event, item); a
        #: posted item has no handle (None).  A deque from the first put
        #: refused by a full store on
        self._putters = EMPTY

    def __len__(self) -> int:
        return len(self.items)

    @property
    def waiting_getters(self) -> int:
        return len(self._getters)

    def _do_put(self, item: Any) -> None:
        items = self.items
        if items is EMPTY:
            items = self.items = deque()
        items.append(item)

    def _do_get(self) -> Any:
        return self.items.popleft()

    def put(self, item: Any) -> Event:
        ev = self.sim.event1()
        getters = self._getters
        if getters:
            # hand-off: acceptance numbered first, then the oldest getter
            ev.succeed(None)
            getters.pop(0).succeed(item)
        elif len(self.items) < self.capacity:
            self._do_put(item)
            ev.succeed(None)
        else:
            self._queue_putter(ev, item)
        return ev

    def post(self, item: Any) -> None:
        """:meth:`put` for a caller that would discard the handle.

        Same sequence numbers, same item and getter order as ``put``;
        the acceptance event, which nothing can ever wait on, is elided
        (:meth:`repro.sim.Simulator.elide`) instead of fired.  On a full
        bounded store the item queues behind earlier putters.
        """
        getters = self._getters
        if getters:
            self._accept(None)
            getters.pop(0).succeed(item)
        elif len(self.items) < self.capacity:
            self._do_put(item)
            self._accept(None)
        else:
            self._queue_putter(None, item)

    def _queue_putter(self, handle: Optional[Event], item: Any) -> None:
        putters = self._putters
        if putters is EMPTY:
            putters = self._putters = deque()
        putters.append((handle, item))

    def _accept(self, handle: Optional[Event]) -> None:
        """Number the acceptance of an item: fire the put *handle*; a
        posted item has none, so its event is elided where allowed."""
        if handle is not None:
            handle.succeed(None)
        elif not self.sim.elide(waited=False):
            self.sim.event1().succeed()

    def get(self) -> Event:
        ev = self.sim.event1()
        if self.items:
            ev.succeed(self._do_get())
            if self._putters:
                self._admit_putters()
        else:
            getters = self._getters
            if getters is EMPTY:
                self._getters = [ev]
            else:
                getters.append(ev)
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: the next item, or None if empty."""
        if not self.items:
            return None
        item = self._do_get()
        self._admit_putters()
        return item

    def _admit_putters(self) -> None:
        # no getter can be waiting here: putters queue only behind a
        # full store, and getters wait only on an empty one
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            self._do_put(item)
            self._accept(putter)


class PriorityStore(Store):
    """A store whose ``get`` returns the smallest item (heap order)."""

    def _do_put(self, item: Any) -> None:
        items = self.items
        if items is EMPTY:
            items = self.items = []
        heappush(items, item)

    def _do_get(self) -> Any:
        return heappop(self.items)
