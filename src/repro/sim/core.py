"""Core of the discrete-event simulation kernel.

The kernel is intentionally small and has no dependencies beyond the
standard library.  It provides:

* :class:`Simulator` -- the event loop (a binary heap of scheduled
  events, a monotonically increasing clock, deterministic tie-breaking,
  a same-timestamp batch drain in :meth:`Simulator.run`, which every
  caller -- the supervised :meth:`repro.mpi.World.run` included --
  drives; :class:`StopRun` / :meth:`Simulator.stop` end it early);
* :class:`Event` -- a one-shot future that processes can wait on;
* :class:`Timeout` -- an event that fires after a fixed delay; also a
  cancellable timer handle (:meth:`Timeout.cancel`, O(1) lazy heap
  deletion) and the vehicle for callback timers
  (:meth:`Simulator.call_later`);
* :class:`Process` -- a generator coroutine driven by the simulator,
  itself an event (it fires when the generator returns);
* :class:`AnyOf` / :class:`AllOf` -- condition events;
* :class:`Interrupt` -- asynchronous interruption of a process.

Hot-loop architecture (see docs/PERF.md "Kernel architecture")
--------------------------------------------------------------
The run loop is compiled down to plain-list and tuple operations:

* **Kind dispatch.** Every event class carries a class-level ``_kind``
  tag (`K_EVENT`/`K_TIMEOUT`/`K_PROCESS`); the loop branches on the tag
  instead of ``type()``/``isinstance`` checks, so the only polymorphic
  call left per event is the waiter callback itself.
* **One loop, obs hoisted.** :meth:`Simulator.run` drives one loop,
  :meth:`_run`, that reads ``self.obs`` into a local once per call; an
  untraced event pays one ``is not None`` on that local, a traced timeout
  also emits ``timer.fire``.  Tracing provably cannot perturb the
  simulation because there is only one fire sequence to drive.
* **Record pooling.** Internal single-waiter records (the timeouts
  behind :meth:`repro.sim.resources.Resource.use`, the wakeup events
  behind :class:`repro.sim.notify.Notify`) come from per-simulator free
  lists via :meth:`Simulator.timeout1` / :meth:`Simulator.event1` and
  are recycled the moment their callbacks have run.  Public
  :meth:`Simulator.timeout` / :meth:`Simulator.event` handles are never
  pooled -- callers may retain them, put them in conditions, or cancel
  them late.  ``Simulator(pool=False)`` disables recycling (records
  are then ordinary garbage); event order is identical either way.
* **Inlined scheduling.**  ``succeed``/``fail``/``Timeout()`` push the
  heap entry directly instead of funnelling through :meth:`_schedule`.
* **Sequence-preserving elision.**  A zero-delay event whose firing
  provably cannot reorder or affect anything consumes its sequence
  number but never touches the heap.  :meth:`Simulator.elide` is the
  only place that decides this; the uncontended grant of
  ``Resource.use`` / ``Processor.execute`` and the acceptance event of
  ``Store.post`` are the only users.  An *event count* therefore means
  sequence numbers allocated, elided ones included.

Determinism
-----------
Events scheduled for the same simulated time fire in (priority,
sequence-number) order, where the sequence number is assigned at
scheduling time.  Given identical inputs and seeds, every run of a
simulation produces the identical event order.  None of the machinery
above may change how sequence numbers are allocated: pooling recycles
*records*, never sequence numbers, elision skips the *heap*, never a
sequence number, a :meth:`Simulator.stop` sentinel takes none, and the
run loop drains batches in exactly the order the heap yields them,
traced or not.
"""

from __future__ import annotations

from heapq import heapify, heappush, heappop
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "URGENT",
    "NORMAL",
    "SimulationError",
    "StopRun",
    "Interrupt",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Simulator",
]

_INF = float("inf")

#: Scheduling priority for events that must run before ordinary events at
#: the same timestamp (used internally for process interruption).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1
#: Priority of the :meth:`Simulator.stop` sentinel: ahead of URGENT.
_STOP = -1

_PENDING = object()

#: Event-kind tags: class-level dispatch constants read by the run loop
#: (and by the tracer to classify timer fires) instead of type checks.
K_EVENT = 0
K_TIMEOUT = 1
K_PROCESS = 2

#: Free lists stop growing past this many recycled records apiece.
_POOL_CAP = 4096


class SimulationError(Exception):
    """Raised for misuse of the kernel (double trigger, bad yield, ...)."""


class StopRun(BaseException):
    """Raised by an event callback to stop :meth:`Simulator.run` early.

    The run loop swallows it, runs the callbacks still queued behind the
    raising one on the *same* event (a waiter is never dropped), recycles
    the record and returns with the clock at that event's timestamp;
    later events, same-time ones included, stay queued and a second
    ``run()`` carries on exactly where this one stopped.  This is how
    every :meth:`repro.mpi.World.run` ends.  Derives from
    ``BaseException`` so protocol code catching ``Exception`` can never
    absorb it.  Only raise it from plain callbacks driven by ``run()``:
    inside a process generator it is one more exception that fails the
    process (call :meth:`Simulator.stop` there), and under
    :meth:`Simulator.step` it propagates to the caller.
    """


class Interrupt(Exception):
    """Thrown *into* a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; ``cause`` carries
    the value passed to :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *pending* until :meth:`succeed` or :meth:`fail` is
    called, after which it is scheduled and eventually *fires*: its
    callbacks run and any waiting process resumes with :attr:`value` (or
    has the failure exception thrown into it).
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_scheduled", "_defused", "_cancelled")

    #: kind tag for the run loop's dispatch (overridden by subclasses)
    _kind = K_EVENT
    #: free-list tag: 0 = never recycled, 1 = timeout pool, 2 = event pool
    _pooled = 0

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: Callables invoked with the event when it fires.  ``None`` once
        #: the event has fired (new callbacks are then invoked directly).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._defused = False
        self._cancelled = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event is still pending")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The event's value (or failure exception).  Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event is still pending")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Mark the event successful and schedule it to fire *now*."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._scheduled = True
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Mark the event failed; waiters get *exception* thrown into them."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self._scheduled = True
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, priority, seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run.

        A failed event with no waiter would otherwise abort
        :meth:`Simulator.run` (failures must not pass silently).
        """
        self._defused = True

    # -- waiting --------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run *fn(event)* when the event fires (immediately if already fired)."""
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if not callbacks:
            if not self._ok and not self._defused:
                # An unhandled failure: abort the simulation loudly.
                raise self._value
            return
        sim = self.sim
        # waiters behind the one running are still "runnable now"
        sim._fanout = len(callbacks) > 1
        try:
            for fn in callbacks:
                fn(self)
        finally:
            sim._fanout = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` microseconds after creation.

    A Timeout doubles as a *cancellable timer handle*: :meth:`cancel`
    withdraws it in O(1) before it fires (lazy heap deletion — the heap
    entry becomes a tombstone that the simulator discards unfired).
    This is how the protocol stacks retire retransmission timers whose
    work was obsoleted by an ACK, instead of letting dead events pile up
    and fire into no-op guards.
    """

    __slots__ = ("delay",)

    _kind = K_TIMEOUT

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # flat init: one attribute store per slot, no super() chain
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self._defused = False
        self._cancelled = False
        self.delay = delay
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now + delay, NORMAL, seq, self))

    def cancel(self) -> bool:
        """Withdraw the timer before it fires.  Returns True on success.

        O(1): the scheduled heap entry is tombstoned and skipped (never
        fired) when it reaches the top; the heap is compacted once
        tombstones dominate.  Cancelling an already-fired (or already-
        cancelled) timer returns False and does nothing.

        Cancellation silently discards the timer's callbacks — a process
        blocked on a cancelled timer would never resume, so only cancel
        timers you own (callback timers from :meth:`Simulator.call_later`
        or timeouts nothing is waiting on).
        """
        if self._cancelled or self.callbacks is None:
            return False
        self._cancelled = True
        self.callbacks = []  # drop references; never runs, `processed` stays False
        sim = self.sim
        sim._note_cancel()
        obs = sim.obs
        if obs is not None:
            obs.emit(sim._now, "sim", "timer.cancel", detail={"delay": self.delay})
        return True


class _PooledTimeout(Timeout):
    """A :class:`Timeout` allocated by :meth:`Simulator.timeout1`.

    Identical behaviour; the tag routes the record back to the
    simulator's timeout free list once its callbacks have run.
    """

    __slots__ = ()

    _pooled = 1


class _PooledEvent(Event):
    """An :class:`Event` allocated by :meth:`Simulator.event1`."""

    __slots__ = ()

    _pooled = 2


class _Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process"):
        self.sim = sim
        self.callbacks = [process._resume_cb]
        self._value = None
        self._ok = True
        self._scheduled = True
        self._defused = False
        self._cancelled = False
        sim._seq = seq = sim._seq + 1
        heappush(sim._heap, (sim._now, URGENT, seq, self))


class Process(Event):
    """A generator coroutine driven by the simulator.

    The wrapped generator yields :class:`Event` objects; each yield
    suspends the process until the event fires.  The process is itself an
    event: it succeeds with the generator's return value, or fails with
    an uncaught exception from the generator.
    """

    __slots__ = ("_generator", "_target", "name", "_resume_cb", "_send", "_throw")

    _kind = K_PROCESS

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process() needs a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        #: the event this process is currently waiting on (None if running/new)
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Cache the bound methods used once per resume: creating a fresh
        # bound-method object per yield is measurable in the hot loop.
        self._resume_cb = self._resume
        self._send = generator.send
        self._throw = generator.throw
        _Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event (the
        event remains valid and may be re-awaited).
        """
        if self.triggered:
            raise SimulationError(f"{self.name} has already finished")
        if self.sim._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_ev = Event(self.sim)
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        interrupt_ev._defused = True
        interrupt_ev.callbacks.append(self._resume_cb)
        self.sim._schedule(interrupt_ev, 0.0, URGENT)
        # Detach from the event we were waiting on so its firing does not
        # also resume us.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None

    # -- driving --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        sim = self.sim
        send = self._send
        resume_cb = self._resume_cb
        sim._active_process = self
        self._target = None
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    # mark the failure as handled: it is being delivered
                    event._defused = True
                    target = self._throw(event._value)
            except StopIteration as exc:
                sim._active_process = None
                # a finished process must not be a reference cycle
                # through its own cached bound methods
                self._resume_cb = self._send = self._throw = None
                self._ok = True
                self._value = exc.value
                self._scheduled = True
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (sim._now, NORMAL, seq, self))
                obs = sim.obs
                if obs is not None:
                    obs.emit(sim._now, "sim", "process.exit",
                             detail={"name": self.name, "ok": True})
                return
            except BaseException as exc:
                sim._active_process = None
                self._resume_cb = self._send = self._throw = None
                self._ok = False
                self._value = exc
                self._scheduled = True
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (sim._now, NORMAL, seq, self))
                obs = sim.obs
                if obs is not None:
                    obs.emit(sim._now, "sim", "process.exit",
                             detail={"name": self.name, "ok": False})
                return

            # Duck-typed Event check: every kernel event has a
            # `callbacks` slot, nothing else a process may yield does
            # (zero-cost try/except replaces isinstance here).
            try:
                cbs = target.callbacks
            except AttributeError:
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Events"
                )
                sim._active_process = None
                self._ok = False
                self._value = exc
                self._scheduled = True
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap, (sim._now, NORMAL, seq, self))
                return
            if cbs is None:
                # Already fired: loop and deliver immediately.
                event = target
                continue
            cbs.append(resume_cb)
            self._target = target
            sim._active_process = None
            return


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._count = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict:
        """Values of all fired-and-ok member events, in member order.

        Uses *processed* (callbacks ran), not merely *triggered*:
        a Timeout is triggered from creation but has not yet occurred.
        """
        return {ev: ev._value for ev in self.events if ev.callbacks is None and ev._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when any member event succeeds (fails if one fails first)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(_Condition):
    """Fires when all member events have succeeded."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._count >= len(self.events)


def _never_elide(waited: bool = True) -> bool:
    """:meth:`Simulator.elide` of a ``Simulator(elide=False)``."""
    return False


class Simulator:
    """The discrete-event loop.

    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> p = sim.process(hello(sim))
    >>> sim.run()
    >>> p.value
    3.0

    ``pool=False`` turns off record recycling for the internal
    :meth:`timeout1`/:meth:`event1` fast paths and ``elide=False`` makes
    :meth:`elide` refuse, so every elidable event takes its heap trip --
    the two oracles the equivalence tests compare against.  Event order
    and sequence numbers are identical for every combination of the two.
    """

    def __init__(self, pool: bool = True, elide: bool = True):
        self._now = 0.0
        self._heap: List = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: tombstoned (cancelled) entries still sitting in the heap
        self._dead = 0
        #: True while an event with several callbacks is firing: the
        #: waiters behind the running one are runnable at this instant
        #: although the heap does not show them (see :meth:`elide`)
        self._fanout = False
        #: a :meth:`stop` sentinel is queued
        self._stopping = False
        #: optional :class:`repro.obs.EventBus`; None keeps every
        #: emission site to a single attribute load + None check
        self.obs = None
        self._pool_on = pool
        if not elide:
            self.elide = _never_elide  # type: ignore[method-assign]
        #: free lists of recycled records (see timeout1/event1)
        self._tpool: List[Timeout] = []
        self._epool: List[Event] = []

    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing *delay* microseconds from now."""
        return Timeout(self, delay, value)

    def timeout1(self, delay: float, value: Any = None) -> Timeout:
        """A pooled one-shot timeout for internal hot paths.

        Pool contract (see docs/PERF.md): the caller yields the returned
        event exactly once and then drops every reference.  The record
        is recycled into a free list the moment its callbacks have run,
        so it must never be retained across a suspension, given a second
        waiter, placed in an :class:`AnyOf`/:class:`AllOf`, or cancelled
        after it fired.  Use :meth:`timeout` for anything user-visible.
        """
        if self._pool_on:
            pool = self._tpool
            if pool:
                if delay < 0:
                    raise ValueError(f"negative delay {delay!r}")
                t = pool.pop()
                t.callbacks = []
                t._value = value
                t._scheduled = True
                t._defused = False
                t._cancelled = False
                t.delay = delay
                self._seq = seq = self._seq + 1
                heappush(self._heap, (self._now + delay, NORMAL, seq, t))
                return t
            return _PooledTimeout(self, delay, value)
        return Timeout(self, delay, value)

    def event1(self) -> Event:
        """A pooled pending event for internal hot paths.

        Same contract as :meth:`timeout1`.  An event1 that is abandoned
        before firing is simply garbage (it never reaches the pool).
        """
        if self._pool_on:
            pool = self._epool
            if pool:
                ev = pool.pop()
                ev.callbacks = []
                ev._value = _PENDING
                ev._ok = None
                ev._scheduled = False
                ev._defused = False
                ev._cancelled = False
                return ev
            return _PooledEvent(self)
        return Event(self)

    def call_later(self, delay: float, fn: Callable[[Event], None]) -> Timeout:
        """Schedule ``fn(event)`` to run *delay* microseconds from now.

        Returns the :class:`Timeout` as a cancellable timer handle:
        ``handle.cancel()`` withdraws the callback in O(1) before it
        fires.  This is the cheap way to run timer-driven bookkeeping
        (retransmission deadlines, delayed ACKs) without dedicating a
        process to sleep on each timer.
        """
        t = Timeout(self, delay)
        t.callbacks.append(fn)
        obs = self.obs
        if obs is not None:
            obs.emit(self._now, "sim", "timer.arm", detail={"delay": delay})
        return t

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from *generator*."""
        p = Process(self, generator, name)
        obs = self.obs
        if obs is not None:
            obs.emit(self._now, "sim", "process.spawn", detail={"name": p.name})
        return p

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling -----------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (self._now + delay, priority, seq, event))

    def _note_cancel(self) -> None:
        """Account one tombstone; compact the heap if they dominate."""
        self._dead += 1
        heap = self._heap
        if self._dead > 512 and self._dead * 2 > len(heap):
            # in place: run()/step() hold local references to this list
            heap[:] = [entry for entry in heap if not entry[3]._cancelled]
            heapify(heap)
            self._dead = 0

    def _recycle(self, ev: Event) -> None:
        """Return a pooled record to its free list (drops the payload ref)."""
        k = ev._pooled
        if k:
            ev._value = None
            pool = self._tpool if k == 1 else self._epool
            if len(pool) < _POOL_CAP:
                pool.append(ev)

    def elide(self, waited: bool = True) -> bool:
        """Sequence-preserving elision: the one place an event is skipped.

        Call instead of scheduling a zero-delay event whose firing
        provably cannot reorder or affect anything.  On ``True`` the
        event's sequence number has been consumed (event counts and the
        tie-break of every later event are exactly what they would have
        been) and the caller must carry on as if the event had fired; on
        ``False`` the caller schedules and yields it as usual.  Two
        cases qualify (proofs in docs/PERF.md "Sequence-preserving
        elision"):

        ``waited=True`` -- a self-wakeup: the only waiter is the process
        calling, which would yield on the event next (the uncontended
        grant of :meth:`repro.sim.resources.Resource.use`).  Granted
        only when nothing else is runnable at this instant -- the heap
        is empty or its top is strictly later than ``now``, and no
        sibling callback of the firing event is pending -- because then
        the event would be the very next one popped.

        ``waited=False`` -- an orphan: the caller guarantees the event
        can never acquire a callback (the discarded handle of
        :meth:`repro.sim.resources.Store.post`).  Whenever it fires it
        runs nothing, so it is always granted.
        """
        if waited:
            heap = self._heap
            if self._fanout or (heap and heap[0][0] <= self._now):
                return False
        self._seq += 1
        return True

    def stop(self) -> None:
        """Make :meth:`run` return once the event firing now has finished.

        For code that cannot raise :class:`StopRun` because it runs
        inside a process generator.  Queues a sentinel ahead of
        everything else at the current instant *without* allocating a
        sequence number, so a run that is stopped and resumed fires
        exactly the events, in exactly the order, of one that never
        stopped.
        """
        if not self._stopping:
            self._stopping = True
            ev = Event(self)
            ev._ok = True
            ev._value = None
            ev._scheduled = True
            ev.callbacks.append(self._stop_cb)
            heappush(self._heap, (self._now, _STOP, 0, ev))

    def _stop_cb(self, _event: Event) -> None:
        self._stopping = False
        raise StopRun

    # -- running --------------------------------------------------------
    def step(self) -> None:
        """Fire the next scheduled live event, advancing the clock.

        Cancelled timers encountered on the way are discarded unfired.
        Stepping an empty (or all-tombstone) queue raises
        :class:`SimulationError`.
        """
        heap = self._heap
        while heap:
            t, _prio, _seq, event = heappop(heap)
            if event._cancelled:
                self._dead -= 1
                self._recycle(event)
                continue
            if t < self._now:  # pragma: no cover - defensive
                raise SimulationError("time went backwards")
            self._now = t
            obs = self.obs
            if obs is not None and event._kind == K_TIMEOUT:
                obs.emit(t, "sim", "timer.fire", detail={"delay": event.delay})
            event._fire()
            self._recycle(event)
            return
        raise SimulationError("step() on an empty event queue")

    def peek(self) -> float:
        """Time of the next live scheduled event (``inf`` if none).

        Prunes cancelled timers off the top of the heap, so after a call
        ``self._heap`` is empty iff no live events remain.
        """
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            _t, _prio, _seq, dead = heappop(heap)
            self._dead -= 1
            self._recycle(dead)
        return heap[0][0] if heap else _INF

    def run(self, until: Optional[float] = None, *, advance_clock: bool = True) -> None:
        """Run until the event queue drains or the clock passes *until*.

        If *until* is given the clock is left exactly at ``until`` when
        the horizon is reached or the queue drains (pending events stay
        queued).  ``advance_clock=False`` leaves it at the last fired
        event instead -- the supervised :meth:`repro.mpi.World.run`
        reports deadlock and failure times from it.

        The loop drains all events that share a timestamp in one batch:
        the horizon check and clock write happen once per distinct
        timestamp, not once per event.  A callback raising
        :class:`StopRun` ends the run with the clock at that event: the
        stopping event's remaining callbacks still run, later events
        (same-timestamp ones included) stay queued.
        """
        if advance_clock and until is not None and until < self._now:
            raise ValueError(f"until={until!r} is in the past (now={self._now!r})")
        ran_out = self._run(_INF if until is None else until)
        if ran_out and advance_clock and until is not None:
            self._now = until

    def _run(self, horizon: float) -> bool:
        # The hot loop: no method calls besides heappop and the waiter
        # callbacks, kind/pool dispatch on class-level ints, the bus read
        # once into a local (an untraced event pays one `is not None`).
        # True = drained or horizon reached, False = stopped by StopRun.
        heap = self._heap
        pop = heappop
        tpool = self._tpool
        epool = self._epool
        obs = self.obs
        ev = None
        rest = ()  # callbacks behind the running one; spent once its event is done
        try:
            while heap:
                entry = heap[0]
                ev = entry[3]
                if ev._cancelled:
                    pop(heap)
                    self._dead -= 1
                    k = ev._pooled
                    if k:
                        ev._value = None
                        pool = tpool if k == 1 else epool
                        if len(pool) < _POOL_CAP:
                            pool.append(ev)
                    continue
                t = entry[0]
                if t > horizon:
                    return True
                self._now = t
                # same-timestamp batch drain (includes events the fired
                # events schedule for this same instant)
                while heap and heap[0][0] == t:
                    ev = pop(heap)[3]
                    if ev._cancelled:
                        self._dead -= 1
                    else:
                        if obs is not None and ev._kind == K_TIMEOUT:
                            obs.emit(t, "sim", "timer.fire", detail={"delay": ev.delay})
                        cbs = ev.callbacks
                        ev.callbacks = None
                        if cbs:
                            # single-waiter wakeup fast path
                            if len(cbs) == 1:
                                cbs[0](ev)
                            else:
                                self._fanout = True
                                rest = iter(cbs)
                                for fn in rest:
                                    fn(ev)
                                self._fanout = False
                        elif ev._ok is False and not ev._defused:
                            raise ev._value
                    k = ev._pooled
                    if k:
                        ev._value = None
                        pool = tpool if k == 1 else epool
                        if len(pool) < _POOL_CAP:
                            pool.append(ev)
        except StopRun:
            self._finish_stopped(ev, rest)
            return False
        return True

    def _finish_stopped(self, ev: Event, rest: Iterable) -> None:
        """A callback of *ev* raised :class:`StopRun`: run the callbacks
        still behind it (*rest*), then recycle the record as the loop
        would have."""
        while True:
            try:
                for fn in rest:
                    fn(ev)
            except StopRun:
                continue
            break
        self._fanout = False
        self._recycle(ev)

    def run_until_complete(self, process: Process, limit: float = float("inf")):
        """Run until *process* finishes; return its value or re-raise its error.

        ``limit`` guards against deadlock: exceeding it raises
        :class:`SimulationError`.

        After the generator returns, the loop keeps stepping until the
        process *event* itself has fired, so ``process.processed`` is
        True on return and same-time bookkeeping (waiter callbacks,
        condition updates) has run.
        """
        while not process.triggered:
            t = self.peek()  # prunes tombstones: _heap empty <=> drained
            if not self._heap:
                raise SimulationError(
                    f"deadlock: event queue drained but {process.name!r} never finished"
                )
            if t > limit:
                raise SimulationError(f"time limit {limit} exceeded waiting for {process.name!r}")
            self.step()
        if not process.ok:
            process._defused = True
        # Drain up to (and including) the completion event so .processed
        # is consistent for the caller.
        while not process.processed:
            self.step()
        if not process.ok:
            raise process.value
        return process.value
