"""The structured event bus: one spine for every layer's instrumentation.

Every layer of the stack — simulator kernel, network transports, MPI
devices, the MPI call layer, and the fault injector — emits typed
:class:`Event` records into a single :class:`EventBus`.  Higher-level
views (:class:`~repro.mpi.timeline.Timeline`,
:class:`~repro.obs.phases.PhaseLedger`, the Chrome-trace exporter) are
all folds over this one stream.

Cost model
----------
The bus is *absent* by default: ``Simulator.obs`` is ``None`` and every
emission site is guarded by one attribute load plus a ``None`` check::

    obs = self.sim.obs
    if obs is not None:
        obs.emit(self.sim.now, "dev", "env.arrived", rank=..., msg=...)

so the disabled path costs nothing measurable (the kernel perf floors
in ``BENCH_kernel.json`` are enforced with the bus disabled *and* a <5%
budget is tested explicitly).  When enabled, ``emit`` appends one
record and nothing else (the ``counters`` census is counted from the
stream when read); emission never interacts with simulated time, so
tracing cannot perturb deterministic outputs.

A record holds only what it records.  The kernel's timer events
(``timer.arm/fire/cancel``, roughly half of a traced run's stream) go
through :meth:`EventBus.emit_timer` as a four-field
:class:`TimerEvent` -- about 120 B retained with its two floats,
against 330 B for an :class:`Event` carrying a ``{"delay": d}`` dict --
and build that dict only when ``detail`` is read.

Event taxonomy (layer / kind) is documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.counters import CounterRegistry

__all__ = ["Event", "EventBus", "TimerEvent", "msgid"]


def msgid(src_world: int, dst_world: int, context: int, seq: int) -> Tuple[int, int, int, int]:
    """Canonical message-correlation id: ``(src, dst, context, seq)``.

    ``seq`` is the sender's per-(destination, context) sequence number,
    so the id is unique for the lifetime of a world and identical on
    both sides of the wire.
    """
    return (src_world, dst_world, context, seq)


class Event:
    """One typed record: *when*, *which layer*, *what*, *who*, *which message*.

    ``detail`` is an optional dict of event-specific fields; ``msg`` is
    a correlation id from :func:`msgid` linking every event in one
    message's life (send → envelope → match → data → complete);
    ``run`` labels the world/run the event came from when one bus spans
    several simulations (e.g. a chaos sweep).
    """

    __slots__ = ("t", "layer", "kind", "rank", "msg", "detail", "run")

    def __init__(self, t, layer, kind, rank=None, msg=None, detail=None, run=None):
        self.t = t
        self.layer = layer
        self.kind = kind
        self.rank = rank
        self.msg = msg
        self.detail = detail
        self.run = run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = [f"t={self.t}", self.layer, self.kind]
        if self.rank is not None:
            bits.append(f"rank={self.rank}")
        if self.msg is not None:
            bits.append(f"msg={self.msg}")
        if self.detail:
            bits.append(repr(self.detail))
        if self.run is not None:
            bits.append(f"run={self.run!r}")
        return f"Event({', '.join(bits)})"


class TimerEvent:
    """A kernel timer event (``sim`` layer, ``timer.arm/fire/cancel``).

    Reads exactly like an :class:`Event` -- ``layer`` is ``"sim"``,
    ``rank`` and ``msg`` are ``None`` -- but holds only the four fields
    that vary; ``detail`` is a fresh ``{"delay": delay}`` on every read.
    """

    __slots__ = ("t", "kind", "delay", "run")
    layer = "sim"
    rank = None
    msg = None

    def __init__(self, t, kind, delay, run=None):
        self.t = t
        self.kind = kind
        self.delay = delay
        self.run = run

    @property
    def detail(self) -> Dict[str, Any]:
        return {"delay": self.delay}

    __repr__ = Event.__repr__


class EventBus:
    """Append-only stream of :class:`Event` (and :class:`TimerEvent`) records.

    Attach one to a world (``World(..., obs=bus)``) before it is built;
    every layer then emits into it.
    """

    def __init__(self):
        self.events: List[Event] = []
        self.run: Optional[str] = None

    # -- emission (the hot path) --------------------------------------------
    def emit(self, t, layer, kind, rank=None, msg=None, detail=None) -> None:
        self.events.append(Event(t, layer, kind, rank, msg, detail, self.run))

    def emit_timer(self, t, kind, delay) -> None:
        """``emit(t, "sim", kind, detail={"delay": delay})``, recorded
        as a :class:`TimerEvent`."""
        self.events.append(TimerEvent(t, kind, delay, self.run))

    @property
    def counters(self) -> CounterRegistry:
        """The census ``{"layer.kind": n}`` of ``events``, counted on read."""
        pairs = Counter((ev.layer, ev.kind) for ev in self.events)
        return CounterRegistry({f"{layer}.{kind}": n for (layer, kind), n in pairs.items()})

    # -- run labelling -------------------------------------------------------
    def set_run(self, label: Optional[str]) -> None:
        """Label subsequent events (multi-world sweeps share one bus)."""
        self.run = label

    # -- merging --------------------------------------------------------------
    def extend(self, events) -> None:
        """Append already-constructed events (their ``run`` labels kept).

        This is how the parallel experiment engine threads per-shard
        event streams back through its merge: each worker records into
        its own bus, the parent ``extend``s the shard streams in
        canonical cell order, and the merged bus is indistinguishable
        from one serial run sharing a single bus.
        """
        self.events.extend(events)

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def by_layer(self, layer: str) -> Iterator[Event]:
        return (e for e in self.events if e.layer == layer)

    def by_kind(self, kind: str) -> Iterator[Event]:
        return (e for e in self.events if e.kind == kind)

    def for_message(self, msg) -> List[Event]:
        return [e for e in self.events if e.msg == msg]

    def clear(self) -> None:
        self.events.clear()
