"""Execution timelines: who was inside MPI when.

A :class:`Timeline` holds (rank, call, start, end) spans and renders
them as an ASCII Gantt chart — rank per row, ``#`` where the rank sat
inside an MPI call, ``.`` where it computed.  The classic way to *see*
load imbalance and communication phases::

    bus = EventBus()
    World(4, platform="meiko", obs=bus).run(main)
    print(Timeline.from_bus(bus).render())

    rank 0 |####....####....####|
    rank 1 |..####....####....##|

:meth:`Timeline.from_bus` folds the ``call.enter``/``call.exit`` events
a traced world's communicators emit; ``Timeline(spans)`` takes
synthetic spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = ["Span", "Timeline"]


@dataclass(frozen=True)
class Span:
    """One MPI call's occupancy on one rank."""

    rank: int
    call: str
    start: float
    end: float

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self.start}..{self.end}")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """A per-rank occupancy chart over a list of spans."""

    def __init__(self, spans: Iterable[Span] = ()):
        self.spans: List[Span] = list(spans)

    @classmethod
    def from_bus(cls, bus) -> "Timeline":
        """Each world rank's outermost MPI calls on *bus*: a call made
        inside another (a blocking send's isend/wait, a collective's
        point-to-point steps) is part of its caller's span."""
        open_calls: Dict[tuple, list] = {}  # (run, rank) -> call.enter stack
        spans = []
        for ev in bus.events:
            if ev.layer != "mpi" or ev.kind not in ("call.enter", "call.exit"):
                continue
            stack = open_calls.setdefault((ev.run, ev.rank), [])
            if ev.kind == "call.enter":
                stack.append(ev)
                continue
            enter = stack.pop()
            if not stack:
                spans.append(Span(ev.rank, enter.detail["call"], enter.t, ev.t))
        return cls(spans)

    # -- analysis ------------------------------------------------------------
    def ranks(self) -> List[int]:
        return sorted({s.rank for s in self.spans})

    def mpi_time(self, rank: int) -> float:
        """Total µs rank spent inside MPI (a rank's spans never overlap:
        only its outermost calls are spans)."""
        return sum(s.duration for s in self.spans if s.rank == rank)

    def busiest_call(self, rank: int) -> Optional[str]:
        totals: Dict[str, float] = {}
        for s in self.spans:
            if s.rank == rank:
                totals[s.call] = totals.get(s.call, 0.0) + s.duration
        if not totals:
            return None
        return max(totals, key=totals.get)

    # -- rendering -------------------------------------------------------------
    def render(self, width: int = 72, t0: Optional[float] = None,
               t1: Optional[float] = None) -> str:
        """ASCII Gantt: ``#`` inside MPI, ``.`` outside."""
        spans = self.spans
        if not spans:
            return "(no spans recorded)"
        lo = min(s.start for s in spans) if t0 is None else t0
        hi = max(s.end for s in spans) if t1 is None else t1
        span = (hi - lo) or 1.0
        lines = []
        for rank in self.ranks():
            row = ["."] * width
            for s in spans:
                if s.rank != rank:
                    continue
                a = int((max(s.start, lo) - lo) / span * (width - 1))
                b = int((min(s.end, hi) - lo) / span * (width - 1))
                for i in range(max(0, a), min(width, b + 1)):
                    row[i] = "#"
            pct = 100.0 * self.mpi_time(rank) / span
            lines.append(f"rank {rank:>2} |{''.join(row)}| {pct:5.1f}% in MPI")
        lines.append(f"        {lo:.1f} us".ljust(width // 2) + f"{hi:.1f} us".rjust(width // 2))
        return "\n".join(lines)
