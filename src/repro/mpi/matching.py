"""The receive-side matching engine: posted and unexpected queues.

MPI matching semantics, as exercised by the paper:

* a receive names (source | ANY_SOURCE, tag | ANY_TAG, communicator);
* messages of one (sender, communicator) pair are matched in send order
  (non-overtaking);
* matching behaves as a FIFO scan of the queues, which — combined with
  in-order envelope delivery per sender — yields the required
  semantics;
* unexpected-queue capacity is finite; exceeding it raises
  :class:`ResourceExhausted` (the Burns & Daoud overflow report)
  rather than silently dropping envelopes.

The engine is transport-agnostic: it is shared by the low-latency Meiko
device and the TCP/UDP devices (all of which match on the main
processor).  The MPICH device instead delegates matching to the
Elan-side tport widget.

Implementation: both queues are hash-bucketed by ``(context, source,
tag)`` so the common concrete-key cases match in O(1) instead of
scanning; wildcard receives fall back to a FIFO scan of the global
insertion-order list.  Entries are tombstoned (``alive`` flag) on
consumption and compacted lazily.  The bucketing is a simulator-side
speedup only — the ``comparisons`` count returned to callers is still
the exact number of queue entries the paper's FIFO-scan implementation
would have inspected, because that count feeds the simulated matching
cost (``match_cost + match_per_comparison * ...``) and must not drift.
A miss costs the live queue length (O(1) from a counter); a hit counts
live entries up to the match (a short walk — FIFO matching finds its
match near the head).

Both FIFOs are data-dependent (a rank that never receives early never
has an unexpected arrival), so they start as the shared
:data:`repro.sim.EMPTY` and become deques at their first append.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, INTERNAL_TAG_BASE
from repro.mpi.envelope import Envelope
from repro.mpi.exceptions import ResourceExhausted
from repro.mpi.request import Request
from repro.sim import EMPTY

__all__ = ["Arrival", "MatchQueues"]


@dataclass
class Arrival:
    """An envelope (plus any eager payload) awaiting a matching receive."""

    envelope: Envelope
    #: eager payload bytes; None for a rendezvous envelope (data follows
    #: only after the match, via the device's claim hook)
    data: Optional[bytes] = None
    #: device hook used to fetch rendezvous data once matched
    claim: Any = None


class _Entry:
    """One queue slot: the item, its FIFO stamp, and a tombstone flag."""

    __slots__ = ("item", "stamp", "alive")

    def __init__(self, item, stamp: int):
        self.item = item
        self.stamp = stamp
        self.alive = True


#: compact a FIFO once it carries this many tombstones (and they
#: outnumber the live entries)
_COMPACT_DEAD = 64


class MatchQueues:
    """Posted-receive and unexpected-message queues for one endpoint."""

    def __init__(self, max_unexpected: int = 4096):
        self.max_unexpected = max_unexpected
        #: totals for diagnostics/tests
        self.total_arrivals = 0
        self.total_posts = 0
        self._stamp = 0
        # posted receives: global FIFO + (context, source, tag) buckets;
        # wildcards are part of the key (an ANY_* receive lands in an
        # ANY bucket, checked alongside the concrete one on arrival)
        self._posted_fifo: Sequence[_Entry] = EMPTY
        self._posted_buckets: Dict[Tuple[int, int, int], Deque[_Entry]] = {}
        self._posted_live = 0
        self._posted_by_req: Dict[int, _Entry] = {}
        # unexpected arrivals: global FIFO + concrete (context, src, tag)
        # buckets (envelope keys are always concrete)
        self._unexp_fifo: Sequence[_Entry] = EMPTY
        self._unexp_buckets: Dict[Tuple[int, int, int], Deque[_Entry]] = {}
        self._unexp_live = 0

    # -- live views (tests and diagnostics iterate these) -------------------
    @property
    def posted(self) -> List[Request]:
        """Live posted receives in FIFO order."""
        return [e.item for e in self._posted_fifo if e.alive]

    @property
    def unexpected(self) -> List[Arrival]:
        """Live unexpected arrivals in FIFO order."""
        return [e.item for e in self._unexp_fifo if e.alive]

    # -- matching rules -----------------------------------------------------
    @staticmethod
    def _request_accepts(req: Request, env: Envelope) -> bool:
        return env.matches(
            source=req.peer,
            tag=req.tag,
            context=req.comm.context_id,
            any_source=ANY_SOURCE,
            any_tag=ANY_TAG,
        )

    # -- internals ----------------------------------------------------------
    @staticmethod
    def _bucket_head(bucket: Optional[Deque[_Entry]]) -> Optional[_Entry]:
        """First live entry of a bucket, pruning dead ones off its head."""
        if bucket is None:
            return None
        while bucket:
            e = bucket[0]
            if e.alive:
                return e
            bucket.popleft()
        return None

    @staticmethod
    def _prune_bucket(
        buckets: Dict[Tuple[int, int, int], Deque[_Entry]],
        key: Tuple[int, int, int],
    ) -> None:
        """Drop dead entries off *key*'s bucket head and delete the
        bucket once empty.

        Collective traffic makes this matter at scale: every collective
        call runs on a fresh tag generation, i.e. a fresh bucket key, so
        without eager deletion a long-running rank accretes one empty
        deque per collective ever performed — O(calls) dict growth for
        O(1) live state.  Called at every match consumption so the
        bucket dicts stay proportional to *live* entries.
        """
        bucket = buckets.get(key)
        if bucket is None:
            return
        while bucket and not bucket[0].alive:
            bucket.popleft()
        if not bucket:
            del buckets[key]

    @staticmethod
    def _scan_count(fifo: Deque[_Entry], entry: _Entry) -> int:
        """Entries a FIFO scan would inspect to find *entry* (inclusive).

        Prunes dead entries off the FIFO head as a side effect.
        """
        while fifo and not fifo[0].alive:
            fifo.popleft()
        n = 0
        for e in fifo:
            if e is entry:
                return n + 1
            if e.alive:
                n += 1
        raise AssertionError("matched entry not in its FIFO")  # pragma: no cover

    @staticmethod
    def _compact(
        fifo: Deque[_Entry],
        buckets: Dict[Tuple[int, int, int], Deque[_Entry]],
        live: int,
    ) -> Deque[_Entry]:
        dead = len(fifo) - live
        if dead <= _COMPACT_DEAD or dead <= live:
            return fifo
        for key in list(buckets):
            kept = deque(e for e in buckets[key] if e.alive)
            if kept:
                buckets[key] = kept
            else:
                del buckets[key]
        return deque(e for e in fifo if e.alive)

    # -- operations ---------------------------------------------------------
    def post(self, req: Request) -> Tuple[Optional[Arrival], int]:
        """Post a receive; returns (matched arrival or None, comparisons).

        On a match the arrival is consumed; otherwise the request joins
        the posted queue.
        """
        self.total_posts += 1
        match: Optional[_Entry] = None
        if self._unexp_live:
            src, tag, ctx = req.peer, req.tag, req.comm.context_id
            if src != ANY_SOURCE and tag != ANY_TAG:
                match = self._bucket_head(self._unexp_buckets.get((ctx, src, tag)))
            else:
                # wildcard receive: FIFO-order scan of the global list
                for e in self._unexp_fifo:
                    if not e.alive:
                        continue
                    env = e.item.envelope
                    if env.context != ctx:
                        continue
                    if src != ANY_SOURCE and env.src != src:
                        continue
                    if tag != ANY_TAG:
                        if env.tag != tag:
                            continue
                    elif env.tag >= INTERNAL_TAG_BASE:
                        continue  # ANY_TAG never steals internal traffic
                    match = e
                    break
        if match is not None:
            comparisons = self._scan_count(self._unexp_fifo, match)
            match.alive = False
            self._unexp_live -= 1
            menv = match.item.envelope
            self._prune_bucket(
                self._unexp_buckets, (menv.context, menv.src, menv.tag)
            )
            self._unexp_fifo = self._compact(
                self._unexp_fifo, self._unexp_buckets, self._unexp_live
            )
            return match.item, comparisons
        comparisons = self._unexp_live  # a scan would have inspected them all
        entry = _Entry(req, self._stamp)
        self._stamp += 1
        fifo = self._posted_fifo
        if fifo is EMPTY:
            fifo = self._posted_fifo = deque()
        fifo.append(entry)
        key = (req.comm.context_id, req.peer, req.tag)
        bucket = self._posted_buckets.get(key)
        if bucket is None:
            bucket = self._posted_buckets[key] = deque()
        bucket.append(entry)
        self._posted_by_req[id(req)] = entry
        self._posted_live += 1
        return None, comparisons

    def arrive(self, arrival: Arrival) -> Tuple[Optional[Request], int]:
        """Deliver an envelope; returns (matched request or None, comparisons).

        On a match the posted request is consumed; otherwise the arrival
        joins the unexpected queue (subject to the resource limit).
        """
        self.total_arrivals += 1
        env = arrival.envelope
        ctx, src, tag = env.context, env.src, env.tag
        match: Optional[_Entry] = None
        if self._posted_live:
            # FIFO order over the union of the candidate buckets: the
            # earliest-posted receive that accepts this envelope wins
            buckets = self._posted_buckets
            keys = [(ctx, src, tag), (ctx, ANY_SOURCE, tag)]
            if tag < INTERNAL_TAG_BASE:  # ANY_TAG never matches internal tags
                keys += [(ctx, src, ANY_TAG), (ctx, ANY_SOURCE, ANY_TAG)]
            for key in keys:
                e = self._bucket_head(buckets.get(key))
                if e is not None and (match is None or e.stamp < match.stamp):
                    match = e
        if match is not None:
            comparisons = self._scan_count(self._posted_fifo, match)
            req = match.item
            match.alive = False
            self._posted_live -= 1
            del self._posted_by_req[id(req)]
            self._prune_bucket(
                self._posted_buckets,
                (req.comm.context_id, req.peer, req.tag),
            )
            self._posted_fifo = self._compact(
                self._posted_fifo, self._posted_buckets, self._posted_live
            )
            return req, comparisons
        comparisons = self._posted_live  # a scan would have inspected them all
        if self._unexp_live >= self.max_unexpected:
            raise ResourceExhausted(
                f"unexpected-message queue overflow (limit {self.max_unexpected}); "
                f"offending envelope: {arrival.envelope}"
            )
        entry = _Entry(arrival, self._stamp)
        self._stamp += 1
        fifo = self._unexp_fifo
        if fifo is EMPTY:
            fifo = self._unexp_fifo = deque()
        fifo.append(entry)
        key = (ctx, src, tag)
        bucket = self._unexp_buckets.get(key)
        if bucket is None:
            bucket = self._unexp_buckets[key] = deque()
        bucket.append(entry)
        self._unexp_live += 1
        return None, comparisons

    def probe(self, source: int, tag: int, context: int) -> Optional[Arrival]:
        """First unexpected arrival matching (source, tag, context), not consumed."""
        if not self._unexp_live:
            return None
        if source != ANY_SOURCE and tag != ANY_TAG:
            e = self._bucket_head(self._unexp_buckets.get((context, source, tag)))
            return e.item if e is not None else None
        for e in self._unexp_fifo:
            if e.alive and e.item.envelope.matches(
                source, tag, context, ANY_SOURCE, ANY_TAG
            ):
                return e.item
        return None

    def cancel_post(self, req: Request) -> bool:
        """Remove a posted receive (True if it was still queued)."""
        entry = self._posted_by_req.pop(id(req), None)
        if entry is None:
            return False
        entry.alive = False
        self._posted_live -= 1
        self._prune_bucket(
            self._posted_buckets, (req.comm.context_id, req.peer, req.tag)
        )
        self._posted_fifo = self._compact(
            self._posted_fifo, self._posted_buckets, self._posted_live
        )
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MatchQueues posted={self._posted_live} "
            f"unexpected={self._unexp_live}>"
        )
