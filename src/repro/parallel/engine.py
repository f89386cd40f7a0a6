"""Deterministic sharded execution of independent simulation cells.

The engine fans a list of *cells* (see :mod:`repro.parallel.tasks`) out
over a ``multiprocessing`` pool and reassembles results in canonical
(submission) order.  The contract every caller relies on:

* **Seed-stable partitioning.**  Shard assignment is a pure function of
  the cell's position — shard ``i`` gets cells ``i, i+W, i+2W, ...`` —
  never of timing or pool scheduling.  Since every cell builds a fresh
  deterministic world seeded only by its own spec, results cannot
  depend on the shard that ran them; static partitioning makes the
  per-shard accounting reproducible too.
* **Canonical merge.**  ``RunReport.results[i]`` is cell ``i``'s result
  whatever shard produced it, so a pool run is byte-identical to the
  in-process run (the determinism goldens are the oracle — see
  ``tests/parallel/``).
* **Content-addressed caching.**  Unless a cell opts out
  (``"_nocache"``) or the caller disables it, results are stored in the
  :class:`~repro.parallel.cache.ResultCache` keyed by the ``src/repro``
  code digest plus the cell spec; a warm re-run of an unchanged tree
  dispatches zero work.

Workers are forked when the platform supports it (cheap, inherits the
imported simulator) and spawned otherwise; cells and results only need
to be picklable.  A worker exception is captured per cell and re-raised
in the parent as :class:`CellError` naming the cell.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.parallel.cache import ResultCache, cell_key
from repro.parallel.tasks import cacheable_spec, run_cell

__all__ = [
    "SKIPPED",
    "CellError",
    "ShardReport",
    "RunReport",
    "plan_shards",
    "retry_backoff_s",
    "run_cells",
    "run_batches",
    "Plan",
    "evaluate",
]


class _Skipped:
    """Sentinel for cells not run (wall-clock budget exhausted)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<SKIPPED>"


SKIPPED = _Skipped()


class CellError(RuntimeError):
    """A worker raised while executing a cell."""

    def __init__(self, index: int, cell: dict, message: str):
        super().__init__(f"cell {index} ({cell.get('kind')}): {message}")
        self.index = index
        self.cell = cell


@dataclass
class ShardReport:
    """Per-shard accounting, emitted into BENCH output by the callers."""

    shard: int
    cells: int
    wall_s: float
    skipped: int = 0

    def to_dict(self) -> dict:
        return {
            "shard": self.shard, "cells": self.cells,
            "wall_s": round(self.wall_s, 6), "skipped": self.skipped,
        }


@dataclass
class RunReport:
    """Merged outcome of one engine run."""

    results: List[Any]
    workers: int
    shards: List[ShardReport] = field(default_factory=list)
    cached: int = 0          #: cells answered from the cache
    executed: int = 0        #: cells actually simulated
    skipped: int = 0         #: cells skipped (budget)
    wall_s: float = 0.0
    gc_s: float = 0.0        #: spent in the cells' exit collections ...
    collections: int = 0     #: ... and how many (``tasks.run_cell``)
    #: high-water RSS of the process that simulated: the largest shard's,
    #: which for an in-process run is this process's own
    peak_rss_mb: float = 0.0

    def stats_line(self) -> str:
        bits = [f"workers={self.workers}",
                f"cells={len(self.results)}",
                f"cached={self.cached}",
                f"executed={self.executed}"]
        if self.skipped:
            bits.append(f"skipped={self.skipped}")
        bits.append(f"wall={self.wall_s:.2f}s")
        bits.append(f"gc={self.gc_s:.2f}s/{self.collections}")
        bits.append(f"rss={self.peak_rss_mb:.0f}MB")
        shards = " ".join(
            f"shard{s.shard}:{s.cells}c/{s.wall_s:.2f}s" for s in self.shards
        )
        return "parallel: " + " ".join(bits) + (f" [{shards}]" if shards else "")


def plan_shards(n: int, workers: int) -> List[List[int]]:
    """Round-robin cell indices over *workers* shards (seed-stable)."""
    workers = max(1, workers)
    return [list(range(shard, n, workers)) for shard in range(workers)]


#: per-attempt backoff for ``_retries`` cells: 50 ms, 100 ms, 200 ms, ...
#: capped at 1 s — deterministic (attempt-indexed, no jitter source)
RETRY_BACKOFF_BASE_S = 0.05
RETRY_BACKOFF_CAP_S = 1.0


def retry_backoff_s(attempt: int) -> float:
    """Seconds to wait before retry *attempt* (1-based): capped doubling."""
    return min(RETRY_BACKOFF_BASE_S * (2 ** (attempt - 1)), RETRY_BACKOFF_CAP_S)


def _run_cell_with_retries(cell, tally):
    """Run one cell, honouring its opt-in ``_retries`` budget.

    ``{"_retries": N}`` grants N extra attempts after a worker exception,
    each preceded by a deterministic capped backoff, so one transiently
    flaky cell (an OOM-killed fork, a full /tmp) doesn't abort a
    multi-hour sweep.  The key is underscore-prefixed: retry policy is an
    execution detail, never part of the content address, and a cell that
    eventually succeeds returns the same value it would have serially —
    every attempt rebuilds the same deterministic world from the spec.
    Exhausting the budget re-raises the last exception, annotated with
    the attempt count for the parent's :class:`CellError`.
    """
    retries = int(cell.get("_retries", 0) or 0)
    attempt = 0
    while True:
        try:
            return run_cell(cell, tally)
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            attempt += 1
            if attempt > retries:
                if retries:
                    exc.args = (
                        f"{exc.args[0] if exc.args else exc} "
                        f"[failed {attempt}x, retries exhausted]",
                    ) + exc.args[1:]
                raise
            time.sleep(retry_backoff_s(attempt))


def _peak_rss_mb() -> float:
    """This process's high-water RSS (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_shard(spec):
    """Worker entry: run one shard's cells in order, honouring the budget."""
    shard_id, items, budget_s = spec
    t0 = time.monotonic()
    out = []
    gc_tally = [0.0, 0]  # seconds in, and count of, the cells' exit collections
    for index, cell in items:
        if budget_s is not None and time.monotonic() - t0 > budget_s:
            out.append((index, "skip", None))
            continue
        started = time.monotonic()
        try:
            value = _run_cell_with_retries(cell, gc_tally)
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            out.append((index, "error", f"{type(exc).__name__}: {exc}"))
            continue
        out.append((index, "ok", (value, time.monotonic() - started)))
    return shard_id, out, time.monotonic() - t0, gc_tally, _peak_rss_mb()


def _pool_context():
    import multiprocessing  # here: an in-process batch never pays for it

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context("spawn")


def run_cells(
    cells: Sequence[dict],
    workers: Optional[int] = None,
    cache: Union[ResultCache, bool, None] = True,
    budget_s: Optional[float] = None,
) -> RunReport:
    """Run *cells*, possibly in parallel, and merge in canonical order.

    ``workers=None``/``0``/``1`` runs in-process (no pool) through the
    exact same cache/merge path.  ``cache`` may be ``True`` (default
    location), an explicit :class:`ResultCache`, or ``False``/``None``
    to disable all cache reads and writes (the ``--no-cache`` contract).
    """
    t0 = time.monotonic()
    workers = max(1, int(workers or 1))
    if cache is True:
        cache = ResultCache()
    elif cache is False:
        cache = None

    n = len(cells)
    results: List[Any] = [SKIPPED] * n
    report = RunReport(results=results, workers=workers)

    # cache pass (parent-side): a warm run dispatches no work at all
    pending: List[int] = []
    keys: List[Optional[str]] = [None] * n
    for i, cell in enumerate(cells):
        spec = cacheable_spec(cell) if cache is not None else None
        if spec is not None:
            keys[i] = cell_key(cell["kind"], spec)
            hit, value = cache.get(keys[i])
            if hit:
                results[i] = value
                report.cached += 1
                continue
        pending.append(i)

    shard_specs = []
    for shard_id, idxs in enumerate(plan_shards(len(pending), workers)):
        items = [(pending[j], cells[pending[j]]) for j in idxs]
        if items:
            shard_specs.append((shard_id, items, budget_s))
    if workers == 1 or len(shard_specs) <= 1:
        shard_outs = [_run_shard(spec) for spec in shard_specs]
    else:
        with _pool_context().Pool(processes=len(shard_specs)) as pool:
            shard_outs = pool.map(_run_shard, shard_specs)

    errors: List[CellError] = []
    for shard_id, out, shard_wall, (gc_s, collections), rss_mb in shard_outs:
        report.gc_s += gc_s
        report.collections += collections
        report.peak_rss_mb = max(report.peak_rss_mb, rss_mb)
        ran = skipped = 0
        for index, status, payload in out:
            if status == "skip":
                report.skipped += 1
                skipped += 1
            elif status == "error":
                errors.append(CellError(index, cells[index], payload))
            else:
                value, _cell_wall = payload
                results[index] = value
                report.executed += 1
                ran += 1
                if cache is not None and keys[index] is not None:
                    cache.put(keys[index], cells[index]["kind"],
                              cacheable_spec(cells[index]), value)
        report.shards.append(ShardReport(shard_id, ran, shard_wall, skipped))
    if not shard_outs:  # fully cached: nothing simulated, the reader's own
        report.peak_rss_mb = _peak_rss_mb()
    report.wall_s = time.monotonic() - t0
    if errors:
        raise errors[0]
    return report


def run_batches(
    batches: Sequence[Sequence[dict]], **kwargs
) -> Tuple[List[List[Any]], RunReport]:
    """Several cell lists as **one** :func:`run_cells` — one cache scan,
    one pool, one merge — with the results sliced back per list.

    Why a command with many independent parts (the figures of a sweep,
    the seeds of a fuzz run) is one batch, not a ``run_cells`` per part:
    a part is tens of milliseconds of simulation, less than a forked
    worker's copy-on-write faults cost, so a pool per part can never pay
    (docs/PERF.md).  Keyword arguments are ``run_cells``'s.
    """
    report = run_cells([cell for batch in batches for cell in batch], **kwargs)
    values = iter(report.results)
    return [[next(values) for _ in batch] for batch in batches], report


class Plan(NamedTuple):
    """One unit of a command, unevaluated — a figure, a fuzz program, a
    sweep: which cells, and what their values mean."""

    cells: List[dict]
    finish: Callable[[List], Any]   #: pure: the cells' values, in order -> result


def evaluate(
    plans: Sequence[Plan],
    workers: Optional[int] = None,
    cache: Union[ResultCache, bool, None] = False,
    budget_s: Optional[float] = None,
) -> Tuple[List[Any], RunReport]:
    """Run the cells of every plan as one :func:`run_batches` and finish
    each plan on its slice: ``([result per plan], RunReport)``.

    The one execution path of every ``--workers``-capable command:
    ``workers=None`` runs the same cells in-process with no pool, and
    the caller decides the cache.  With ``budget_s`` a slice may hold
    :data:`SKIPPED`; only a ``finish`` given a budget has to expect it.
    """
    values, report = run_batches(
        [plan.cells for plan in plans],
        workers=workers, cache=cache, budget_s=budget_s,
    )
    return [plan.finish(vals) for plan, vals in zip(plans, values)], report
