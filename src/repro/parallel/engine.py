"""Deterministic sharded execution of independent simulation cells.

The engine fans a list of *cells* (see :mod:`repro.parallel.tasks`) out
over forked worker processes and reassembles results in canonical
(submission) order.  The contract every caller relies on:

* **Seed-stable partitioning.**  Shard assignment is a pure function of
  the cell's position — shard ``i`` gets cells ``i, i+W, i+2W, ...`` —
  never of timing or scheduling.  Since every cell builds a fresh
  deterministic world seeded only by its own spec, results cannot
  depend on the shard that ran them; static partitioning makes the
  per-shard accounting reproducible too.
* **Canonical merge.**  ``RunReport.results[i]`` is cell ``i``'s result
  whatever shard produced it, so a forked run is byte-identical to the
  in-process run (the determinism goldens are the oracle — see
  ``tests/parallel/``).
* **Content-addressed caching.**  Unless a cell opts out
  (``"_nocache"``) or the caller disables it, results are stored in the
  :class:`~repro.parallel.cache.ResultCache` keyed by the ``src/repro``
  code digest plus the cell spec; a warm re-run of an unchanged tree
  dispatches zero work.

One process model: each shard is one ``os.fork()`` and one pipe, the
parent only waits.  A worker pickles each cell's outcome down its pipe
the moment it exists and a summary last; the parent multiplexes the
pipes, reaps every worker (so ``RUSAGE_CHILDREN`` counts them) and
merges.  A cell that raises is re-raised in the parent as
:class:`CellError` naming the cell; a worker that dies — end of file
before its summary, a signal, a non-zero exit — is a :class:`CellError`
too, naming the shard, the first cell it had not returned and the
signal, after every result that did arrive has been cached.  Before it
forks the engine imports, once, what the batch will run
(:func:`repro.parallel.tasks.load_for`), so workers import nothing; a
batch too small to repay a fork, and any batch where ``os.fork`` does
not exist, runs in-process through the same code.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.parallel.cache import ResultCache, cell_key
from repro.parallel.tasks import cacheable_spec, freeze_heap, load_for, run_cell

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
    first_cell_s: float = 0.0   #: the shard's first cell — lazy imports show here

    def to_dict(self) -> dict:
        return {
            "shard": self.shard, "cells": self.cells,
            "wall_s": round(self.wall_s, 6), "skipped": self.skipped,
        }


@dataclass
class RunReport:
    """Merged outcome of one engine run."""

    results: List[Any]
    workers: int             #: processes that simulated (1: this one)
    shards: List[ShardReport] = field(default_factory=list)
    cached: int = 0          #: cells answered from the cache
    #: corrupt cache entries moved aside during this run (their cells
    #: were recomputed): :attr:`ResultCache.quarantined`'s increase
    quarantined: int = 0
    executed: int = 0        #: cells actually simulated
    skipped: int = 0         #: cells skipped (budget)
    wall_s: float = 0.0
    gc_s: float = 0.0        #: spent in the cells' exit collections ...
    collections: int = 0     #: ... and how many (``tasks.run_cell``)
    #: high-water RSS of the process that simulated: the largest shard's,
    #: which for an in-process run is this process's own
    peak_rss_mb: float = 0.0
    forks: int = 0           #: worker processes forked (0: in-process)
    load_s: float = 0.0      #: the parent's ``load_for`` before the fork
    #: ``repro.*`` / ``numpy.*`` modules some forked shard still had to
    #: import — ``load_for`` missed them; empty is the contract
    worker_imports: List[str] = field(default_factory=list)
    first_cell_s: float = 0.0    #: the slowest shard's first cell

    def stats_line(self) -> str:
        bits = [f"workers={self.workers}",
                f"cells={len(self.results)}",
                f"cached={self.cached}",
                f"executed={self.executed}"]
        if self.quarantined:
            bits.append(f"quarantined={self.quarantined}")
        if self.skipped:
            bits.append(f"skipped={self.skipped}")
        bits.append(f"wall={self.wall_s:.2f}s")
        bits.append(f"gc={self.gc_s:.2f}s/{self.collections}")
        bits.append(f"rss={self.peak_rss_mb:.0f}MB")
        if self.forks:
            bits.append(f"forks={self.forks}")
            bits.append(f"load={self.load_s:.2f}s")
            bits.append(f"first={self.first_cell_s * 1e3:.0f}ms")
            bits.append(f"imports={len(self.worker_imports)}")
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


class _ShardSummary(NamedTuple):
    """A shard's last word: what it cost, after the outcomes of its cells."""

    wall_s: float
    gc_s: float
    collections: int
    peak_rss_mb: float
    first_cell_s: float
    imports: List[str]      #: stack modules a forked shard had to import


def _run_shard(spec, emit: Callable[[tuple], None]) -> _ShardSummary:
    """Run one shard's cells in order, honouring the budget.  Each cell's
    outcome — ``(index, "ok" | "error" | "skip", payload)`` — is handed
    to *emit* as soon as it exists: in-process that appends to a list, in
    a forked worker it writes to the parent's pipe, so what a worker
    finished before it died is not lost with it."""
    _shard_id, items, budget_s = spec
    t0 = time.monotonic()
    gc_tally = [0.0, 0]  # seconds in, and count of, the cells' exit collections
    first_cell_s = 0.0
    for position, (index, cell) in enumerate(items):
        started = time.monotonic()
        if budget_s is not None and started - t0 > budget_s:
            emit((index, "skip", None))
            continue
        try:
            outcome = (index, "ok", _run_cell_with_retries(cell, gc_tally))
        except Exception as exc:  # noqa: BLE001 - re-raised in the parent
            outcome = (index, "error", f"{type(exc).__name__}: {exc}")
        if position == 0:
            first_cell_s = time.monotonic() - started
        emit(outcome)
    return _ShardSummary(time.monotonic() - t0, gc_tally[0], gc_tally[1],
                         _peak_rss_mb(), first_cell_s, [])


def _stack_modules() -> set:
    """The ``repro`` / ``numpy`` modules imported so far in this process."""
    return {name for name in sys.modules
            if name.startswith(("repro.", "numpy.")) or name in ("repro", "numpy")}


def _fork_shard(spec) -> Tuple[int, int]:
    """Start one shard in a forked worker: ``(pid, read end of its pipe)``.

    The worker writes one pickle per outcome and its summary last, and
    leaves through ``os._exit`` — it never unwinds into the caller's
    stack, runs no ``atexit`` hook and flushes no inherited buffer.
    """
    # imported here, like everything only a fork needs: an in-process
    # batch — and so a fully cached command — never pays for it
    import pickle

    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(wfd)  # before the next fork: only the worker holds a write end
        return pid, rfd
    status = 1
    try:
        os.close(rfd)
        freeze_heap()
        inherited = _stack_modules()

        def emit(message) -> None:
            data = memoryview(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
            while data:
                data = data[os.write(wfd, data):]

        summary = _run_shard(spec, emit)
        emit(summary._replace(imports=sorted(_stack_modules() - inherited)))
        status = 0
    except BaseException:  # noqa: BLE001 - reported, then the worker exits
        import traceback

        traceback.print_exc()
    finally:
        os._exit(status)


def _exit_reason(status: int) -> str:
    """A ``waitpid`` status in words."""
    import signal

    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:
            name = "unknown signal"
        return f"killed by signal {-code} ({name})"
    return f"exit status {code}"


def _run_forked(shard_specs) -> List[Tuple[list, Optional[_ShardSummary], str]]:
    """Fork a worker per shard and wait: per shard, in order, ``(outcomes,
    summary, how it ended)``.  A worker that died has summary None, the
    outcomes it delivered before dying, and the signal or exit status.

    The parent reads all pipes at once (a worker whose pipe filled would
    otherwise stall behind its sibling) and does nothing else; end of
    file on a pipe is that worker gone, however it went, so there is no
    state in which this waits for a dead process.
    """
    import io
    import pickle
    import selectors

    workers: List[Tuple[int, int]] = []
    try:
        for spec in shard_specs:
            workers.append(_fork_shard(spec))
        buffers = {rfd: bytearray() for _, rfd in workers}
        with selectors.DefaultSelector() as pipes:  # after the forks: not inherited
            for rfd in buffers:
                pipes.register(rfd, selectors.EVENT_READ)
            while pipes.get_map():
                for key, _ in pipes.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if chunk:
                        buffers[key.fd] += chunk
                    else:
                        pipes.unregister(key.fd)
    finally:
        # also on the way out of an interrupt or a failed fork: a closed
        # pipe ends a live worker at its next write, and every worker is
        # reaped
        statuses = []
        for pid, rfd in workers:
            os.close(rfd)
            statuses.append(os.waitpid(pid, 0)[1])
    out = []
    for (_, rfd), status in zip(workers, statuses):
        messages = []
        stream = io.BytesIO(buffers[rfd])
        try:
            while True:
                messages.append(pickle.load(stream))
        except (EOFError, pickle.UnpicklingError):  # the end, or a torn last write
            pass
        summary = None
        if status == 0 and messages and isinstance(messages[-1], _ShardSummary):
            summary = messages.pop()
        out.append((messages, summary, _exit_reason(status)))
    return out


#: Fork only when every worker gets at least this many pending cells; a
#: smaller batch uses fewer workers (9 pending cells asked to use 4 use
#: 2) and below two runs in-process.  Measured on the 2-core box that
#: sized the ledger, in a 32 MB parent that has simulated: one more
#: worker costs 3.4-4.6 ms with empty cells (fork, pipe, pickled
#: outcomes, waitpid) and ~6 ms with real ones (first-touch faults on the
#: inherited heap), so two workers put a ~12 ms floor under a batch —
#: eight 0.8 ms ping-pong points are 6 ms in-process — while a cell is
#: 0.8 ms (median sweep point), 2-4 ms (a fuzz run) or 10 ms (a chaos
#: cell): at four cells a worker repays its fork for all but the
#: cheapest kind, below four for none but the dearest.  A constant, not a
#: parameter: nothing a caller knows moves it (docs/PERF.md).
MIN_CELLS_PER_WORKER = 4


def run_cells(
    cells: Sequence[dict],
    workers: Optional[int] = None,
    cache: Union[ResultCache, bool, None] = True,
    budget_s: Optional[float] = None,
) -> RunReport:
    """Run *cells*, possibly in parallel, and merge in canonical order.

    ``workers=None``/``0``/``1`` runs in-process (nothing forked) through
    the exact same cache/merge path, and so does a batch with too few
    pending cells to repay a fork (:data:`MIN_CELLS_PER_WORKER`);
    ``RunReport.workers`` says how many processes simulated.  ``cache``
    may be ``True`` (default location), an explicit :class:`ResultCache`,
    or ``False``/``None`` to disable all cache reads and writes (the
    ``--no-cache`` contract).
    """
    t0 = time.monotonic()
    if cache is True:
        cache = ResultCache()
    elif cache is False:
        cache = None

    n = len(cells)
    results: List[Any] = [SKIPPED] * n

    # cache pass (parent-side): a warm run dispatches no work at all
    pending: List[int] = []
    keys: List[Optional[str]] = [None] * n
    cached = 0
    quarantined = cache.quarantined if cache is not None else 0
    for i, cell in enumerate(cells):
        spec = cacheable_spec(cell) if cache is not None else None
        if spec is not None:
            keys[i] = cell_key(cell["kind"], spec)
            hit, value = cache.get(keys[i])
            if hit:
                results[i] = value
                cached += 1
                continue
        pending.append(i)

    # decided from the batch, after the cache scan: how many workers the
    # pending cells can keep busy, and whether that is worth a fork at all
    workers = min(int(workers or 1), len(pending) // MIN_CELLS_PER_WORKER)
    if workers < 2 or not hasattr(os, "fork"):
        workers = 1
    report = RunReport(results=results, workers=workers, cached=cached)
    if cache is not None:
        report.quarantined = cache.quarantined - quarantined

    shard_specs = [
        (shard_id, [(pending[j], cells[pending[j]]) for j in idxs], budget_s)
        for shard_id, idxs in enumerate(plan_shards(len(pending), workers))
        if idxs
    ]
    if workers == 1:
        shard_outs = []
        for spec in shard_specs:
            outcomes: List[tuple] = []
            summary = _run_shard(spec, outcomes.append)
            shard_outs.append((outcomes, summary, ""))
    else:
        loading = time.monotonic()
        load_for([cells[i] for i in pending])
        report.load_s = time.monotonic() - loading
        shard_outs = _run_forked(shard_specs)
        report.forks = len(shard_specs)

    errors: List[CellError] = []
    worker_imports = set()
    for (shard_id, items, _), (outcomes, summary, ended) in zip(shard_specs, shard_outs):
        ran = skipped = 0
        for index, status, payload in outcomes:
            if status == "skip":
                report.skipped += 1
                skipped += 1
            elif status == "error":
                errors.append(CellError(index, cells[index], payload))
            else:
                results[index] = payload
                report.executed += 1
                ran += 1
                if cache is not None and keys[index] is not None:
                    cache.put(keys[index], cells[index]["kind"],
                              cacheable_spec(cells[index]), payload)
        if summary is None:  # the worker died: name what it still owed
            index = items[min(len(outcomes), len(items) - 1)][0]
            errors.append(CellError(
                index, cells[index],
                f"worker of shard {shard_id} died ({ended}) before returning "
                f"it; {len(outcomes)} of the shard's {len(items)} cells came back"))
            continue
        report.gc_s += summary.gc_s
        report.collections += summary.collections
        report.peak_rss_mb = max(report.peak_rss_mb, summary.peak_rss_mb)
        report.first_cell_s = max(report.first_cell_s, summary.first_cell_s)
        worker_imports.update(summary.imports)
        report.shards.append(
            ShardReport(shard_id, ran, summary.wall_s, skipped, summary.first_cell_s))
    report.worker_imports = sorted(worker_imports)
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
    one set of workers, one merge — with the results sliced back per list.

    Why a command with many independent parts (the figures of a sweep,
    the seeds of a fuzz run) is one batch, not a ``run_cells`` per part:
    a part is tens of milliseconds of simulation, less than a forked
    worker's copy-on-write faults cost, so a fork per part can never pay
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
    ``workers=None`` runs the same cells in-process, nothing forked, and
    the caller decides the cache.  With ``budget_s`` a slice may hold
    :data:`SKIPPED`; only a ``finish`` given a budget has to expect it.
    """
    values, report = run_batches(
        [plan.cells for plan in plans],
        workers=workers, cache=cache, budget_s=budget_s,
    )
    return [plan.finish(vals) for plan, vals in zip(plans, values)], report
