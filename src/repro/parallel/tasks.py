"""The cell-kind registry: what a worker actually runs.

A *cell* is a plain JSON dict describing one independent simulation —
``{"kind": "<task name>", ...parameters...}``.  Cells are the unit of
sharding, caching, and merging: pure data in, a JSON-serializable result
out, with the simulation seeded entirely by the cell spec so the result
never depends on which shard (or process) ran it.

Cells with a truthy ``"_nocache"`` field bypass the result cache — used
for wall-clock measurements (kernel perf) — and so do cells that capture
a trace (``"_trace"``): they return live :class:`~repro.obs.bus.Event`
objects.  Underscore keys are stripped before cache-key computation so
neither ever changes a cell's content address.

A cell is also a *memory region* (:func:`run_cell`): pure data in and a
plain result out means that everything else the cell allocated — its
world, cyclic from end to end — is dead the moment it returns, so the
cyclic collector is paused while the cell runs and asked for exactly one
collection as it leaves.  This is the only module in ``src/repro`` that
touches :mod:`gc` (docs/PERF.md, "Where a wide world's time goes").

Importing this module loads no simulator: a task imports what it runs
when it runs, so a process pays for the machines, stacks and devices of
the cells it executes and for nothing else.  The one exception is made on
purpose and once per command: before the engine forks, :func:`load_for`
imports in the parent what the batch's pending cells will import, so no
worker imports anything (docs/PERF.md, "The parallel experiment engine").
"""

from __future__ import annotations

import gc
import time
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "TASKS", "task", "run_cell", "load_for", "freeze_heap",
    "cacheable_spec", "merge_traced",
]

TASKS: Dict[str, Callable[[dict], Any]] = {}


def task(name: str, *needs):
    """Register a top-level cell function under *name*.

    *needs* is what a cell of this kind imports while it runs, stated
    beside the function that does the importing: a module name, or a
    callable ``cell -> module names`` where it depends on the cell (its
    platform and device, its fault spec).  Running a cell never reads
    them — the imports stay lazy, in the function — only :func:`load_for`
    does; ``tests/parallel/test_load_once.py`` fails for a kind whose
    forked worker still had something left to import.
    """
    def register(fn):
        fn.needs = needs
        TASKS[name] = fn
        return fn
    return register


def load_for(cells: Sequence[dict]) -> None:
    """Import, here and now, everything *cells* would import on the way
    to their results.

    The engine calls this once per command, in the parent, when it is
    about to fork: the workers then inherit every module their shard
    touches instead of each importing them again (43-150 ms per worker,
    against 2-4 ms for a cell).  It is driven by the batch — the needs
    of the task kinds present, the ``repro.platforms.DEVICE_CLASSES``
    rows of the cells present — so a Meiko-only sweep never loads the
    TCP stack.  An unknown kind, platform or workload loads nothing:
    running the cell is what reports it.
    """
    seen = set()
    for cell in cells:
        for need in getattr(TASKS.get(cell.get("kind")), "needs", ()):
            for name in (need,) if isinstance(need, str) else need(cell):
                if name not in seen:
                    seen.add(name)
                    import_module(name)


def freeze_heap() -> None:
    """At a forked worker's entry: move everything inherited from the
    parent into the permanent generation.  The worker's full collections
    (one cell exit in ~100) then neither traverse the inherited heap nor
    write into its pages, which under fork would copy them."""
    gc.freeze()


def run_cell(cell: dict, tally: Optional[list] = None) -> Any:
    """Execute one cell (in whatever process this is called from) as a
    memory region.

    Automatic collection is off while the cell runs: a live world is
    thousands of long-lived, mutually referencing objects, and every
    generational pass re-traverses them to free nothing (a fault-free
    run creates no cyclic garbage — ``tests/sim/test_acyclic.py``).  On
    the way out, returning or raising, the previous enabled/disabled
    state is restored and the one collection the generational counters
    call for is run: the oldest generation whose count has reached its
    threshold, else the youngest — which at that instant holds what the
    cell allocated and left behind, so a world is traversed once, when
    it dies.  Asking the counters (not a fixed generation) keeps the
    older generations on their usual cadence, cells standing in for
    allocations: always collecting generation 0 would starve them.

    *tally*, if given, is ``[seconds, collections]`` and is bumped by the
    exit collection (the engine sums it into ``RunReport.gc_s``).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return TASKS[cell["kind"]](cell)
    finally:
        counts, thresholds = gc.get_count(), gc.get_threshold()
        generation = max(
            (gen for gen in (1, 2) if counts[gen] >= thresholds[gen]), default=0)
        t0 = time.perf_counter()
        gc.collect(generation)
        if tally is not None:
            tally[0] += time.perf_counter() - t0
            tally[1] += 1
        # only now: with the young generation this far over its threshold
        # the next allocation would run a second, automatic collection
        if was_enabled:
            gc.enable()


def cacheable_spec(cell: dict):
    """The cache-key material of a cell: underscore keys stripped.
    Returns None when the cell opts out of caching."""
    if cell.get("_nocache") or cell.get("_trace"):
        return None
    return {k: v for k, v in cell.items() if not k.startswith("_")}


# -------------------------------------------------------------- trace capture
def _traced(cell, run, label: Optional[str] = None):
    """``run(obs)``'s value — or, when the cell asks for a trace
    (``_trace``), ``{"row": value, "events": [...]}``: the run gets a
    fresh bus (labelled *label*) and its live events ride along."""
    if not cell.get("_trace"):
        return run(None)
    from repro.obs import EventBus

    bus = EventBus()
    bus.set_run(label)
    return {"row": run(bus), "events": bus.events}


def merge_traced(cells, values, bus) -> List:
    """The plain values of *cells*; every traced cell's event stream is
    appended to *bus* on the way, in cell order — so the merged bus (and
    any trace exported from it) never depends on ``workers``."""
    rows = []
    for cell, value in zip(cells, values):
        if cell.get("_trace"):
            bus.extend(value["events"])
            value = value["row"]
        rows.append(value)
    return rows


# ------------------------------------------------------- figure sweep points
_HARNESS = "repro.bench.harness"


def _world_modules(platform, device=None):
    """What building a ``World`` on (*platform*, *device*) imports: the
    MPI library, and the machine and endpoint modules its row of
    ``repro.platforms.DEVICE_CLASSES`` names."""
    from repro.platforms import device_modules

    return ("repro.mpi",) + device_modules(platform, device)


def _world(cell):
    return _world_modules(cell.get("platform"), cell.get("device"))


def _device_config(cell):
    """Rebuild the cell's device-config dataclass from its plain dict.

    The config class follows the cell's device: figure sweeps override
    per-device knobs (e.g. a forced ``eager_threshold``) and the cells
    must round-trip through the engine's JSON-ish cell spec.
    """
    cfg = cell.get("config")
    if not cfg:
        return None
    device = cell.get("device")
    if device == "rdma":
        from repro.mpi.device.rdma import RdmaConfig

        return RdmaConfig(**cfg)
    if device == "cxl":
        from repro.mpi.device.cxl import CxlConfig

        return CxlConfig(**cfg)
    from repro.mpi.device.lowlatency import LowLatencyConfig

    return LowLatencyConfig(**cfg)


@task("pingpong_rtt", _HARNESS, _world)
def _pingpong_rtt(cell):
    from repro.bench import harness

    return _traced(cell, lambda obs: harness.mpi_pingpong_rtt(
        cell["platform"], cell["device"], cell["nbytes"],
        repeats=cell.get("repeats", 3),
        device_config=_device_config(cell), obs=obs,
    ), "pingpong/{platform}/{device}/{nbytes}B".format(**cell))


@task("bandwidth", _HARNESS, _world)
def _bandwidth(cell):
    from repro.bench import harness

    return harness.mpi_bandwidth(cell["platform"], cell["device"], cell["nbytes"])


@task("tport_rtt", _HARNESS, "repro.hw.meiko")
def _tport_rtt(cell):
    from repro.bench import harness

    return harness.tport_rtt(cell["nbytes"])


@task("tport_bandwidth", _HARNESS, "repro.hw.meiko")
def _tport_bandwidth(cell):
    from repro.bench import harness

    return harness.tport_bandwidth(cell["nbytes"])


@task("raw_rtt", _HARNESS, "repro.hw.cluster")
def _raw_rtt(cell):
    from repro.bench import harness

    return harness.raw_stream_rtt(
        cell["network"], cell["transport"], cell["nbytes"],
        repeats=cell.get("repeats", 3),
    )


@task("raw_bandwidth", _HARNESS, "repro.hw.cluster")
def _raw_bandwidth(cell):
    from repro.bench import harness

    return harness.raw_stream_bandwidth(
        cell["network"], cell["transport"], cell["nbytes"]
    )


@task("fore_rtt", _HARNESS, "repro.hw.cluster")
def _fore_rtt(cell):
    from repro.bench import harness

    return harness.fore_rtt(cell["nbytes"])


@task("app_time", "repro.apps", "numpy.random", _world)
def _app_time(cell):
    from repro import apps
    from repro.mpi import World

    app = getattr(apps, cell["app"])
    kwargs = cell.get("kwargs") or {}

    def main(comm):
        _, elapsed = yield from app(comm, **kwargs)
        return elapsed

    world = World(cell["nprocs"], platform=cell["platform"], device=cell["device"])
    return max(world.run(main))


@task("app_verified", _HARNESS, "repro.apps", "numpy.random", _world)
def _app_verified(cell):
    """``repro app``: ``{"elapsed", "ok"}`` — rank 0's answer is checked
    against the serial reference here, so it dies with the world."""
    from repro.bench import harness

    return _traced(cell, lambda obs: harness.app_verified(
        cell["app"], cell["platform"], cell["device"], cell["nprocs"],
        cell["n"], obs=obs,
    ), "app/{app}/{platform}/{device}".format(**cell))


@task("phases_table", _HARNESS, "repro.obs", _world)
def _phases_table(cell):
    """``repro phases``: the Table-1 phase breakdown of one cold
    ping-pong, rendered.  The ledger needs the events either way; they
    ride along only when asked for."""
    from repro.bench import harness
    from repro.mpi import World
    from repro.obs import EventBus, PhaseLedger

    def run(obs):
        bus = obs if obs is not None else EventBus()
        World(2, platform=cell["platform"], device=cell["device"], obs=bus).run(
            harness.cold_pingpong(cell["nbytes"]))
        return PhaseLedger.from_bus(bus).table()

    return _traced(cell, run, "phases/{platform}/{device}/{nbytes}B".format(**cell))


# ------------------------------------------------------------ chaos scenarios
def _chaos_workload(cell):
    """The n-body workload runs an application; the ping-pong does not."""
    return ("repro.apps", "numpy.random") if cell.get("workload") == "nbody" else ()


@task("chaos_cell", "repro.bench.chaos", _world, _chaos_workload)
def _chaos_cell(cell):
    from repro.bench.chaos import chaos_cell

    return _traced(cell, lambda obs: chaos_cell(
        cell["platform"], cell["loss"], workload=cell["workload"],
        nprocs=cell["nprocs"], nbytes=cell["nbytes"],
        repeats=cell["repeats"], seed=cell["seed"], obs=obs,
    ))


@task("soak_cell", "repro.bench.chaos", "repro.apps.survivable", "repro.mpi.ft",
      "repro.obs", _world)
def _soak_cell(cell):
    """One chaos-soak cell: pinned crash through ULFM recovery.

    Never cached (``soak_sweep`` sets ``_nocache``): the digest of a
    fresh run is the determinism evidence the gate compares.
    """
    from repro.bench.chaos import soak_cell

    return _traced(cell, lambda obs: soak_cell(
        cell["platform"], cell["device"], nprocs=cell["nprocs"],
        victim=cell["victim"], crash_at=cell["crash_at"], n=cell["n"],
        iters=cell["iters"], checkpoint_every=cell["checkpoint_every"],
        seed=cell["seed"], obs=obs,
    ))


# ----------------------------------------------------- conformance/fuzz cells
def _program_ft(cell):
    """A crash-recovery program runs under ``World(ft=True)``."""
    return ("repro.mpi.ft",) if cell.get("program", {}).get("ft") else ()


@task("conformance_cell", "repro.conformance.interpreter", _world, _program_ft)
def _conformance_cell(cell):
    from repro.conformance.executor import run_conformance_cell

    return run_conformance_cell(cell)


# ------------------------------------------------------- kernel perf workload
def _workload_world(cell):
    from repro.bench.kernel_perf import WORLD_CELLS

    where = WORLD_CELLS.get(cell.get("name"))
    return _world_modules(*where) if where else ()


@task("kernel_workload", "repro.bench.kernel_perf", _HARNESS, "repro.apps",
      "numpy.random", _workload_world)
def _kernel_workload(cell):
    """One timed run — a cell per repeat (``kernel_perf.plan``), so the
    region never holds more than one dead world."""
    from repro.bench.kernel_perf import time_workload

    return time_workload(cell["name"], cell["quick"])


# ------------------------------------------------------------------ self-test
@task("_selftest")
def _selftest(cell):
    """Deterministic toy cell for the engine's own tests: no simulation,
    just a digest of the spec (plus an optional busy-loop)."""
    import hashlib
    import json as _json

    spin = cell.get("spin", 0)
    acc = 0
    for i in range(spin):
        acc += i
    material = _json.dumps(cacheable_spec(cell) or cell, sort_keys=True)
    return {"digest": hashlib.sha256(material.encode()).hexdigest()[:16],
            "acc": acc}


@task("_flaky_selftest")
def _flaky_selftest(cell):
    """Self-test cell that fails its first ``_fail_times`` attempts.

    Attempts are counted in the scratch file named by ``_counter`` so
    the count survives retries inside forked workers.  Every knob is an
    underscore key, so the success value is exactly the ``_selftest``
    digest of the visible spec — a retried run merges byte-identical to
    a run that never flaked.  Used only by the engine's retry tests.
    """
    import os

    fails = int(cell.get("_fail_times", 0) or 0)
    if fails:
        path = cell["_counter"]
        with open(path, "a") as fh:
            fh.write("x")
        if os.path.getsize(path) <= fails:
            raise RuntimeError("transient selftest failure")
    return _selftest(cell)
