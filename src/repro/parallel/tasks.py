"""The cell-kind registry: what a worker actually runs.

A *cell* is a plain JSON dict describing one independent simulation —
``{"kind": "<task name>", ...parameters...}``.  Cells are the unit of
sharding, caching, and merging: pure data in, a JSON-serializable result
out, with the simulation seeded entirely by the cell spec so the result
never depends on which shard (or process) ran it.

Cells with a truthy ``"_nocache"`` field bypass the result cache — used
for wall-clock measurements (kernel perf) and for cells that return live
:class:`~repro.obs.bus.Event` objects (trace capture).  Underscore keys
are stripped before cache-key computation so ``_nocache`` never changes
a cell's content address.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

__all__ = ["TASKS", "task", "run_cell", "cacheable_spec"]

TASKS: Dict[str, Callable[[dict], Any]] = {}


def task(name: str):
    """Register a top-level cell function under *name*."""
    def register(fn):
        TASKS[name] = fn
        return fn
    return register


def run_cell(cell: dict) -> Any:
    """Execute one cell (in whatever process this is called from)."""
    return TASKS[cell["kind"]](cell)


def cacheable_spec(cell: dict):
    """The cache-key material of a cell: underscore keys stripped.
    Returns None when the cell opts out of caching."""
    if cell.get("_nocache"):
        return None
    return {k: v for k, v in cell.items() if not k.startswith("_")}


# ------------------------------------------------------- figure sweep points
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


@task("pingpong_rtt")
def _pingpong_rtt(cell):
    from repro.bench import harness

    return harness.mpi_pingpong_rtt(
        cell["platform"], cell["device"], cell["nbytes"],
        device_config=_device_config(cell),
    )


@task("bandwidth")
def _bandwidth(cell):
    from repro.bench import harness

    return harness.mpi_bandwidth(cell["platform"], cell["device"], cell["nbytes"])


@task("tport_rtt")
def _tport_rtt(cell):
    from repro.bench import harness

    return harness.tport_rtt(cell["nbytes"])


@task("tport_bandwidth")
def _tport_bandwidth(cell):
    from repro.bench import harness

    return harness.tport_bandwidth(cell["nbytes"])


@task("raw_rtt")
def _raw_rtt(cell):
    from repro.bench import harness

    return harness.raw_stream_rtt(cell["network"], cell["transport"], cell["nbytes"])


@task("raw_bandwidth")
def _raw_bandwidth(cell):
    from repro.bench import harness

    return harness.raw_stream_bandwidth(
        cell["network"], cell["transport"], cell["nbytes"]
    )


@task("fore_rtt")
def _fore_rtt(cell):
    from repro.bench import harness

    return harness.fore_rtt(cell["nbytes"])


@task("app_time")
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


# ------------------------------------------------------------ chaos scenarios
def _traced(cell, run):
    """``run(obs)``'s row — with a fresh bus, and its live events riding
    along, when the cell asks for a trace (``_trace``)."""
    if not cell.get("_trace"):
        return {"row": run(None)}
    from repro.obs import EventBus

    bus = EventBus()
    return {"row": run(bus), "events": bus.events}


@task("chaos_cell")
def _chaos_cell(cell):
    from repro.bench.chaos import chaos_cell

    return _traced(cell, lambda obs: chaos_cell(
        cell["platform"], cell["loss"], workload=cell["workload"],
        nprocs=cell["nprocs"], nbytes=cell["nbytes"],
        repeats=cell["repeats"], seed=cell["seed"], obs=obs,
    ))


@task("soak_cell")
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
@task("conformance_cell")
def _conformance_cell(cell):
    from repro.conformance.executor import run_conformance_cell

    return run_conformance_cell(cell)


# ------------------------------------------------------- kernel perf workload
@task("kernel_workload")
def _kernel_workload(cell):
    from repro.bench.kernel_perf import run_workload

    return run_workload(
        cell["name"], quick=cell["quick"], repeats=cell["repeats"]
    )


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
