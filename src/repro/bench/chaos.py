"""Chaos harness: sweep fault intensity over MPI workloads.

Each cell of the sweep builds a fresh deterministic world with a seeded
:class:`repro.faults.FaultPlan`, runs a workload, and classifies the
outcome:

* ``ok`` — the job completed; the cell reports simulated time, the
  slowdown versus the fault-free baseline (time-to-recovery cost of the
  retransmissions), and the fabric's fault accounting.
* ``net-error`` — a transport gave up (bounded retransmission
  exhausted) and the failure surfaced with rank context.
* ``deadlock`` — the watchdog diagnosed blocked ranks with no pending
  events and named them.

On the seed revision a lossy run simply hung; every cell now
terminates, which is the point of the harness.

``chaos_sweep`` and ``soak_sweep`` each have one execution path: their
cells as one ``repro.parallel.evaluate`` batch plus a pure finish.
``workers=None`` runs the cells in-process, an integer over a pool; rows
and exported traces are the same either way.

Building a sweep imports no simulator: ``chaos_cell`` and ``soak_cell``
import the MPI library, the fault rules and numpy when they run, so a
sweep answered from the cache loads none of them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import cold_pingpong
from repro.errors import DeadlockError, NetworkError
from repro.parallel import Plan, evaluate, merge_traced

__all__ = [
    "CLUSTER_PLATFORMS",
    "SOAK_CRASH_AT",
    "chaos_cell",
    "chaos_sweep",
    "format_chaos",
    "soak_cell",
    "soak_sweep",
    "format_soak",
]

CLUSTER_PLATFORMS = ("ethernet", "atm")

#: kernel override used by the sweep: fail fast enough that a
#: non-recoverable cell ends in bounded simulated (and wall-clock) time
FAST_FAIL = {"rto": 4_000.0, "rto_max": 64_000.0, "max_retries": 8}


def _kernel_params(network: str, overrides: Optional[dict]):
    from repro.net.kernel import ATM_KERNEL, ETH_KERNEL

    base = ETH_KERNEL if network == "ethernet" else ATM_KERNEL
    return replace(base, **overrides) if overrides else base


def _nbody(nparticles: int, nprocs: int):
    from repro.apps import nbody_ring

    def main(comm):
        _, elapsed = yield from nbody_ring(comm, nparticles=nparticles, seed=0,
                                           flop_time=0.03)
        return elapsed

    return main, nprocs


def _workload(name: str, nprocs: int, nbytes: int, repeats: int):
    if name == "pingpong":
        return cold_pingpong(nbytes, repeats), 2
    if name == "nbody":
        return _nbody(nbytes, nprocs)  # nbytes doubles as the particle count
    raise ValueError(f"unknown chaos workload {name!r}")


def _fabric_counts(world) -> Dict[str, int]:
    fabric = world.platform.machine.fabric
    out = {}
    for prefix in ("frames", "pdus", "packets"):
        for what in ("dropped", "corrupted", "duplicated"):
            n = getattr(fabric, f"{prefix}_{what}", None)
            if n is not None:
                out[what] = n
    return out


def chaos_cell(
    platform: str,
    loss: float,
    workload: str = "pingpong",
    nprocs: int = 2,
    nbytes: int = 256,
    repeats: int = 20,
    seed: int = 1,
    kernel_overrides: Optional[dict] = None,
    obs=None,
) -> Dict:
    """Run one (platform, loss-rate) cell and classify the outcome.

    Pass an :class:`~repro.obs.bus.EventBus` as *obs* to trace the cell;
    its events are labelled ``platform/workload/loss=X`` so several
    cells can share one bus (one exported trace per sweep).
    """
    from repro.faults import FaultPlan, PacketLoss
    from repro.mpi import World
    from repro.mpi.exceptions import CommError

    faults = FaultPlan.of(PacketLoss(probability=loss)) if loss > 0 else None
    main, nprocs = _workload(workload, nprocs, nbytes, repeats)
    if obs is not None:
        obs.set_run(f"{platform}/{workload}/loss={loss:g}")
    world = World(
        nprocs,
        platform=platform,
        faults=faults,
        kernel_params=_kernel_params(platform, kernel_overrides or FAST_FAIL),
        seed=seed,
        obs=obs,
    )
    row: Dict = {
        "platform": platform,
        "workload": workload,
        "loss": loss,
        "outcome": "ok",
        "time_us": None,
        "diagnostic": "",
    }
    try:
        world.run(main)
        row["time_us"] = world.sim.now
    except DeadlockError as e:
        row["outcome"] = "deadlock"
        row["time_us"] = world.sim.now
        row["diagnostic"] = f"stuck ranks {e.stuck_ranks}"
    except (NetworkError, CommError) as e:
        row["outcome"] = "net-error"
        row["time_us"] = getattr(e, "sim_time_us", world.sim.now)
        rank = getattr(e, "mpi_rank", getattr(e, "rank", "?"))
        row["diagnostic"] = f"rank {rank}: {type(e).__name__}"
    row.update(_fabric_counts(world))
    return row


def chaos_sweep(
    platforms: Sequence[str] = CLUSTER_PLATFORMS,
    losses: Sequence[float] = (0.0, 0.01, 0.05, 0.10),
    workloads: Sequence[str] = ("pingpong", "nbody"),
    nbody_particles: int = 16,
    repeats: int = 20,
    seed: int = 1,
    obs=None,
    workers: Optional[int] = None,
    cache=False,
) -> List[Dict]:
    """Full sweep: every (platform, workload, loss) cell + slowdowns.

    The loss=0 cell of each (platform, workload) pair is the baseline;
    completed lossy cells get ``slowdown = time / baseline_time`` (the
    goodput degradation from retransmission and backoff).

    The cells are one engine batch (``workers`` and ``cache`` are
    :func:`repro.parallel.evaluate`'s; None runs them in-process): every
    cell is an independent deterministic world, results merge in sweep
    order, and with *obs* attached each cell's event stream is threaded
    back through the merge — the merged bus (and any trace exported
    from it) does not depend on ``workers``.  Traced cells bypass the
    result cache.
    """
    traced = obs is not None
    cells = [
        {"kind": "chaos_cell", "platform": platform, "workload": workload,
         "loss": loss, "nprocs": 4 if workload == "nbody" else 2,
         "nbytes": nbody_particles if workload == "nbody" else 256,
         "repeats": repeats, "seed": seed, "_trace": traced}
        for platform in platforms
        for workload in workloads
        for loss in losses
    ]

    def finish(results):
        rows = []
        baselines: Dict = {}
        for row in merge_traced(cells, results, obs):
            group = (row["platform"], row["workload"])
            if row["loss"] == 0 and row["outcome"] == "ok":
                baselines[group] = row["time_us"]
            baseline = baselines.get(group)
            if baseline and row["outcome"] == "ok":
                row["slowdown"] = row["time_us"] / baseline
            rows.append(row)
        return rows

    (rows,), _ = evaluate([Plan(cells, finish)], workers=workers, cache=cache)
    return rows


#: default crash time of the soak scenario, per platform.  The pinned
#: instant must land after the first checkpoint commit and before the
#: final (unprotected) gather of the survivable workload — on the
#: modern fabrics the whole job runs in ~90 µs, so the paper-era
#: 900 µs crash would fire after completion and never be recovered.
SOAK_CRASH_AT = {
    "meiko": 900.0, "atm": 900.0, "ethernet": 900.0, "modern": 40.0,
}


# --------------------------------------------------------------- chaos soak
#
# The soak gate: a pinned crash schedule driven through the full ULFM
# recovery path (detect -> revoke -> shrink -> agree -> restart from
# checkpoint) on every platform/device cell.  Each cell must *complete
# with the correct answer* and its recovery event trace must be
# byte-identical across repeated seeded runs — the determinism property
# the FT layer promises.

def _ft_trace_sha(events) -> str:
    """Content hash of the ft-layer slice of an event stream.

    Canonical JSON over ``(t, kind, rank, detail)`` of every ``"ft"``
    event, in emission order.  Two runs of the same seeded cell must
    produce the same digest; two different cells generally do not
    (platform timing differs).
    """
    import hashlib
    import json

    canon = [
        [ev.t, ev.kind, ev.rank, ev.detail]
        for ev in events
        if ev.layer == "ft"
    ]
    material = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


def soak_cell(
    platform: str,
    device: str,
    nprocs: int = 8,
    victim: int = 3,
    crash_at: Optional[float] = None,
    n: int = 64,
    iters: int = 12,
    checkpoint_every: int = 4,
    seed: int = 1,
    obs=None,
) -> Dict:
    """One soak cell: crash *victim* mid-run, recover, verify the answer.

    Runs the survivable ring relaxation (``repro.apps.survivable``) under
    ``World(..., ft=True)`` with a pinned :class:`NodeCrash`, checks the
    survivors' result against the serial reference, and reports the
    recovery timeline plus ``trace_sha`` — the digest of the typed
    ``"ft"`` recovery events (crash/detect/revoke/shrink/agree/
    checkpoint), the determinism witness the sweep compares across
    repeated runs.

    ``crash_at=None`` picks the platform's pinned default from
    :data:`SOAK_CRASH_AT`.
    """
    import numpy as np

    from repro.apps.survivable import reference_relax, survivable_relax
    from repro.faults import FaultPlan, NodeCrash
    from repro.mpi import World
    from repro.mpi.exceptions import CommError
    from repro.obs import EventBus
    from repro.platforms import device_key

    if crash_at is None:
        crash_at = SOAK_CRASH_AT.get(platform, 900.0)
    bus = obs if obs is not None else EventBus()
    if obs is not None:
        obs.set_run(f"soak/{device_key(platform, device)}/crash@{crash_at:g}")
    start = len(bus.events)
    plan = FaultPlan.of(NodeCrash(node=victim, at=crash_at))
    world = World(
        nprocs, platform=platform, device=device, seed=seed,
        faults=plan, ft=True, obs=bus,
    )
    row: Dict = {
        "platform": platform,
        "device": device,
        "cell": device_key(platform, device),
        "outcome": "ok",
        "recoveries": None,
        "survivors": None,
        "time_us": None,
        "timeline": {},
        "diagnostic": "",
    }
    try:
        results = world.run(
            lambda comm: survivable_relax(
                comm, n=n, iters=iters, checkpoint_every=checkpoint_every
            )
        )
        row["time_us"] = world.sim.now
        vecs = [r[0] for r in results if r is not None and r[0] is not None]
        info = next(r[1] for r in results if r is not None)
        row["recoveries"] = info["recoveries"]
        row["survivors"] = info["size"]
        ref = reference_relax(n, iters)
        if len(vecs) != 1 or not np.allclose(vecs[0], ref):
            row["outcome"] = "wrong-answer"
            row["diagnostic"] = f"{len(vecs)} result vectors"
    except DeadlockError as e:
        row["outcome"] = "deadlock"
        row["time_us"] = world.sim.now
        row["diagnostic"] = f"stuck ranks {e.stuck_ranks}"
    except (NetworkError, CommError) as e:
        row["outcome"] = "net-error"
        row["time_us"] = getattr(e, "sim_time_us", world.sim.now)
        rank = getattr(e, "mpi_rank", getattr(e, "rank", "?"))
        row["diagnostic"] = f"rank {rank}: {type(e).__name__}: {e}"
    row["timeline"] = dict(world.ft.timeline)
    row["trace_sha"] = _ft_trace_sha(bus.events[start:])
    tl = row["timeline"]
    if "crash" in tl and "detect" in tl:
        row["detect_us"] = tl["detect"] - tl["crash"]
    if "detect" in tl and "agree" in tl:
        row["recover_us"] = tl["agree"] - tl["detect"]
    return row


def soak_sweep(
    cells=None,
    nprocs: int = 8,
    victim: int = 3,
    crash_at: Optional[float] = None,
    n: int = 64,
    iters: int = 12,
    checkpoint_every: int = 4,
    seed: int = 1,
    repeat: int = 2,
    obs=None,
    workers: Optional[int] = None,
) -> List[Dict]:
    """The chaos-soak gate: the pinned crash scenario on every cell.

    Each (platform, device) cell runs ``repeat`` times; the first run is
    the reported row (and the traced one, when *obs* is attached), and
    every repetition's ``trace_sha`` must match it — the row's
    ``deterministic`` field records the comparison.  The runs are one
    engine batch (``workers=None`` in-process, else over a pool) and are
    never cached: the digest of a fresh run is the whole point.
    """
    from repro.platforms import DEVICE_MATRIX

    cells = list(cells) if cells is not None else list(DEVICE_MATRIX)
    engine_cells = [
        {"kind": "soak_cell", "platform": platform, "device": device,
         "rep": rep, "nprocs": nprocs, "victim": victim, "crash_at": crash_at,
         "n": n, "iters": iters, "checkpoint_every": checkpoint_every,
         "seed": seed, "_nocache": True,
         "_trace": obs is not None and rep == 0}
        for platform, device in cells
        for rep in range(max(1, repeat))
    ]

    def finish(results):
        # fold repetitions: first rep is the row, the rest are witnesses
        rows: List[Dict] = []
        for cell, row in zip(engine_cells,
                             merge_traced(engine_cells, results, obs)):
            if cell["rep"] == 0:
                row["deterministic"] = True
                rows.append(row)
            elif row["trace_sha"] != rows[-1]["trace_sha"]:
                rows[-1]["deterministic"] = False
        return rows

    (rows,), _ = evaluate([Plan(engine_cells, finish)], workers=workers)
    return rows


def format_soak(rows: Sequence[Dict]) -> str:
    """Fixed-width table of a chaos-soak sweep."""
    from repro.bench.tables import format_table

    table = []
    for r in rows:
        t = f"{r['time_us']:.0f}" if r["time_us"] is not None else "-"
        det = f"{r['detect_us']:.0f}" if r.get("detect_us") is not None else "-"
        rec = f"{r['recover_us']:.0f}" if r.get("recover_us") is not None else "-"
        table.append([
            r["cell"], r["outcome"],
            r["recoveries"] if r["recoveries"] is not None else "-",
            r["survivors"] if r["survivors"] is not None else "-",
            det, rec, t,
            "yes" if r.get("deterministic") else "NO",
            r["trace_sha"][:12],
            r["diagnostic"],
        ])
    return format_table(
        ["cell", "outcome", "recov", "ranks", "detect us", "recover us",
         "sim us", "det.", "trace sha", "diagnostic"],
        table,
        title="Chaos soak: pinned mid-run crash through ULFM recovery",
    )


def format_chaos(rows: Sequence[Dict]) -> str:
    """Paper-style fixed-width table of a chaos sweep."""
    from repro.bench.tables import format_table

    table = []
    for r in rows:
        t = f"{r['time_us']:.0f}" if r["time_us"] is not None else "-"
        s = f"{r['slowdown']:.2f}x" if r.get("slowdown") else "-"
        table.append([
            r["platform"], r["workload"], f"{r['loss']:.0%}", r["outcome"],
            t, s, r.get("dropped", 0), r["diagnostic"],
        ])
    return format_table(
        ["platform", "workload", "loss", "outcome", "sim us", "slowdown",
         "dropped", "diagnostic"],
        table,
        title="Chaos sweep: seeded packet loss over MPI workloads",
    )
