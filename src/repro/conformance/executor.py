"""Differential execution: run a generated program on every device and
extract a device-independent *semantic trace*.

What a rank records into the trace is
:mod:`repro.conformance.interpreter`'s business; this module runs a
program on one cell (``run_program``), says which runs a verdict needs
(``cells``) and what their results mean (``judge``).  Two runs agree iff
their canonical JSON traces are byte-identical; latency differences
between devices never enter the trace.

Planning and judging import no simulator — the interpreter, numpy and
the MPI library load inside ``run_program`` — so a fuzz command whose
runs are all cached never loads them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.conformance.grammar import Program
from repro.errors import ConfigurationError
from repro.parallel import SKIPPED, Plan, evaluate

if TYPE_CHECKING:
    from repro.mpi import World

__all__ = [
    "run_program",
    "canonical_trace",
    "cells",
    "judge",
    "check_programs",
    "differential",
    "check_faulty",
    "DifferentialResult",
    "FAULT_PLATFORMS",
]

#: platforms where lossy runs recover (RUDP/TCP retransmission); the
#: Meiko has no retransmit path, so fault-composed runs are cluster-only
FAULT_PLATFORMS = ("atm", "ethernet")


# ------------------------------------------------------------------ running
def run_program(
    program: Program,
    platform: str,
    device: str,
    fault: bool = False,
    world_mutator: Optional[Callable[[World], None]] = None,
    limit: float = 2e9,
) -> dict:
    """Execute *program* on (platform, device); return its semantic trace.

    With ``fault=True`` the program's fault spec is applied (cluster
    platforms only — the Meiko has no retransmission path) with a
    retransmit-friendly kernel timer, exactly like the chaos harness.
    """
    from repro.conformance.interpreter import rank_main
    from repro.mpi import World

    faults = None
    kw: Dict[str, Any] = {}
    seed = 0
    if fault:
        if program.fault is None:
            raise ConfigurationError("program has no fault spec")
        if platform not in FAULT_PLATFORMS:
            raise ConfigurationError(
                f"fault-composed runs need a cluster platform, not {platform!r}"
            )
        from repro.faults import FaultPlan, PacketDuplication, PacketLoss
        from repro.net.kernel import KernelParams

        spec = program.fault
        rules = [PacketLoss(probability=spec["loss"])]
        if spec.get("dup"):
            rules.append(PacketDuplication(probability=spec["dup"]))
        faults = FaultPlan.of(*rules)
        kw["kernel_params"] = KernelParams().with_overrides(rto=8_000.0)
        seed = spec.get("seed", 0)
    if program.ft is not None:
        from repro.faults import FaultPlan, NodeCrash

        faults = FaultPlan.of(NodeCrash(
            node=program.ft["victim"], at=program.ft.get("at", 0.0)
        ))
        kw["ft"] = True
    world = World(
        program.nprocs, platform=platform, device=device, seed=seed,
        faults=faults, **kw,
    )
    if world_mutator is not None:
        world_mutator(world)
    recs: List[List[dict]] = [[] for _ in range(program.nprocs)]

    def main(comm):
        yield from rank_main(comm, program, recs[comm.rank])

    world.run(main, limit=limit)
    return {"nprocs": program.nprocs, "seed": program.seed, "ranks": recs}


def canonical_trace(trace: dict) -> str:
    """Canonical JSON — byte-identical iff the semantics agree."""
    return json.dumps(trace, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------- differential
def _strip_styles(spec: dict) -> Optional[dict]:
    """*spec* (a ``Program.to_dict()``) with every forced collective
    ``style`` removed, or None when no round carries one.

    Algorithm styles must never change a collective's *result* — the
    fuzzer's payloads are exact-arithmetic, so a styled program and its
    stripped twin (running the device/selector defaults) must produce
    byte-identical semantic traces.
    """
    if not any("style" in rnd for rnd in spec["rounds"]):
        return None
    return {**spec, "rounds": [
        {k: v for k, v in rnd.items() if k != "style"} for rnd in spec["rounds"]
    ]}


@dataclass
class DifferentialResult:
    """Outcome of one program across the device matrix."""

    program: Program
    ok: bool
    reference: Optional[str] = None            #: "platform-device" key
    canons: Dict[str, str] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    mismatched: List[str] = field(default_factory=list)

    def summary(self) -> str:
        if self.ok:
            return f"seed {self.program.seed}: OK ({len(self.canons)} devices agree)"
        parts = []
        if self.mismatched:
            parts.append(f"mismatch on {', '.join(self.mismatched)}")
        for key, err in self.errors.items():
            parts.append(f"{key}: {err}")
        return f"seed {self.program.seed}: FAIL ({'; '.join(parts)})"


# Every run a verdict needs is one ``conformance_cell`` of the parallel
# engine (pure data in, ``{"canon"}`` or ``{"error"}`` out), named by a
# run key: ``"platform-device"`` for a matrix run, ``STYLED`` for the
# style-stripped twin, ``"fault:platform-device"`` for a lossy run and
# ``"clean:platform-device"`` for the fault-free run it is compared with
# when the matrix did not run that cell.  ``cells`` says which runs,
# ``judge`` says what their results mean; every caller but the mutation
# tests (in-process world hooks) has the engine execute them in between.
STYLED = "styled-reference"


def run_conformance_cell(
    cell: dict, world_mutator: Optional[Callable[[World], None]] = None
) -> dict:
    """Execute one ``conformance_cell``: ``{"canon": ...}``, or
    ``{"error": "TypeName: message"}`` — any failure is a finding.

    A lossy (``fault``) run that fails also says whether the failure is
    the *documented* one (``CommError`` / ``RetransmitExhausted`` or a
    subclass): the exception type does not survive the process
    boundary, so its classification crosses it as data.
    """
    from repro.errors import RetransmitExhausted
    from repro.mpi.exceptions import CommError

    fault = cell.get("fault", False)
    try:
        trace = run_program(
            Program.from_dict(cell["program"]), cell["platform"], cell["device"],
            fault=fault, world_mutator=world_mutator,
        )
        return {"canon": canonical_trace(trace)}
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        out: Dict[str, Any] = {"error": f"{type(exc).__name__}: {exc}"}
        if fault:
            out["documented"] = isinstance(exc, (CommError, RetransmitExhausted))
        return out


def _cell(spec: dict, platform: str, device: str, **extra) -> dict:
    return {"kind": "conformance_cell", "program": spec,
            "platform": platform, "device": device, **extra}


def _differential_cells(spec: dict, matrix) -> Dict[str, dict]:
    """The matrix runs, plus the style-stripped twin on ``matrix[0]``
    when the program forces collective algorithms."""
    from repro.platforms import DEVICE_MATRIX, device_key

    matrix = DEVICE_MATRIX if matrix is None else matrix
    plan = {device_key(p, d): _cell(spec, p, d) for p, d in matrix}
    stripped = _strip_styles(spec)
    if stripped is not None and plan:
        plan[STYLED] = _cell(stripped, *matrix[0])
    return plan


def _fault_cells(spec: dict, have) -> Dict[str, dict]:
    """The lossy run on each cluster cell, plus the fault-free run it is
    compared with wherever *have* does not already hold that cell's."""
    from repro.platforms import PLATFORM_DEVICES, device_key

    plan: Dict[str, dict] = {}
    for platform in FAULT_PLATFORMS:
        for device in PLATFORM_DEVICES[platform]:
            key = device_key(platform, device)
            if key not in have:
                plan["clean:" + key] = _cell(spec, platform, device)
            plan["fault:" + key] = _cell(spec, platform, device, fault=True)
    return plan


def cells(
    program: Program, matrix: Optional[Sequence[Tuple[str, str]]] = None
) -> Dict[str, dict]:
    """Every run the full verdict on *program* needs, as an ordered
    ``{run key: engine cell}`` mapping — ready for one ``run_cells``.

    The lossy runs are included speculatively (``judge`` callers ignore
    them when the differential fails) so a whole command is one batch;
    they reuse the matrix's own fault-free runs, and only a cluster cell
    a restricted *matrix* leaves out is simulated fault-free again.
    """
    spec = program.to_dict()
    plan = _differential_cells(spec, matrix)
    if program.fault is not None:
        plan.update(_fault_cells(spec, have=plan))
    return plan


def judge(
    program: Program, results: Dict[str, dict]
) -> Tuple[DifferentialResult, Optional[DifferentialResult]]:
    """The verdicts on *program* given its runs' results by run key:
    ``(differential, fault-composed or None)``.

    *Differential*: every matrix run must produce the byte-identical
    semantic trace (the first that ran is the reference), and the
    style-stripped twin must equal it too — forcing an algorithm must
    not change semantics.  *Fault-composed* (None without lossy runs): a
    lossy run must converge to the fault-free trace of the same cell or
    fail the documented way.  The only place either is decided.
    """
    runs: Dict[str, Dict[str, dict]] = {"": {}, "clean": {}, "fault": {}}
    for key, res in results.items():
        role, _, cell = key.rpartition(":")
        runs[role][cell] = res
    styled = runs[""].pop(STYLED, None)

    canons: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    for key, res in runs[""].items():
        if "error" in res:
            errors[key] = res["error"]
        else:
            canons[key] = res["canon"]
    reference = next(iter(canons), None)
    mismatched = [
        key for key, canon in canons.items() if canon != canons[reference]
    ]
    if styled is not None and reference is not None and not mismatched:
        if "error" in styled:
            errors[STYLED] = styled["error"]
        elif styled["canon"] != canons[reference]:
            mismatched.append(STYLED)
    verdict = DifferentialResult(
        program=program, ok=not errors and not mismatched and bool(canons),
        reference=reference, canons=canons, errors=errors, mismatched=mismatched,
    )
    if not runs["fault"]:
        return verdict, None

    clean: Dict[str, str] = {}
    fault_errors: Dict[str, str] = {}
    fault_mismatched: List[str] = []
    for key, lossy in runs["fault"].items():
        res = runs["clean"].get(key) or runs[""][key]
        if "error" in res:  # no fault-free trace to converge to
            fault_errors[key] = res["error"]
            continue
        clean[key] = res["canon"]
        if "error" in lossy:
            if not lossy["documented"]:
                fault_errors[key] = lossy["error"]
        elif lossy["canon"] != clean[key]:
            fault_mismatched.append(key)
    return verdict, DifferentialResult(
        program=program,
        ok=not fault_errors and not fault_mismatched and bool(clean),
        reference=next(iter(clean), None), canons=clean,
        errors=fault_errors, mismatched=fault_mismatched,
    )


def _plan(program: Program, runs: Dict[str, dict], have: Optional[dict] = None):
    """The engine plan of some of *program*'s runs: their cells, and a
    finish that judges the results (beside those already in *have*).
    A run the wall-clock budget skipped leaves the program unjudged
    (None) — never judged on a partial result."""
    def finish(values):
        if any(value is SKIPPED for value in values):
            return None
        return judge(program, {**(have or {}), **dict(zip(runs, values))})

    return Plan(list(runs.values()), finish)


def check_programs(
    programs: Sequence[Program],
    matrix: Optional[Sequence[Tuple[str, str]]] = None,
    workers: Optional[int] = None,
    cache=False,
    budget_s: Optional[float] = None,
):
    """Judge every program from **one** engine batch (see :func:`cells`).
    Returns ``([judge(...) pair per program], RunReport)``; the pair is
    None for a program the ``budget_s`` wall-clock budget cut short.
    ``workers``/``cache`` are :func:`repro.parallel.evaluate`'s."""
    return evaluate(
        [_plan(program, cells(program, matrix)) for program in programs],
        workers=workers, cache=cache, budget_s=budget_s,
    )


def differential(
    program: Program,
    matrix: Optional[Sequence[Tuple[str, str]]] = None,
    mutators: Optional[Dict[str, Callable[[World], None]]] = None,
) -> DifferentialResult:
    """Run *program* on every (platform, device) of *matrix*, in-process,
    and demand byte-identical semantic traces (see :func:`judge`;
    :func:`check_programs` is the sharded, cached, many-program form).

    ``mutators`` maps "platform-device" keys to world mutation hooks —
    used by the mutation tests to verify a deliberately broken device is
    caught; they are in-process callables, so such a run executes the
    same cells without the engine.
    """
    runs = _differential_cells(program.to_dict(), matrix)
    if mutators:
        return judge(program, {
            key: run_conformance_cell(cell, mutators.get(key))
            for key, cell in runs.items()
        })[0]
    (verdict,), _ = evaluate([_plan(program, runs)])
    return verdict[0]


def check_faulty(
    program: Program, clean: Optional[Dict[str, str]] = None
) -> DifferentialResult:
    """Fault-composed mode: a lossy run must converge to the fault-free
    semantic trace or raise the documented ``CommError`` /
    ``RetransmitExhausted``.  Restricted to the cluster fabrics, where
    RUDP/TCP recovery is deterministic.

    *clean* is the fault-free canons already in hand by cell key
    (``differential(program).canons``); a cluster cell it lacks — a
    restricted matrix, or no differential at all — is simulated here.
    """
    have = {key: {"canon": canon} for key, canon in (clean or {}).items()}
    runs = _fault_cells(program.to_dict(), have=have)
    (verdict,), _ = evaluate([_plan(program, runs, have)])
    return verdict[1]
