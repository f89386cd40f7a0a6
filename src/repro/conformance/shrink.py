"""Delta-debugging minimizer for failing conformance programs.

Given a failing program and a ``check(program) -> bool`` predicate
(True = still failing), :func:`shrink` greedily applies reduction
passes — drop rounds, drop transfers, collapse repetitions, shrink
payloads, simplify strategies and wildcards — keeping every candidate
that still fails and still validates, until a fixpoint or the
evaluation budget is reached.  :func:`write_artifacts` saves the
minimized program as JSON plus a standalone replay script.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Callable, List, Optional

from repro.conformance.grammar import Program, validate

__all__ = ["shrink", "repro_script", "write_artifacts"]


def _clone(program: Program) -> Program:
    return Program.from_dict(copy.deepcopy(program.to_dict()))


def _candidates(program: Program) -> List[Program]:
    """One-step reductions of *program*, most aggressive first."""
    out: List[Program] = []
    nrounds = len(program.rounds)
    # drop a contiguous half, then single rounds
    if nrounds > 1:
        half = nrounds // 2
        for lo, hi in ((0, half), (half, nrounds)):
            cand = _clone(program)
            del cand.rounds[lo:hi]
            out.append(cand)
    for i in range(nrounds):
        if nrounds > 1:
            cand = _clone(program)
            del cand.rounds[i]
            out.append(cand)
    # drop individual transfers
    for i, rnd in enumerate(program.rounds):
        if rnd.kind != "exchange":
            continue
        for j in range(len(rnd.transfers)):
            cand = _clone(program)
            del cand.rounds[i].transfers[j]
            if not cand.rounds[i].transfers:
                del cand.rounds[i]
                if not cand.rounds:
                    continue
            out.append(cand)
    # simplify in place: reps, payloads, strategies, wildcards, kinds
    for i, rnd in enumerate(program.rounds):
        if rnd.kind == "exchange":
            for j, t in enumerate(rnd.transfers):
                if t.reps > 1:
                    cand = _clone(program)
                    cand.rounds[i].transfers[j].reps = t.reps - 1
                    out.append(cand)
                if t.nelems > 1:
                    cand = _clone(program)
                    cand.rounds[i].transfers[j].nelems = max(1, t.nelems // 4)
                    out.append(cand)
                if t.send_kind != "isend":
                    cand = _clone(program)
                    cand.rounds[i].transfers[j].send_kind = "isend"
                    out.append(cand)
                if t.any_source or t.any_tag:
                    cand = _clone(program)
                    cand.rounds[i].transfers[j].any_source = False
                    cand.rounds[i].transfers[j].any_tag = False
                    out.append(cand)
                if t.persistent_recv:
                    cand = _clone(program)
                    cand.rounds[i].transfers[j].persistent_recv = False
                    out.append(cand)
            if any(s != "waitall" for s in rnd.strategies.values()):
                cand = _clone(program)
                cand.rounds[i].strategies = {
                    r: "waitall" for r in rnd.strategies
                }
                out.append(cand)
        elif rnd.kind == "pingpong":
            if rnd.use_probe:
                cand = _clone(program)
                cand.rounds[i].use_probe = False
                cand.rounds[i].probe_any_tag = False
                out.append(cand)
            if rnd.nbytes > 1:
                cand = _clone(program)
                cand.rounds[i].nbytes = max(1, rnd.nbytes // 4)
                out.append(cand)
        elif rnd.kind == "collective":
            if rnd.op == "reduce_scatter":
                if rnd.nelems > program.nprocs:
                    cand = _clone(program)
                    cand.rounds[i].nelems = program.nprocs
                    out.append(cand)
            elif rnd.nelems > 1:
                cand = _clone(program)
                cand.rounds[i].nelems = 1
                out.append(cand)
    # drop the fault spec last — a failure that needs it keeps it
    if program.fault is not None:
        cand = _clone(program)
        cand.fault = None
        out.append(cand)
    return out


def shrink(
    program: Program,
    check: Callable[[Program], bool],
    max_evals: int = 250,
) -> Program:
    """Minimize *program* while ``check`` keeps failing.

    ``check`` must return True for the *original* program (still
    failing); the result is the smallest still-failing, still-valid
    program found within ``max_evals`` check evaluations.
    """
    current = program
    evals = 0
    improved = True
    while improved and evals < max_evals:
        improved = False
        for cand in _candidates(current):
            if evals >= max_evals:
                break
            if validate(cand):
                continue
            evals += 1
            try:
                failing = check(cand)
            except Exception:  # noqa: BLE001 - a crashing candidate still fails
                failing = True
            if failing and cand.op_count() <= current.op_count():
                current = cand
                improved = True
                break
    return current


def repro_script(program: Program) -> str:
    """A standalone replay script for a (shrunk) failing program."""
    blob = json.dumps(program.to_dict(), indent=2, sort_keys=True)
    return f'''#!/usr/bin/env python
"""Replay a shrunk conformance failure (seed {program.seed}).

Run with:  PYTHONPATH=src python <this file>
"""
import json

from repro.conformance.executor import check_faulty, differential
from repro.conformance.grammar import Program

PROGRAM = Program.from_dict(json.loads(r"""
{blob}
"""))

result = differential(PROGRAM)
print(result.summary())
ok = result.ok
if PROGRAM.fault is not None:
    fault_result = check_faulty(PROGRAM)
    print("fault-composed:", fault_result.summary())
    ok = ok and fault_result.ok
raise SystemExit(0 if ok else 1)
'''


def write_artifacts(
    program: Program, directory: str, label: Optional[str] = None
) -> List[str]:
    """Write ``<label>.json`` and ``<label>.py`` under *directory*."""
    os.makedirs(directory, exist_ok=True)
    label = label or f"repro_seed{program.seed}"
    json_path = os.path.join(directory, f"{label}.json")
    py_path = os.path.join(directory, f"{label}.py")
    with open(json_path, "w") as fh:
        json.dump(program.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(py_path, "w") as fh:
        fh.write(repro_script(program))
    return [json_path, py_path]
