"""The pinned seed corpus run in CI (``repro fuzz --corpus ci``).

Every entry is a ``(seed, profile)`` pair; the corpus mixes pure
point-to-point, collective-heavy, mixed, and fault-composed programs.
The seeds are pinned so a CI run is fully reproducible — when a seed
fails, the shrunk repro artifacts say exactly why.  Policy: seeds are
append-only; a failing seed is a bug to fix, never a seed to delete
(see ``docs/TESTING.md``).

``run_corpus`` is the one fuzz runner (``repro fuzz --corpus`` and
``--seed(s)`` both call it): generate the programs, judge them all from
one engine batch (``check_programs`` — the same per-run
``conformance_cell``s whatever ``workers`` is; None runs them
in-process), then print and shrink from the verdicts.  Lines, summary,
reference traces and shrunk artifacts do not depend on ``workers``; with
a cache, a warm re-run of an unchanged tree simulates nothing.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.conformance.executor import check_faulty, check_programs, differential
from repro.conformance.grammar import generate
from repro.conformance.shrink import shrink, write_artifacts

__all__ = ["CI_CORPUS", "run_corpus"]

#: the pinned CI corpus: (seed, profile) — 47 programs mixing
#: point-to-point, collectives, forced collective algorithms,
#: fault-composed, and ULFM-recovery runs
CI_CORPUS: List[Tuple[int, str]] = [
    (1, "mixed"), (2, "mixed"), (3, "mixed"), (4, "mixed"), (5, "mixed"),
    (6, "mixed"), (7, "mixed"), (8, "mixed"),
    (11, "pt2pt"), (12, "pt2pt"), (13, "pt2pt"), (14, "pt2pt"),
    (15, "pt2pt"), (16, "pt2pt"), (17, "pt2pt"), (18, "pt2pt"),
    (21, "collective"), (22, "collective"), (23, "collective"),
    (24, "collective"), (25, "collective"), (26, "collective"),
    (27, "collective"), (28, "collective"),
    (31, "fault"), (32, "fault"), (33, "fault"), (34, "fault"),
    (41, "ft"), (42, "ft"), (43, "ft"), (44, "ft"),
    # forced collective-algorithm programs: every collective carries a
    # style from the repro.mpi.coll registry; the executor also diffs
    # each against a style-stripped reference run.  These seven seeds
    # jointly exercise every registered algorithm of every collective
    (51, "algos"), (58, "algos"), (59, "algos"), (61, "algos"),
    (76, "algos"), (83, "algos"), (88, "algos"),
    # appended with the modern rdma/cxl cells (8-cell matrix): one seed
    # per profile whose differential traces were verified byte-identical
    # across all eight cells, including the RDMA-READ rendezvous and
    # CXL zero-copy handoff paths
    (91, "pt2pt"), (92, "collective"), (93, "mixed"), (94, "fault"),
    (95, "ft"), (96, "algos"),
    # appended with the MPICH tport-probe fix: an arrival lands while the
    # Elan scans the unexpected queue for a probe — both seeds crashed
    # the meiko-mpich cell ("deque mutated during iteration") before it
    (4016, "pt2pt"), (3033, "fault"),
]


def _shrink_failure(program, matrix, failed_fault: bool, shrink_budget: int):
    """Minimise *program* under the verdict it failed: the fault-composed
    one (``differential`` passes for every such candidate) or the
    differential."""

    def still_fails(candidate):
        if failed_fault:
            return candidate.fault is not None and not check_faulty(candidate).ok
        return not differential(candidate, matrix=matrix).ok

    return shrink(program, still_fails, max_evals=shrink_budget)


def run_corpus(
    entries: Optional[Sequence[Tuple[int, str]]] = None,
    nprocs: Optional[int] = None,
    budget_s: Optional[float] = None,
    artifacts_dir: Optional[str] = None,
    out=None,
    matrix=None,
    shrink_budget: int = 120,
    workers: Optional[int] = None,
    cache=False,
) -> dict:
    """Run the corpus; return a summary dict.

    Stops early (and says so) when ``budget_s`` wall-clock seconds run
    out — a budgeted run that found no failure reports how much of the
    corpus it actually covered rather than claiming full coverage; a
    program any of whose runs the budget skipped counts as not run.
    Failures are shrunk and written to ``artifacts_dir`` when given.

    ``workers`` and ``cache`` are :func:`repro.parallel.evaluate`'s: the
    same cells run in-process (None) or over a pool, cache-free unless
    the caller says otherwise.  Beside the counts the summary carries the
    ``verdicts`` (``judge`` pair per entry, None if not run) and the
    engine's ``report``.
    """
    entries = CI_CORPUS if entries is None else list(entries)
    started = time.monotonic()
    programs = [generate(seed, nprocs=nprocs, profile=profile)
                for seed, profile in entries]
    verdicts, report = check_programs(
        programs, matrix=matrix, workers=workers, cache=cache, budget_s=budget_s
    )
    ran, failures, artifacts = 0, [], []
    canons = {}
    for (seed, profile), program, verdict in zip(entries, programs, verdicts):
        if verdict is None:
            continue
        result, fault_result = verdict
        ran += 1
        if result.reference is not None:
            canons[f"{profile}-{seed}"] = result.canons[result.reference]
        # the lossy runs count only once the differential has passed
        failed_fault = (
            result.ok and fault_result is not None and not fault_result.ok
        )
        line = result.summary()
        if failed_fault:
            line = fault_result.summary() + " [fault-composed]"
        if out is not None:
            print(f"[{ran}/{len(entries)}] {profile}: {line}", file=out)
        if result.ok and not failed_fault:
            continue
        failures.append((seed, profile, line))
        if artifacts_dir is not None:
            small = _shrink_failure(program, matrix, failed_fault, shrink_budget)
            artifacts += write_artifacts(
                small, artifacts_dir, label=f"repro_{profile}_seed{seed}"
            )
    summary = {
        "total": len(entries),
        "ran": ran,
        "passed": ran - len(failures),
        "failures": failures,
        "artifacts": artifacts,
        "canons": canons,
        "verdicts": verdicts,
        "report": report,
        "elapsed_s": round(time.monotonic() - started, 2),
        "truncated": ran < len(entries),
    }
    if out is not None:
        status = "FAIL" if failures else "OK"
        note = " (budget exhausted before full corpus)" if summary["truncated"] else ""
        print(
            f"corpus {status}: {summary['passed']}/{ran} passed "
            f"in {summary['elapsed_s']}s{note}",
            file=out,
        )
    return summary
