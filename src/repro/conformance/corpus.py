"""The pinned seed corpus run in CI (``repro fuzz --corpus ci``).

Every entry is a ``(seed, profile)`` pair; the corpus mixes pure
point-to-point, collective-heavy, mixed, and fault-composed programs.
The seeds are pinned so a CI run is fully reproducible — when a seed
fails, the shrunk repro artifacts say exactly why.  Policy: seeds are
append-only; a failing seed is a bug to fix, never a seed to delete
(see ``docs/TESTING.md``).

``run_corpus(workers=N)`` fans the entries out over the parallel
experiment engine (``repro.parallel``): each entry is an independent
deterministic cell, results are merged in corpus order, and the printed
lines, summary, reference traces, and shrunk artifacts are
byte-identical to the serial run.  With the content-addressed result
cache enabled (the default on the engine path), a warm re-run of an
unchanged tree skips every entry.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.conformance.executor import check_faulty, differential
from repro.conformance.grammar import generate
from repro.conformance.shrink import shrink, write_artifacts

__all__ = ["CI_CORPUS", "run_corpus"]

#: the pinned CI corpus: (seed, profile) — 45 programs mixing
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
]


def _shrink_failure(program, matrix, failed_fault: bool, shrink_budget: int):
    """The parent-side shrink predicate — identical for the serial and
    parallel paths, so both produce the same artifacts."""

    def still_fails(candidate):
        if failed_fault:
            return candidate.fault is not None and not check_faulty(candidate).ok
        return not differential(candidate, matrix=matrix).ok

    return shrink(program, still_fails, max_evals=shrink_budget)


def run_corpus(
    entries: Optional[Sequence[Tuple[int, str]]] = None,
    budget_s: Optional[float] = None,
    artifacts_dir: Optional[str] = None,
    out=None,
    matrix=None,
    shrink_budget: int = 120,
    workers: Optional[int] = None,
    use_cache: bool = True,
    cache_root: Optional[str] = None,
) -> dict:
    """Run the corpus; return a summary dict.

    Stops early (and says so) when ``budget_s`` wall-clock seconds run
    out — a budgeted run that found no failure reports how much of the
    corpus it actually covered rather than claiming full coverage.
    Failures are shrunk and written to ``artifacts_dir`` when given.

    ``workers=None`` (the default) is the plain serial loop.  Any
    integer — including 1 — routes through the parallel engine instead,
    with the content-addressed result cache enabled unless
    ``use_cache=False``.  The engine path's printed lines, summary,
    traces, and artifacts are byte-identical to the serial path; the
    summary additionally carries engine statistics.
    """
    entries = CI_CORPUS if entries is None else list(entries)
    started = time.monotonic()
    if workers is not None:
        return _run_corpus_engine(
            entries, started, budget_s, artifacts_dir, out, matrix,
            shrink_budget, workers, use_cache, cache_root,
        )
    ran, failures, artifacts = 0, [], []
    canons = {}
    for seed, profile in entries:
        if budget_s is not None and time.monotonic() - started > budget_s:
            break
        program = generate(seed, profile=profile)
        result = differential(program, matrix=matrix)
        fault_result = None
        if result.ok and program.fault is not None:
            fault_result = check_faulty(program, clean=result.canons)
        ran += 1
        if result.reference is not None:
            canons[f"{profile}-{seed}"] = result.canons[result.reference]
        failed = not result.ok or (fault_result is not None and not fault_result.ok)
        line = result.summary() if not (fault_result and not fault_result.ok) \
            else fault_result.summary() + " [fault-composed]"
        if out is not None:
            print(f"[{ran}/{len(entries)}] {profile}: {line}", file=out)
        if not failed:
            continue
        failures.append((seed, profile, line))
        if artifacts_dir is not None:
            failed_fault = fault_result is not None and not fault_result.ok
            small = _shrink_failure(program, matrix, failed_fault, shrink_budget)
            artifacts += write_artifacts(
                small, artifacts_dir, label=f"repro_{profile}_seed{seed}"
            )
    return _summarize(entries, started, ran, failures, artifacts, canons, out)


def _run_corpus_engine(
    entries, started, budget_s, artifacts_dir, out, matrix,
    shrink_budget, workers, use_cache, cache_root,
):
    from repro.parallel import ResultCache, run_cells
    from repro.parallel.engine import SKIPPED

    cache = ResultCache(cache_root) if use_cache else False
    cells = [
        {"kind": "fuzz_entry", "seed": seed, "profile": profile,
         "matrix": None if matrix is None else [list(p) for p in matrix]}
        for seed, profile in entries
    ]
    report = run_cells(cells, workers=workers, cache=cache, budget_s=budget_s)
    ran, failures, artifacts = 0, [], []
    canons = {}
    for (seed, profile), res in zip(entries, report.results):
        if res is SKIPPED:
            continue
        ran += 1
        if res["canon"] is not None:
            canons[f"{profile}-{seed}"] = res["canon"]
        failed_fault = res["fault_checked"] and not res["fault_ok"]
        failed = not res["ok"] or failed_fault
        line = res["summary"] if not failed_fault \
            else res["fault_summary"] + " [fault-composed]"
        if out is not None:
            print(f"[{ran}/{len(entries)}] {profile}: {line}", file=out)
        if not failed:
            continue
        failures.append((seed, profile, line))
        if artifacts_dir is not None:
            program = generate(seed, profile=profile)
            small = _shrink_failure(program, matrix, failed_fault, shrink_budget)
            artifacts += write_artifacts(
                small, artifacts_dir, label=f"repro_{profile}_seed{seed}"
            )
    summary = _summarize(entries, started, ran, failures, artifacts, canons, out)
    summary["engine"] = {
        "workers": report.workers,
        "cached": report.cached,
        "executed": report.executed,
        "skipped": report.skipped,
        "shards": [s.to_dict() for s in report.shards],
    }
    return summary


def _summarize(entries, started, ran, failures, artifacts, canons, out) -> dict:
    summary = {
        "total": len(entries),
        "ran": ran,
        "passed": ran - len(failures),
        "failures": failures,
        "artifacts": artifacts,
        "canons": canons,
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
