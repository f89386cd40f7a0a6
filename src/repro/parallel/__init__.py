"""Parallel experiment engine: sharded multi-process sweeps with a
content-addressed result cache.

Every headline artifact of this reproduction — figure latency curves,
chaos sweeps, the fuzz corpus, the conformance device matrix, the
kernel perf suite — is a set of independent single-process simulations.
:func:`~repro.parallel.engine.run_cells` fans those *cells* out over
forked workers with seed-stable partitioning and a canonical-order merge
that is byte-identical to the serial run; the
:class:`~repro.parallel.cache.ResultCache` skips unchanged cells
entirely on re-runs (keyed by the ``src/repro`` code digest + cell
spec).  See ``docs/PERF.md`` for the worker model, cache layout, and
determinism contract.
"""

from repro.parallel.cache import ResultCache, cell_key, code_digest
from repro.parallel.engine import (
    SKIPPED,
    CellError,
    Plan,
    RunReport,
    ShardReport,
    evaluate,
    plan_shards,
    run_batches,
    run_cells,
)
from repro.parallel.tasks import TASKS, load_for, merge_traced, run_cell, task

__all__ = [
    "ResultCache",
    "cell_key",
    "code_digest",
    "SKIPPED",
    "CellError",
    "RunReport",
    "ShardReport",
    "plan_shards",
    "run_cells",
    "run_batches",
    "Plan",
    "evaluate",
    "TASKS",
    "run_cell",
    "load_for",
    "merge_traced",
    "task",
]
