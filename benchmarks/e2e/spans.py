"""Spans around the product's public entry points, recorded from outside.

``install`` replaces each entry point in ``TARGETS`` with a wrapper (by
``setattr`` on the owning module or class; the program is not edited)
that records ``(name, start, end, parent, op, attrs)`` in memory.  The
child writes the list out when its span pass ends and ``span_metrics``
turns it into the per-layer numbers.  A target that no longer resolves
raises at install time: a rename must fail loudly, not zero a metric.
"""

import importlib
import os
import statistics
import sys
import time
from typing import Callable, NamedTuple, Optional

NAME, START, END, PARENT, OP, ATTRS = range(6)

#: the span the child opens around each CLI invocation
OP_SPAN = "bench.op"


class Recorder:
    """In-memory span list with a parent stack (single-threaded)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def begin(self, name: str) -> int:
        if name == OP_SPAN:
            self._op += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, attrs: Optional[dict] = None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        self._stack.pop()


class Target(NamedTuple):
    span: str           #: span name
    module: str         #: module that owns the attribute
    attr: str           #: ``function`` or ``Class.method``
    workload: str       #: a workload whose pass must fire it
    before: Optional[Callable] = None   #: args -> value sampled before the call
    after: Optional[Callable] = None    #: (args, result, before) -> span attrs


def _run_cells_attrs(args, report, _):
    return {"workers": report.workers,
            "shard_walls": [s.wall_s for s in report.shards]}


def _write_trace_attrs(args, path, _):
    return {"events": len(args[0]), "bytes": os.path.getsize(path)}


TARGETS = (
    Target("mpi.world.build", "repro.mpi.world", "World.__init__", "fuzz_ci"),
    # events are read the way repro.bench.kernel_perf reads them.  A
    # world run under supervision (a step limit, a crash plan: every
    # fuzz program) is stepped by World.run and never enters
    # Simulator.run, so both count
    Target("mpi.world.run", "repro.mpi.world", "World.run", "fuzz_ci",
           before=lambda args: args[0].sim._seq,
           after=lambda args, _, seq: {"events": args[0].sim._seq - seq}),
    Target("sim.run", "repro.sim.core", "Simulator.run", "meiko_sweep",
           before=lambda args: args[0]._seq,
           after=lambda args, _, seq: {"events": args[0]._seq - seq}),
    Target("conformance.generate", "repro.conformance.grammar", "generate", "fuzz_ci"),
    Target("conformance.run_program", "repro.conformance.executor", "run_program",
           "fuzz_ci"),
    Target("conformance.canon", "repro.conformance.executor", "canonical_trace",
           "fuzz_ci"),
    Target("parallel.run_cells", "repro.parallel.engine", "run_cells", "engine_pool",
           after=_run_cells_attrs),
    Target("parallel.cache_get", "repro.parallel.cache", "ResultCache.get",
           "engine_pool", after=lambda args, result, _: {"hit": result[0]}),
    Target("parallel.cache_put", "repro.parallel.cache", "ResultCache.put",
           "engine_pool"),
    Target("parallel.digest", "repro.parallel.cache", "code_digest", "engine_pool"),
    Target("obs.ledger", "repro.obs.phases", "PhaseLedger.from_bus", "obs_traced"),
    Target("obs.export", "repro.obs.export", "write_trace", "obs_traced",
           after=_write_trace_attrs),
)


def _wrap(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    name, before, after = target.span, target.before, target.after

    def wrapper(*args, **kwargs):
        sampled = before(args) if before is not None else None
        idx = recorder.begin(name)
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                attrs = after(args, result, sampled)
        finally:
            recorder.end(idx, attrs)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every target.  Not undone: the child's span pass is its last."""
    for target in TARGETS:
        module = importlib.import_module(target.module)
        owner_name, _, method = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(recorder, target, raw.__func__))
            else:
                wrapped = _wrap(recorder, target, raw)
            setattr(owner, method, wrapped)
            continue
        raw = getattr(module, target.attr)
        wrapped = _wrap(recorder, target, raw)
        # a function is also bound wherever it was imported ``from``; a
        # module imported later binds the wrapper from the owner
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro") \
                    and mod.__dict__.get(target.attr) is raw:
                setattr(mod, target.attr, wrapped)


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans) -> dict:
    """``{name: {"calls", "total_s", "self_s"}}`` over all spans."""
    table = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return table


def span_metrics(spans) -> dict:
    """The per-layer metrics that come from the span pass.

    ``*_s`` values are inclusive (``mpi.world.run_s`` contains
    ``sim.run_s``); ``summarize`` gives the exclusive split.
    """
    table = summarize(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in spans if s[NAME] == name and s[ATTRS])

    events = attr_sum("sim.run", "events")
    gets = [s for s in spans if s[NAME] == "parallel.cache_get" and s[ATTRS]]
    hits = sum(1 for s in gets if s[ATTRS]["hit"])
    # pool runs only: what run_cells cost beyond its slowest shard, and
    # how uneven the shards were (time-weighted max/mean)
    overhead = slowest = mean = 0.0
    for s in spans:
        if s[NAME] == "parallel.run_cells" and s[ATTRS] and s[ATTRS]["workers"] > 1:
            walls = s[ATTRS]["shard_walls"]
            overhead += s[END] - s[START] - max(walls, default=0.0)
            if len(walls) > 1:
                slowest += max(walls)
                mean += statistics.fmean(walls)
    op_ms = [(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == OP_SPAN]
    return {
        "mpi.world.builds": calls("mpi.world.build"),
        "mpi.world.build_s": total("mpi.world.build"),
        "mpi.world.run_s": total("mpi.world.run"),
        "mpi.world.events": attr_sum("mpi.world.run", "events"),
        "sim.run_s": total("sim.run"),
        "sim.events": events,
        "sim.us_per_event": total("sim.run") * 1e6 / events if events else 0.0,
        "conformance.generate_s": total("conformance.generate"),
        "conformance.run_programs": calls("conformance.run_program"),
        "conformance.run_program_s": total("conformance.run_program"),
        "conformance.canon_s": total("conformance.canon"),
        "parallel.run_cells_s": total("parallel.run_cells"),
        "parallel.cache_hits": hits,
        "parallel.cache_misses": len(gets) - hits,
        "parallel.cache_get_s": total("parallel.cache_get"),
        "parallel.cache_put_s": total("parallel.cache_put"),
        "parallel.digest_s": total("parallel.digest"),
        "parallel.pool_overhead_s": overhead,
        "parallel.shard_imbalance": slowest / mean if mean else 0.0,
        "obs.events": attr_sum("obs.export", "events"),
        "obs.ledger_s": total("obs.ledger"),
        "obs.export_s": total("obs.export"),
        "obs.export_bytes": attr_sum("obs.export", "bytes"),
        "bench.op_p50_ms": statistics.median(op_ms) if op_ms else 0.0,
        "bench.op_max_ms": max(op_ms, default=0.0),
    }
