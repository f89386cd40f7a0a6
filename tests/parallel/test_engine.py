"""The parallel experiment engine's own tests.

The contract under test (see ``src/repro/parallel/engine.py``):
seed-stable round-robin sharding, canonical-order merge identical to
the serial run, budget skips as :data:`SKIPPED`, worker exceptions
re-raised as :class:`CellError`, a batch too small to repay a fork run
in-process, and — for traced sweeps — per-shard
event streams threaded back through the merge so an exported trace is
byte-identical to the serial sweep's.

Tests use the ``_selftest`` cell kind (a pure digest of the spec, no
simulation) so engine behaviour is isolated from simulator behaviour.
"""

import json
import os
import signal
import time

import pytest

from repro.parallel import CellError, SKIPPED, plan_shards, run_cells
from repro.parallel.engine import RunReport


def _cells(n, **extra):
    return [{"kind": "_selftest", "i": i, **extra} for i in range(n)]


# ---------------------------------------------------------------- sharding
def test_plan_shards_is_round_robin():
    assert plan_shards(7, 3) == [[0, 3, 6], [1, 4], [2, 5]]


def test_plan_shards_is_a_pure_function_of_counts():
    assert plan_shards(10, 4) == plan_shards(10, 4)


def test_plan_shards_covers_every_index_exactly_once():
    for n, w in [(0, 1), (1, 4), (9, 2), (16, 16), (5, 7)]:
        flat = sorted(i for shard in plan_shards(n, w) for i in shard)
        assert flat == list(range(n))


def test_plan_shards_clamps_workers_to_one():
    assert plan_shards(3, 0) == [[0, 1, 2]]


# ------------------------------------------------------------------- merge
def test_parallel_results_equal_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cells = _cells(17)
    serial = run_cells(cells, workers=1, cache=False)
    parallel = run_cells(cells, workers=4, cache=False)
    assert (serial.forks, parallel.forks) == (0, 4)
    assert parallel.results == serial.results
    assert [r["digest"] for r in parallel.results] == [
        r["digest"] for r in serial.results
    ]


def test_merge_is_in_submission_order():
    cells = _cells(12)
    report = run_cells(cells, workers=3, cache=False)
    expected = [run_cells([c], cache=False).results[0] for c in cells]
    assert report.results == expected and report.forks == 3


def test_small_batches_run_in_process_and_large_ones_use_fewer_workers():
    """Decided from the batch: a worker is forked only for four or more
    pending cells, so asking for more workers than the batch can feed
    never costs more than running it here."""
    small = run_cells(_cells(7), workers=2, cache=False)
    assert (small.workers, small.forks, len(small.shards)) == (1, 0, 1)
    assert "workers=1" in small.stats_line() and "forks" not in small.stats_line()
    trimmed = run_cells(_cells(9), workers=4, cache=False)
    assert (trimmed.workers, trimmed.forks) == (2, 2)
    assert small.results == run_cells(_cells(7), cache=False).results


def test_report_accounting():
    report = run_cells(_cells(9), workers=2, cache=False)
    assert isinstance(report, RunReport)
    assert report.executed == 9
    assert report.cached == 0
    assert report.skipped == 0
    assert [s.cells for s in report.shards] == [5, 4]
    assert report.forks == 2
    assert "workers=2" in report.stats_line() and "forks=2" in report.stats_line()


def test_report_carries_the_simulating_process_peak_rss(tmp_path):
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    in_process = run_cells(_cells(3), cache=False)
    # in-process, the shard is this process: its own high-water mark
    assert own <= in_process.peak_rss_mb <= own + 64
    pooled = run_cells(_cells(8), workers=2, cache=False)
    assert pooled.forks == 2 and pooled.peak_rss_mb > 0  # the largest worker's
    for report in (in_process, pooled):
        assert (f"gc={report.gc_s:.2f}s/{report.collections} "
                f"rss={report.peak_rss_mb:.0f}MB") in report.stats_line()
    # a fully cached run simulated nothing: the reader's own figure
    from repro.parallel.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    run_cells(_cells(2), cache=cache)
    warm = run_cells(_cells(2), cache=cache)
    assert warm.executed == 0 and warm.peak_rss_mb >= own


def test_empty_cell_list():
    report = run_cells([], workers=4, cache=False)
    assert report.results == []
    assert report.executed == 0


# ------------------------------------------------------------------ budget
def test_budget_skips_remaining_cells():
    cells = _cells(8, spin=200_000)
    report = run_cells(cells, workers=1, cache=False, budget_s=0.0)
    # budget 0 → the first cell of the shard still starts before the
    # clock is checked, everything after is skipped
    assert report.skipped >= 1
    assert any(r is SKIPPED for r in report.results)
    assert report.executed + report.skipped == len(cells)


def test_skipped_cells_use_the_sentinel_not_none():
    report = run_cells(_cells(4, spin=200_000), workers=1,
                       cache=False, budget_s=0.0)
    for r in report.results:
        assert r is SKIPPED or isinstance(r, dict)


# ------------------------------------------------------------------ errors
def test_worker_exception_becomes_cell_error():
    cells = _cells(8) + [{"kind": "no_such_task"}]
    with pytest.raises(CellError) as excinfo:
        run_cells(cells, workers=2, cache=False)  # 9 pending: forked
    assert excinfo.value.index == 8
    assert "no_such_task" in str(excinfo.value)


def test_cell_error_carries_the_cell():
    with pytest.raises(CellError) as excinfo:
        run_cells([{"kind": "no_such_task", "x": 1}], cache=False)
    assert excinfo.value.cell == {"kind": "no_such_task", "x": 1}


# ----------------------------------------------------------------- retries
def _flaky(tmp_path, i, fail_times, retries):
    return {"kind": "_flaky_selftest", "i": i, "_fail_times": fail_times,
            "_counter": str(tmp_path / f"attempts{i}"), "_retries": retries}


def test_retries_recover_transient_failures(tmp_path):
    # three flaky cells among eight, so the retries happen in forked workers
    flaky = [_flaky(tmp_path, i, fail_times=2 if i < 3 else 0, retries=3)
             for i in range(8)]
    clean = [{"kind": "_flaky_selftest", "i": i} for i in range(8)]
    report = run_cells(flaky, workers=2, cache=False)
    serial = run_cells(clean, workers=1, cache=False)
    # byte-identical to the never-flaked serial run on success
    assert report.results == serial.results
    assert report.executed == 8 and report.forks == 2


def test_retries_exhausted_surface_cell_error(tmp_path):
    cells = [_flaky(tmp_path, 0, fail_times=99, retries=2)]
    with pytest.raises(CellError) as excinfo:
        run_cells(cells, workers=1, cache=False)
    assert "retries exhausted" in str(excinfo.value)
    # 1 initial attempt + 2 retries, no more
    assert (tmp_path / "attempts0").stat().st_size == 3


def test_no_retries_without_opt_in(tmp_path):
    cell = _flaky(tmp_path, 0, fail_times=1, retries=0)
    with pytest.raises(CellError):
        run_cells([cell], workers=1, cache=False)
    assert (tmp_path / "attempts0").stat().st_size == 1


def test_retry_backoff_is_deterministic_and_capped():
    from repro.parallel.engine import retry_backoff_s

    assert [retry_backoff_s(a) for a in range(1, 7)] == \
        [0.05, 0.1, 0.2, 0.4, 0.8, 1.0]
    assert retry_backoff_s(40) == 1.0


def test_retries_do_not_perturb_the_cache_key():
    from repro.parallel.tasks import cacheable_spec

    assert cacheable_spec({"kind": "k", "i": 0, "_retries": 3}) == \
        {"kind": "k", "i": 0}


# ----------------------------------------------- traced sweeps (obs merge)
def _traced_chaos_sweep(workers, trace_path):
    from repro.bench.chaos import chaos_sweep
    from repro.obs import EventBus
    from repro.obs.export import write_trace

    bus = EventBus()
    rows = chaos_sweep(
        platforms=["ethernet", "atm"], losses=(0.0, 0.01, 0.05, 0.1),
        workloads=("pingpong",), repeats=2, obs=bus, workers=workers,
    )
    write_trace(bus, str(trace_path))
    return rows, len(bus.events)


def test_traced_chaos_parallel_trace_is_byte_identical(tmp_path):
    # workers=None is the same engine path run in-process, not a twin
    serial_rows, serial_events = _traced_chaos_sweep(None, tmp_path / "s.json")
    par_rows, par_events = _traced_chaos_sweep(2, tmp_path / "p.json")
    assert par_rows == serial_rows
    assert par_events == serial_events > 0
    assert (tmp_path / "p.json").read_bytes() == (tmp_path / "s.json").read_bytes()
    json.loads((tmp_path / "s.json").read_text())  # stays valid JSON


# ----------------------------------------------------------- a dead worker
@pytest.mark.parametrize("how, said", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9 (SIGKILL)"),
    (lambda: os._exit(3), "exit status 3"),
], ids=["sigkill", "exit"])
def test_a_dead_worker_is_a_typed_error_not_a_hang(how, said, tmp_path, monkeypatch):
    """The OOM killer's signature: a worker vanishes mid-shard.  The run
    must end — promptly — in a CellError naming the shard, the first cell
    it still owed and how it died, with everything that did come back
    (the sibling shard's cells, the victim's first two) already cached."""
    from repro.parallel import TASKS, ResultCache, cell_key

    def dies_on_cell_4(cell):
        if cell["i"] == 4:
            how()
        return TASKS["_selftest"](cell)

    monkeypatch.setitem(TASKS, "_mortal", dies_on_cell_4)  # forks inherit it
    cells = [{"kind": "_mortal", "i": i} for i in range(10)]
    assert plan_shards(10, 2)[0][:3] == [0, 2, 4]  # shard 0's third cell
    cache = ResultCache(str(tmp_path / "cache"))
    started = time.monotonic()
    with pytest.raises(CellError) as excinfo:
        run_cells(cells, workers=2, cache=cache)
    assert time.monotonic() - started < 2.0
    assert excinfo.value.index == 4 and excinfo.value.cell == cells[4]
    assert "shard 0" in str(excinfo.value) and said in str(excinfo.value)
    hits = [cache.get(cell_key("_mortal", cell))[0] for cell in cells]
    assert hits == [i not in (4, 6, 8) for i in range(10)]
