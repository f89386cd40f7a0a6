"""A cell is a memory region (``repro.parallel.tasks.run_cell``).

The cyclic collector is paused while a cell runs and asked for exactly
one collection as the cell leaves; the caller's enabled/disabled state
is restored whatever happens, the cell's world is dead the moment
``run_cell`` returns, and the older generations are not starved.
"""

import gc
import weakref

import pytest

from repro.mpi import World
from repro.obs import EventBus
from repro.parallel import TASKS, Plan, evaluate, merge_traced, run_cell, run_cells


@pytest.fixture
def probe(monkeypatch):
    """Register a throw-away cell kind for the test; returns the
    registrar.  ``seen`` collects what the cell observed inside."""
    seen = []

    def register(fn):
        monkeypatch.setitem(TASKS, "_probe", lambda cell: fn(cell, seen))
        return seen

    return register


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collector_state(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_collector_is_off_inside_and_restored_after_a_returning_cell(
        probe, collector_state):
    seen = probe(lambda cell, seen: seen.append(gc.isenabled()))
    run_cell({"kind": "_probe"})
    assert seen == [False]
    assert gc.isenabled() is collector_state


def test_state_is_restored_after_a_raising_cell(probe, collector_state):
    def boom(cell, seen):
        seen.append(gc.isenabled())
        raise ValueError("cell failed")

    seen = probe(boom)
    with pytest.raises(ValueError, match="cell failed"):
        run_cell({"kind": "_probe"})
    assert seen == [False]
    assert gc.isenabled() is collector_state


def test_nested_region_leaves_the_outer_one_paused(probe, collector_state):
    def outer(cell, seen):
        inner = run_cell({"kind": "_selftest", "n": 1})
        seen.append(gc.isenabled())     # the inner exit must not re-enable
        return inner

    seen = probe(outer)
    assert run_cell({"kind": "_probe"}) == run_cell({"kind": "_selftest", "n": 1})
    assert seen == [False]
    assert gc.isenabled() is collector_state


def test_the_cells_world_is_dead_when_run_cell_returns(probe):
    """No ``gc.collect()`` here: a world is cyclic from end to end, so
    only the region's own exit collection can have freed it."""
    def cell_fn(cell, seen):
        world = World(4, platform="meiko")

        def main(comm):
            yield from comm.barrier()
            return comm.rank

        seen.append(weakref.ref(world))
        return world.run(main)

    seen = probe(cell_fn)
    assert run_cell({"kind": "_probe"}) == [0, 1, 2, 3]
    (ref,) = seen
    assert ref() is None


def test_older_generations_are_not_starved():
    """Always collecting generation 0 at the exit would leave the older
    generations' counts climbing forever (they are only ever examined
    by the collection that a *younger* threshold triggers); the region
    asks the counters instead, so after any cell no older generation
    sits above its threshold."""
    thresholds = gc.get_threshold()
    for i in range(300):
        run_cell({"kind": "_selftest", "n": i})
        counts = gc.get_count()
        assert counts[1] <= thresholds[1] and counts[2] <= thresholds[2], (i, counts)


def test_exit_collections_are_tallied_into_the_report():
    tally = [0.0, 0]
    run_cell({"kind": "_selftest", "n": 0}, tally)
    assert tally[1] == 1 and tally[0] > 0.0

    report = run_cells([{"kind": "_selftest", "n": i} for i in range(5)], cache=False)
    assert report.collections == report.executed == 5
    assert report.gc_s > 0.0
    assert f"gc={report.gc_s:.2f}s/5" in report.stats_line()


def _fields(events):
    return [(e.t, e.layer, e.kind, e.rank, e.msg, e.detail, e.run) for e in events]


def test_pool_results_and_traces_equal_in_process_ones():
    """The cell kinds the CLI commands moved onto, traced and not,
    in-process and over a two-worker pool."""
    cells = [
        {"kind": "pingpong_rtt", "platform": "meiko", "device": "lowlatency",
         "nbytes": 64},
        {"kind": "pingpong_rtt", "platform": "atm", "device": "udp",
         "nbytes": 1, "_trace": True},
        {"kind": "app_verified", "app": "nbody", "platform": "ethernet",
         "device": "tcp", "nprocs": 2, "n": 8, "_trace": True},
        {"kind": "phases_table", "platform": "modern", "device": "rdma",
         "nbytes": 9000},
        {"kind": "phases_table", "platform": "meiko", "device": "lowlatency",
         "nbytes": 1, "_trace": True},
    ]
    # enough untraced runs beside them that two workers are worth forking
    cells += [{"kind": "bandwidth", "platform": "modern", "device": "cxl",
               "nbytes": nbytes} for nbytes in (4096, 65536, 262144)]

    def run(workers):
        bus = EventBus()
        (rows,), report = evaluate(
            [Plan(cells, lambda values: merge_traced(cells, values, bus))],
            workers=workers)
        assert report.collections == len(cells)
        assert report.forks == (workers or 0) and report.worker_imports == []
        return rows, _fields(bus.events)

    rows, events = run(None)
    assert (rows, events) == run(2)
    assert rows[2]["ok"] is True
    assert list(dict.fromkeys(e[-1] for e in events)) == [
        "pingpong/atm/udp/1B", "app/nbody/ethernet/tcp",
        "phases/meiko/lowlatency/1B"]
