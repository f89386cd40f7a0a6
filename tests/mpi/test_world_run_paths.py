"""World.run's single supervised path: every outcome, traced and untraced.

``World.run`` tests what decides a run (a rank died, enough ranks
finished, a crash executed) only at the moments it can change and lets
``Simulator.run`` drain events unsupervised in between.  The oracle
makes *every* event such a moment -- ``sim.run`` replaced by "fire one
event, return" -- which is exactly the per-event supervision the old
``peek()``/``step()`` loops did.  Both must agree on the outcome, the
clock, the sequence counter and (traced) every bus event.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, NodeCrash
from repro.mpi import World
from repro.mpi.exceptions import RankFailed
from repro.obs import EventBus
from repro.sim import StopRun

LIMIT = 1e9
LIVELOCK_LIMIT = 1e4


def _stepping(sim):
    """``sim.run`` that returns after every single event."""

    def run(until=None, *, advance_clock=True):
        if sim.peek() <= until:
            try:
                sim.step()
            except StopRun:
                pass

    return run


def _settle(comm, until):
    while comm.wtime() < until:
        yield from comm.endpoint.host.compute(50.0)


# ------------------------------------------------------------- the scenarios
def _clean(comm):
    if comm.rank == 0:
        yield from comm.send(b"x" * 300, dest=1, tag=1)
        return "sent"
    data, _st = yield from comm.recv(source=0, tag=1)
    return len(data)


def _rank_raises(comm):
    yield from comm.barrier()
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    yield from comm.recv(source=comm.rank, tag=99)  # blocks until aborted


def _deadlock(comm):
    yield from _settle(comm, 100.0)
    yield from comm.recv(source=(comm.rank + 1) % comm.size, tag=0)


def _sleeps_past_the_limit(comm):
    yield comm.endpoint.sim.timeout(5.0)
    yield comm.endpoint.sim.timeout(2 * LIMIT)


def _spins_in_progress(comm):
    """The seed-1006 ``meiko-mpich`` livelock shape: a rank polling the
    device while nothing else is queued, so every poll sleep is a
    granted :meth:`~repro.sim.Simulator.hold` that never touches the
    heap -- only the hold's horizon check can end the run."""
    while comm.rank == 0:
        yield from comm.endpoint._progress(block=True)


def _crash_then_survivors_finish(comm):
    """Rank 1 dies at t=50; rank 0 learns of it and returns."""
    if comm.rank == 1:
        yield from _settle(comm, 100_000.0)
        return "never"
    try:
        yield from comm.recv(source=1, tag=1)
    except RankFailed:
        return "survived"


def _survivors_finish_then_crash(comm):
    """Rank 0 is long done when rank 1 dies: the crash completes the job."""
    if comm.rank == 1:
        yield from _settle(comm, 100_000.0)
        return "never"
    yield from _settle(comm, 1.0)
    return "done early"


def _everyone_beats_the_crash(comm):
    yield from comm.barrier()
    return comm.rank


def _doomed_rank_finishes_first(comm):
    """The rank with the (unreached) crash returns before a survivor:
    'enough ranks finished' is reached while a survivor still runs."""
    yield from _settle(comm, 10.0 if comm.rank == 1 else 500.0)
    return comm.rank


def _crash(at):
    return {"faults": FaultPlan.of(NodeCrash(node=1, at=at)), "ft": True}


SCENARIOS = {
    "clean": (_clean, {}, {}),
    "clean-limit": (_clean, {}, {"limit": LIMIT}),
    "rank-raises": (_rank_raises, {}, {"limit": LIMIT}),
    "deadlock": (_deadlock, {}, {"limit": LIMIT}),
    "deadlock-no-limit": (_deadlock, {}, {}),
    "limit": (_sleeps_past_the_limit, {}, {"limit": LIMIT}),
    "livelock": (_spins_in_progress, {"device": "mpich"}, {"limit": LIVELOCK_LIMIT}),
    "crash-then-finish": (_crash_then_survivors_finish, _crash(50.0), {"limit": LIMIT}),
    "finish-then-crash": (_survivors_finish_then_crash, _crash(50.0), {"limit": LIMIT}),
    "finish-then-crash-no-limit": (_survivors_finish_then_crash, _crash(50.0), {}),
    "crash-never-reached": (_everyone_beats_the_crash, _crash(1e6), {"limit": LIMIT}),
    "doomed-rank-first": (_doomed_rank_finishes_first, _crash(1e6), {"limit": LIMIT}),
}


def _outcome(name, traced, stepped):
    main, world_kw, run_kw = SCENARIOS[name]
    bus = EventBus() if traced else None
    world = World(2, platform="meiko", seed=0, obs=bus, **world_kw)
    if stepped:
        world.sim.run = _stepping(world.sim)
    try:
        result = ("ok", world.run(main, **run_kw))
    except Exception as exc:  # the outcome under test
        result = (type(exc).__name__, str(exc), getattr(exc, "mpi_rank", None),
                  getattr(exc, "sim_time_us", None))
    events = [(e.t, e.layer, e.kind, e.rank, repr(e.detail)) for e in bus.events] if traced else None
    return result, world.sim.now, world.sim._seq, events


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_path_matches_per_event_supervision(name, traced):
    assert _outcome(name, traced, stepped=False) == _outcome(name, traced, stepped=True)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_outcomes(traced):
    def run(name):
        return _outcome(name, traced, stepped=False)

    assert run("clean")[0] == ("ok", ["sent", 300])
    assert run("clean-limit")[0] == ("ok", ["sent", 300])

    (kind, msg, rank, at), now, _seq, _ = run("rank-raises")
    assert (kind, msg, rank) == ("ValueError", "rank 1 exploded", 1)
    assert 0 < at == now < 1000

    # a deadlock is reported at the last event that fired, not at the limit
    (kind, msg, _r, _t), now, _seq, _ = run("deadlock")
    assert kind == "DeadlockError" and 100.0 <= now < 1000.0
    assert f"deadlock at t={now:.3f}" in msg
    assert run("deadlock-no-limit")[:3] == run("deadlock")[:3]

    (kind, msg, _r, _t), now, _seq, _ = run("limit")
    assert kind == "ConfigurationError" and "time limit" in msg
    assert now == 5.0  # the last event inside the limit

    (kind, msg, _r, _t), now, _seq, _ = run("livelock")
    assert kind == "ConfigurationError" and "time limit" in msg
    assert LIVELOCK_LIMIT - 10.0 < now <= LIVELOCK_LIMIT

    result, now, _seq, _ = run("crash-then-finish")
    assert result == ("ok", ["survived", None]) and 50.0 < now < 10_000.0

    # the job ends at the crash, not when the dead rank's work runs out
    result, now, _seq, _ = run("finish-then-crash")
    assert result == ("ok", ["done early", None]) and 50.0 <= now <= 150.0
    assert run("finish-then-crash-no-limit") == run("finish-then-crash")

    assert run("crash-never-reached")[0] == ("ok", [0, 1])
    result, now, _seq, _ = run("doomed-rank-first")
    assert result == ("ok", [0, 1]) and now >= 500.0


def test_a_livelock_spins_in_place_and_still_meets_its_limit():
    """Polls that skip the heap are still bounded by ``World.run(limit=...)``."""
    world = World(2, platform="meiko", device="mpich", seed=0)
    with pytest.raises(ConfigurationError, match="time limit"):
        world.run(_spins_in_progress, limit=LIVELOCK_LIMIT)
    assert world.sim.now <= LIVELOCK_LIMIT
    # ~1000 probe-interval polls, (nearly) all of them held in place
    assert world.sim.elided > 900
