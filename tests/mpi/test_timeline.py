"""Timeline (Gantt) tests: synthetic spans, and the fold of a traced
world's ``call.enter``/``call.exit`` events."""

import numpy as np
import pytest

from repro.mpi.timeline import Span, Timeline
from repro.obs import EventBus
from tests.conftest import run_world


def test_record_and_analyze():
    tl = Timeline([
        Span(0, "send", 0.0, 10.0),
        Span(0, "recv", 20.0, 50.0),
        Span(1, "recv", 5.0, 15.0),
    ])
    assert tl.ranks() == [0, 1]
    assert tl.mpi_time(0) == 40.0
    assert tl.busiest_call(0) == "recv"
    assert tl.busiest_call(2) is None


def test_record_rejects_inverted_span():
    with pytest.raises(ValueError):
        Span(0, "send", 10.0, 5.0)


def test_render_empty():
    assert "no spans" in Timeline().render()


def test_render_shape():
    tl = Timeline([Span(0, "send", 0.0, 50.0), Span(1, "recv", 50.0, 100.0)])
    out = tl.render(width=20)
    lines = out.splitlines()
    assert lines[0].startswith("rank  0 |")
    assert lines[1].startswith("rank  1 |")
    # rank 0 busy in the first half, rank 1 in the second
    row0 = lines[0].split("|")[1]
    row1 = lines[1].split("|")[1]
    assert row0[0] == "#" and row0[-1] == "."
    assert row1[0] == "." and row1[-1] == "#"
    assert "% in MPI" in lines[0]


def test_folds_a_traced_world():
    bus = EventBus()

    def main(comm):
        other = 1 - comm.rank
        yield from comm.sendrecv(b"x" * 64, dest=other, source=other)
        yield from comm.barrier()
        return True

    run_world(2, main, obs=bus)
    tl = Timeline.from_bus(bus)
    assert set(tl.ranks()) == {0, 1}
    # outermost calls only: sendrecv's irecv/isend/waitall are inside it
    assert [s.call for s in tl.spans if s.rank == 0] == ["sendrecv", "barrier"]
    rendered = tl.render(width=30)
    assert "rank  0" in rendered and "rank  1" in rendered


def test_timeline_shows_imbalance():
    """A rank that computes longer shows less MPI occupancy."""
    bus = EventBus()

    def main(comm):
        # rank 1 computes 10x longer before the barrier
        yield from comm.endpoint.host.compute(1000.0 * (1 + 9 * comm.rank))
        yield from comm.barrier()
        return True

    run_world(2, main, obs=bus)
    tl = Timeline.from_bus(bus)
    # rank 0 waits in the barrier for rank 1 -> more MPI time
    assert tl.mpi_time(0) > tl.mpi_time(1) * 3


def test_calls_on_a_split_communicator_land_on_the_world_ranks_track():
    """Call events carry the world rank: on a split world each rank's
    calls nest properly and fold onto that rank's own row."""
    bus = EventBus()

    def main(comm):
        sub = yield from comm.split(color=comm.rank % 2, key=comm.rank)
        other = 1 - sub.rank
        yield from sub.sendrecv(b"y" * 32, dest=other, source=other)
        yield from sub.bcast(np.zeros(4), root=0)
        yield from sub.barrier()
        return sub.rank

    assert run_world(4, main, obs=bus) == [0, 0, 1, 1]
    stacks = {}
    for ev in bus.events:
        if ev.layer == "mpi" and ev.kind in ("call.enter", "call.exit"):
            stack = stacks.setdefault(ev.rank, [])
            if ev.kind == "call.enter":
                stack.append(ev.detail["call"])
            else:
                assert stack and stack.pop() == ev.detail["call"], (ev.rank, ev.t)
    assert sorted(stacks) == [0, 1, 2, 3]
    assert all(not stack for stack in stacks.values())
    tl = Timeline.from_bus(bus)
    assert tl.ranks() == [0, 1, 2, 3]
    for rank in range(4):
        calls = [s.call for s in tl.spans if s.rank == rank]
        assert calls[-3:] == ["sendrecv", "bcast", "barrier"], (rank, calls)
