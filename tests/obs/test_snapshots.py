"""Structured device state: ``state_snapshot()`` is the primary dump,
``describe_state()`` merely renders it, and the deadlock watchdog ships
the structured form on :class:`DeadlockError.rank_states`."""

import pytest

from repro.errors import DeadlockError
from repro.faults import FaultPlan, PacketLoss
from repro.mpi import World
from tests.conftest import CLUSTER_DEVICES, MODERN_DEVICES


#: flow-control keys every credit-flow cell reports (one engine, one dump)
FLOW_KEYS = {"sends_waiting_for_credit", "credits_owed",
             "rendezvous_awaiting_request", "rendezvous_awaiting_data",
             "ssends_awaiting_ack"}


@pytest.mark.parametrize(
    "platform, device",
    [("meiko", "lowlatency"), ("meiko", "mpich"),
     ("ethernet", "tcp"), ("atm", "udp"),
     ("modern", "rdma"), ("modern", "cxl")],
)
def test_state_snapshot_is_structured(platform, device):
    """Every device reports posted/unexpected queues as plain dicts, and
    the string form is derived from them."""
    out = {}

    def main(comm):
        sim = comm.endpoint.sim
        if comm.rank == 0:
            yield sim.timeout(500.0)  # let the receive sit posted
            yield from comm.send(b"x" * 8, dest=1, tag=7)
        else:
            req = yield from comm.irecv(source=0, tag=7)
            yield sim.timeout(100.0)  # Elan-side posting is asynchronous
            out["snap"] = comm.endpoint.state_snapshot()
            out["desc"] = comm.endpoint.describe_state()
            yield from comm.wait(req)

    World(2, platform=platform, device=device).run(main)
    snap = out["snap"]
    assert snap["rank"] == 1
    assert isinstance(snap["posted"], list)
    assert isinstance(snap["unexpected"], list)
    assert {"source": 0, "tag": 7} in snap["posted"]
    if "flow" in snap:
        assert isinstance(snap["flow"], dict)
    assert "tag=7" in out["desc"]  # rendering reflects the snapshot


def test_credit_flow_cells_share_flow_keys():
    """All six credit-flow cells dump the same flow-control keys (rdma
    adds only its registration cache)."""
    for platform, device in CLUSTER_DEVICES + MODERN_DEVICES:
        world = World(2, platform=platform, device=device)
        flow = world.platform.endpoints[0].state_snapshot()["flow"]
        assert set(flow) - {"registration_cache"} == FLOW_KEYS, (platform, device)


def test_lowlatency_flow_snapshot_keys():
    out = {}

    def main(comm):
        out[comm.rank] = comm.endpoint.state_snapshot()
        yield from comm.barrier()

    World(2, platform="meiko", device="lowlatency").run(main)
    flow = out[0]["flow"]
    assert set(flow) >= {"sends_waiting_for_slot", "rendezvous_awaiting_request",
                         "ssends_awaiting_ack"}


def test_deadlock_error_carries_rank_states():
    """The watchdog attaches each stuck rank's machine-readable snapshot,
    and the human message is rendered from the same data."""

    def main(comm):
        if comm.rank == 0:
            yield from comm.ssend(b"x" * 64, dest=1, tag=9)
        else:
            yield from comm.recv(source=0, tag=9)

    world = World(2, platform="meiko",
                  faults=FaultPlan.of(PacketLoss(probability=1.0, max_events=1)),
                  seed=0)
    with pytest.raises(DeadlockError) as ei:
        world.run(main)
    e = ei.value
    assert sorted(e.rank_states) == [0, 1]
    assert {"source": 0, "tag": 9} in e.rank_states[1]["posted"]
    assert e.rank_states[0]["flow"]["ssends_awaiting_ack"] == 1
    assert "tag=9" in str(e)


def test_watchdog_caps_snapshots_on_wide_deadlocks():
    """A wide deadlock ships at most WATCHDOG_SNAPSHOT_CAP per-rank
    snapshots (with an elision note); the full stuck-rank list still
    rides on ``stuck_ranks``."""
    from repro.mpi.world import WATCHDOG_SNAPSHOT_CAP

    nprocs = WATCHDOG_SNAPSHOT_CAP + 4

    def main(comm):
        # everyone waits on a message nobody sends
        yield from comm.recv(source=(comm.rank + 1) % comm.size, tag=3)

    with pytest.raises(DeadlockError) as ei:
        World(nprocs, platform="meiko", device="lowlatency").run(main)
    e = ei.value
    assert len(e.stuck_ranks) == nprocs
    assert len(e.rank_states) == WATCHDOG_SNAPSHOT_CAP
    assert f"{nprocs - WATCHDOG_SNAPSHOT_CAP} more ranks elided" in str(e)
