"""A rank costs what it uses: the bytes a World holds per rank.

``repro.bench.kernel_perf.bytes_per_rank`` (``tracemalloc`` around a
build, after an untraced warm-up world) is the instrument; the parent
figures are the same helper on the commit before per-rank state became
lazy.  Beside the budget: the device-level lazy edges — a rank that
never received must still snapshot, and an alias of a device queue must
stay valid across a yield.  Last, a finished operation costs nothing: a
world that ran ten times the messages holds no more of their requests,
statuses, handles or envelopes once its waits have returned.
"""

import gc
import sys
from collections import Counter

import pytest

from repro.bench.kernel_perf import bytes_per_rank, coll_10k_main
from repro.errors import DeadlockError
from repro.hw.meiko.events import HwEvent
from repro.hw.meiko.tport import TPortHandle
from repro.mpi import World
from repro.mpi.envelope import Envelope
from repro.mpi.matching import Arrival
from repro.mpi.request import Request
from repro.mpi.status import Status
from repro.platforms import device_key
from repro.sim import EMPTY
from tests.conftest import ALL_DEVICES

KB = 1024.0

#: before 3.11 every instance carries a dict of its own: bigger ranks,
#: so the pins (not the budgets) come in two columns
_COLUMN = 0 if sys.version_info >= (3, 11) else 1

#: KB per rank at 64 ranks, one cell per device family:
#: (parent, this change on 3.11 / 3.12, this change on 3.9 / 3.10)
FAMILIES = {
    ("meiko", "mpich"): (18.1, 4.9, 6.4),
    ("atm", "tcp"): (19.0, 6.5, 8.2),
    ("ethernet", "udp"): (17.1, 6.0, 7.3),
    ("modern", "rdma"): (10.3, 2.9, 4.3),
    ("modern", "cxl"): (10.0, 2.6, 3.6),
}


def test_a_built_meiko_rank_fits_in_8_kb_at_any_width():
    """Parent: 18.5 KB/rank (38.8 MB at 2048 ranks); this change 5.4."""
    narrow = bytes_per_rank(512)["built"] / KB
    wide = bytes_per_rank(2048)["built"] / KB
    assert narrow <= 8.0 and wide <= 8.0
    # no O(N^2) state: four times the ranks, the same bytes per rank
    assert abs(wide - narrow) <= 0.10 * narrow


@pytest.mark.parametrize("platform,device", list(FAMILIES),
                         ids=[device_key(p, d) for p, d in FAMILIES])
def test_every_device_family_shrank_and_stays_shrunk(platform, device):
    parent, *pins = FAMILIES[platform, device]
    got = bytes_per_rank(64, platform, device)["built"] / KB
    assert got <= 0.70 * parent
    assert got <= 1.15 * pins[_COLUMN]


def test_a_rank_that_ran_coll_10k_still_fits_in_14_kb():
    """Parent: 20.8 KB/rank after the run (27.2 at the traced peak);
    this change 9.6 (16.2).  What a run adds is the queues it used."""
    cost = bytes_per_rank(512, main=coll_10k_main)
    assert cost["built"] <= cost["after_run"] <= 14.0 * KB
    assert cost["after_run"] <= cost["peak"]


# ---------------------------------------------------------------------------
# device-level lazy edges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("platform,device", ALL_DEVICES,
                         ids=[device_key(p, d) for p, d in ALL_DEVICES])
def test_a_rank_that_never_received_snapshots_as_empty(platform, device):
    world = World(2, platform=platform, device=device)
    for ep in world.endpoints:
        snap = ep.state_snapshot()
        assert snap["posted"] == [] and snap["unexpected"] == []
        assert "posted-recvs=[none]; unexpected=[none]" in ep.describe_state()


@pytest.mark.parametrize("platform,device", ALL_DEVICES,
                         ids=[device_key(p, d) for p, d in ALL_DEVICES])
def test_the_watchdog_reads_ranks_that_never_received(platform, device):
    def main(comm):
        # rank 1 leaves at once; rank 0 waits for a message nobody sends
        if comm.rank == 0:
            yield from comm.recv(source=1, tag=5)

    with pytest.raises(DeadlockError) as err:
        World(2, platform=platform, device=device).run(main)
    assert err.value.stuck_ranks == [0]
    state = err.value.rank_states[0]
    assert state["posted"] == [{"source": 1, "tag": 5}]
    assert state["unexpected"] == []


def _arrival(tag):
    # extra=None: no envelope slot to acknowledge (the hardware-broadcast form)
    return Arrival(Envelope(src=0, tag=tag, context=0, nbytes=0, seq=tag), data=b"")


def test_an_arrival_landing_during_the_match_charge_is_seen_by_the_same_pass():
    """``_progress`` aliases ``self.arrivals`` before its first yield;
    the alias must be the queue the Elan keeps appending to."""
    world = World(2, platform="meiko", device="lowlatency")
    sim, ep = world.sim, world.endpoints[1]
    assert ep.arrivals is EMPTY
    ep._deliver(_arrival(1))  # the deque exists from here on
    queue = ep.arrivals
    # lands while the SPARC is charged for matching the first arrival
    sim.call_later(world.machine.params.sparc_match / 2,
                   lambda _ev: ep._deliver(_arrival(2)))
    proc = sim.process(ep._progress(block=False))
    sim.run()
    assert proc.value is True
    assert [a.envelope.tag for a in ep.queues.unexpected] == [1, 2]
    assert ep.arrivals is queue and not queue  # drained, never swapped back


def test_progress_on_a_rank_nothing_arrived_at_allocates_nothing():
    world = World(2, platform="meiko", device="lowlatency")
    sim, ep = world.sim, world.endpoints[1]
    idle = sim.process(ep._progress(block=False))
    sim.run()
    assert idle.value is False and ep.arrivals is EMPTY
    ep._deliver(_arrival(3))
    busy = sim.process(ep._progress(block=False))
    sim.run()
    assert busy.value is True
    assert [a.envelope.tag for a in ep.queues.unexpected] == [3]


# ---------------------------------------------------------------------------
# a finished operation costs nothing
# ---------------------------------------------------------------------------

#: what one message leaves behind while anything still references it
_PER_MESSAGE = (Request, Status, TPortHandle, HwEvent, Arrival, Envelope)


def _blocking(comm, n):
    """*n* 1 KiB round trips between ranks 0 and 1 (send / recv)."""
    payload = bytes(1024)
    if comm.rank == 0:
        for _ in range(n):
            yield from comm.send(payload, 1, tag=1)
            yield from comm.recv(source=1, tag=2)
    elif comm.rank == 1:
        for _ in range(n):
            data, _status = yield from comm.recv(source=0, tag=1)
            yield from comm.send(data, 0, tag=2)


def _buffered(comm, n):
    """The same round trips, each leg a bsend (shadow requests nobody waits on)."""
    comm.buffer_attach(8 * 1024)
    payload = bytes(1024)
    if comm.rank in (0, 1):
        peer = 1 - comm.rank
        for _ in range(n):
            if comm.rank == 0:
                yield from comm.bsend(payload, peer, tag=1)
                yield from comm.recv(source=peer, tag=2)
            else:
                data, _status = yield from comm.recv(source=peer, tag=1)
                yield from comm.bsend(data, peer, tag=2)
    yield from comm.barrier()   # every shadow transfer has landed


def _polled(comm, n):
    """The same round trips completed by ``test`` instead of ``wait``."""

    def until_done(req):
        while True:
            done, _status = yield from comm.test(req)
            if done:
                return
            yield comm.endpoint.sim.timeout(10.0)

    payload = bytes(1024)
    if comm.rank in (0, 1):
        peer = 1 - comm.rank
        for _ in range(n):
            if comm.rank == 0:
                yield from until_done((yield from comm.isend(payload, peer, tag=1)))
                yield from until_done((yield from comm.irecv(source=peer, tag=2)))
            else:
                yield from until_done((yield from comm.irecv(source=peer, tag=1)))
                yield from until_done((yield from comm.isend(payload, peer, tag=2)))


def _left_behind(platform, device, body, n):
    """Per-message objects reachable once an 8-rank world ran *n* round
    trips, with the world itself still referenced."""
    world = World(8, platform=platform, device=device)
    world.run(lambda comm: body(comm, n))
    gc.collect()
    live = Counter(type(o).__name__ for o in gc.get_objects()
                   if isinstance(o, _PER_MESSAGE))
    assert world.sim.now > 0
    return live


def _growth(platform, device, body):
    few = _left_behind(platform, device, body, 20)
    many = _left_behind(platform, device, body, 200)
    many.subtract(few)
    return {name: d for name, d in many.items() if d}


@pytest.mark.parametrize("platform,device", ALL_DEVICES,
                         ids=[device_key(p, d) for p, d in ALL_DEVICES])
def test_a_finished_round_trip_leaves_nothing_behind(platform, device):
    """Parent: meiko-mpich kept +720 of each per-message object for 180
    more round trips (its request ledger held every request); now +0 on
    all eight cells."""
    assert _growth(platform, device, _blocking) == {}


@pytest.mark.parametrize("body", [_buffered, _polled], ids=["bsend", "test"])
def test_mpich_releases_shadow_and_tested_requests(body):
    assert _growth("meiko", "mpich", body) == {}


def test_mpich_ft_requests_yields_the_incomplete_in_posting_order():
    seen = {}

    def main(comm):
        if comm.rank == 0:
            recvs = []
            for tag in (1, 2, 3):
                recvs.append((yield from comm.irecv(source=1, tag=tag)))
            send = yield from comm.isend(b"ping", 1, tag=9)
            yield from comm.wait(recvs[1])          # the middle one completes
            ledger = [req for req, _cancel in comm.endpoint._ft_requests()]
            seen["ledger"] = [r.id for r in ledger]
            seen["pending"] = [not r.complete for r in ledger]
            seen["want"] = [r.id for r in (recvs[0], recvs[2], send)]
            yield from comm.waitall([recvs[0], recvs[2], send])
            seen["after"] = list(comm.endpoint._ft_requests())
        elif comm.rank == 1:
            for tag in (2, 1, 3):
                yield from comm.send(bytes([tag]), 0, tag=tag)
            yield from comm.recv(source=0, tag=9)

    World(2, platform="meiko", device="mpich").run(main)
    assert seen["ledger"] == seen["want"]
    assert seen["pending"] == [True] * 3
    assert seen["after"] == []
