"""Fault-injection subsystem tests: determinism, accounting, scoping,
and the host-level rules."""

import pytest

from repro.errors import ConfigurationError, DeadlockError
from repro.faults import (
    CORRUPT,
    DELIVER,
    DROP,
    DUPLICATE,
    FaultInjector,
    FaultPlan,
    LinkDown,
    NodeCrash,
    NodePause,
    NodeSlow,
    PacketCorruption,
    PacketDuplication,
    PacketLoss,
)
from repro.mpi import World
from repro.net.kernel import KernelParams
from repro.sim import Simulator

LOSSY_KP = KernelParams().with_overrides(rto=8_000.0)


# ---------------------------------------------------------------------------
# plan / rule validation
# ---------------------------------------------------------------------------


def test_rule_validation():
    with pytest.raises(ConfigurationError):
        PacketLoss(probability=1.5)
    with pytest.raises(ConfigurationError):
        PacketDuplication(probability=-0.1)
    with pytest.raises(ConfigurationError):
        PacketCorruption(probability=2.0)
    with pytest.raises(ConfigurationError):
        PacketLoss(probability=0.5, fabric="myrinet")
    with pytest.raises(ConfigurationError):
        PacketLoss(probability=0.5, t_start=10.0, t_end=5.0)
    with pytest.raises(ConfigurationError):
        NodeSlow(node=0, factor=0.0)
    with pytest.raises(ConfigurationError):
        FaultPlan.of("not a rule")


def test_plan_is_immutable_and_composable():
    plan = FaultPlan.loss(0.1, fabric="ethernet")
    plan2 = plan.add(NodeCrash(node=1, at=50.0))
    assert len(plan.rules) == 1 and len(plan2.rules) == 2
    assert plan2.crashed_nodes() == [1]
    assert [type(r) for r in plan2.host_rules()] == [NodeCrash]


def test_injector_rejects_unknown_fabric():
    with pytest.raises(ConfigurationError):
        FaultPlan.loss(0.1).injector("token-ring", Simulator())


# ---------------------------------------------------------------------------
# injector decision semantics (no MPI involved)
# ---------------------------------------------------------------------------


def test_injector_same_seed_same_decisions():
    plan = FaultPlan.of(
        PacketLoss(probability=0.2),
        PacketCorruption(probability=0.1),
        PacketDuplication(probability=0.1),
    )

    def stream(seed):
        inj = plan.injector("ethernet", Simulator(), seed=seed)
        return [inj.decide(0, 1, 100) for _ in range(200)]

    assert stream(7) == stream(7)
    assert stream(7) != stream(8)  # different seed, different stream
    kinds = set(stream(7))
    assert {DELIVER, DROP}.issubset(kinds)


def test_deterministic_rules_do_not_consume_rng():
    """A LinkDown firing must not shift the random stream: the fates of
    all *other* deliveries are identical with and without it."""
    base = FaultPlan.of(PacketLoss(probability=0.3))
    with_down = FaultPlan.of(
        LinkDown(src=5, dst=6, t_start=0.0), PacketLoss(probability=0.3)
    )

    inj_a = base.injector("atm", Simulator(), seed=3)
    inj_b = with_down.injector("atm", Simulator(), seed=3)
    fates_a, fates_b = [], []
    for i in range(100):
        fates_a.append(inj_a.decide(0, 1))
        fates_b.append(inj_b.decide(0, 1))
        assert inj_b.decide(5, 6) == DROP  # deterministic, no RNG draw
    assert fates_a == fates_b


def test_time_window_scoping():
    sim = Simulator()
    inj = FaultPlan.of(
        PacketLoss(probability=1.0, t_start=10.0, t_end=20.0)
    ).injector("ethernet", sim, seed=0)

    def at(t):
        def tick():
            yield sim.timeout(t - sim.now)

        sim.process(tick())
        sim.run()
        return inj.decide(0, 1)

    assert at(5.0) == DELIVER
    assert at(10.0) == DROP
    assert at(19.9) == DROP
    assert at(20.0) == DELIVER  # half-open window


def test_src_dst_and_fabric_scoping():
    inj = FaultPlan.of(
        PacketLoss(probability=1.0, src=0, dst=1, fabric="ethernet")
    ).injector("ethernet", Simulator(), seed=0)
    assert inj.decide(0, 1) == DROP
    assert inj.decide(1, 0) == DELIVER
    assert inj.decide(0, 2) == DELIVER
    # same plan compiled for another fabric: rule out of scope
    inj2 = FaultPlan.of(
        PacketLoss(probability=1.0, src=0, dst=1, fabric="ethernet")
    ).injector("atm", Simulator(), seed=0)
    assert inj2.decide(0, 1) == DELIVER


def test_max_events_cap():
    inj = FaultPlan.of(
        PacketLoss(probability=1.0, max_events=2)
    ).injector("ethernet", Simulator(), seed=0)
    fates = [inj.decide(0, 1) for _ in range(5)]
    assert fates == [DROP, DROP, DELIVER, DELIVER, DELIVER]
    assert inj.rule_events == [2]


def test_duplication_never_matches_meiko():
    inj = FaultPlan.of(
        PacketDuplication(probability=1.0)
    ).injector("meiko", Simulator(), seed=0)
    assert all(inj.decide(0, 1) == DELIVER for _ in range(10))
    eth = FaultPlan.of(
        PacketDuplication(probability=1.0)
    ).injector("ethernet", Simulator(), seed=0)
    assert eth.decide(0, 1) == DUPLICATE


# ---------------------------------------------------------------------------
# end-to-end determinism: same seed + same plan => identical timeline
# ---------------------------------------------------------------------------


def _traced_exchange(platform, plan, seed, msgs=15, nbytes=300):
    """Run a bidirectional exchange; return (trace, fabric counters)."""

    def main(comm):
        other = 1 - comm.rank
        trace = []
        for i in range(msgs):
            req = yield from comm.isend(bytes([i % 251]) * nbytes,
                                        dest=other, tag=3)
            data, st = yield from comm.recv(source=other, tag=3)
            yield from comm.wait(req)
            trace.append((comm.wtime(), comm.rank, i, len(data), st.source))
        return trace

    world = World(2, platform=platform, faults=plan,
                  kernel_params=LOSSY_KP, seed=seed)
    traces = world.run(main)
    fabric = world.platform.machine.fabric
    counters = {
        "dropped": getattr(fabric, "frames_dropped", 0) + getattr(fabric, "pdus_dropped", 0),
        "corrupted": getattr(fabric, "frames_corrupted", 0) + getattr(fabric, "pdus_corrupted", 0),
        "duplicated": getattr(fabric, "frames_duplicated", 0) + getattr(fabric, "pdus_duplicated", 0),
        "now": world.sim.now,
        "injector": fabric.injector.summary(),
    }
    return traces, counters


@pytest.mark.parametrize("platform", ["ethernet", "atm"])
def test_same_seed_same_plan_identical_timeline(platform):
    plan = FaultPlan.of(
        PacketLoss(probability=0.08),
        PacketCorruption(probability=0.03),
        PacketDuplication(probability=0.03),
    )
    run1 = _traced_exchange(platform, plan, seed=5)
    run2 = _traced_exchange(platform, plan, seed=5)
    assert run1 == run2  # byte-identical trace, counters and end time
    run3 = _traced_exchange(platform, plan, seed=6)
    assert run3[1]["injector"] != run1[1]["injector"] or run3[0] != run1[0]


@pytest.mark.parametrize("platform", ["ethernet", "atm"])
def test_fabric_counters_match_plan_accounting(platform):
    """The fabric's observable counters agree with the injector's own
    accounting, and the faults were actually exercised."""
    plan = FaultPlan.of(
        PacketLoss(probability=0.10),
        PacketCorruption(probability=0.05),
    )
    _, counters = _traced_exchange(platform, plan, seed=2, msgs=25)
    summary = counters["injector"]
    assert counters["dropped"] == summary["drops"]
    assert counters["corrupted"] == summary["corruptions"]
    assert counters["duplicated"] == summary["duplicates"]
    assert summary["decisions"] > 0
    assert summary["drops"] + summary["corruptions"] > 0
    assert sum(summary["rule_events"]) == (
        summary["drops"] + summary["corruptions"] + summary["duplicates"]
    )


def test_lossy_run_still_correct_under_faultplan():
    """MPI delivers every message exactly once, in order, over 10% loss."""

    def main(comm):
        other = 1 - comm.rank
        out = []
        for i in range(12):
            req = yield from comm.isend(bytes([i]) * 200, dest=other, tag=2)
            data, _ = yield from comm.recv(source=other, tag=2)
            yield from comm.wait(req)
            out.append(bytes(data))
        return out

    res = World(2, platform="ethernet", faults=FaultPlan.loss(0.10),
                kernel_params=LOSSY_KP, seed=3).run(main)
    for rank in range(2):
        assert res[rank] == [bytes([i]) * 200 for i in range(12)]


def test_meiko_accepts_faults_and_counts_drops():
    """The Meiko fabric honours loss rules; a window that swallows the
    eager payload leaves the job deadlocked and the watchdog reports it."""

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 64, dest=1, tag=1)
        else:
            yield from comm.recv(source=0, tag=1)

    world = World(2, platform="meiko", faults=FaultPlan.loss(1.0), seed=0)
    with pytest.raises(DeadlockError):
        world.run(main)
    assert world.platform.machine.network.packets_dropped > 0


# ---------------------------------------------------------------------------
# host-level rules
# ---------------------------------------------------------------------------


def _timed_pingpong(platform="ethernet", faults=None, msgs=6):
    def main(comm):
        other = 1 - comm.rank
        for i in range(msgs):
            if comm.rank == 0:
                yield from comm.send(b"x" * 100, dest=other, tag=1)
                yield from comm.recv(source=other, tag=1)
            else:
                yield from comm.recv(source=other, tag=1)
                yield from comm.send(b"x" * 100, dest=other, tag=1)
        return comm.wtime()

    world = World(2, platform=platform, faults=faults, seed=0)
    return max(world.run(main))


def test_node_slow_stretches_runtime():
    base = _timed_pingpong()
    slowed = _timed_pingpong(faults=FaultPlan.of(NodeSlow(node=1, factor=4.0)))
    assert slowed > base * 1.2


def test_node_pause_delays_completion():
    base = _timed_pingpong()
    paused = _timed_pingpong(
        faults=FaultPlan.of(NodePause(node=0, t_start=0.0, t_end=base + 5_000.0))
    )
    assert paused >= base + 4_000.0


def test_node_crash_deadlocks_peers():
    world = World(2, platform="ethernet",
                  faults=FaultPlan.of(NodeCrash(node=1, at=0.0)),
                  kernel_params=KernelParams().with_overrides(
                      rto=2_000.0, max_retries=3),
                  seed=0)

    def main(comm):
        if comm.rank == 0:
            yield from comm.recv(source=1, tag=1)
        else:
            yield from comm.recv(source=0, tag=1)

    with pytest.raises(DeadlockError) as ei:
        world.run(main)
    assert 0 in ei.value.stuck_ranks


def test_host_rule_bad_node_id_rejected():
    with pytest.raises(ConfigurationError):
        World(2, platform="ethernet",
              faults=FaultPlan.of(NodeCrash(node=9, at=0.0)))


def test_meiko_still_rejects_cluster_only_options_but_takes_faults():
    with pytest.raises(ConfigurationError):
        World(2, platform="meiko", kernel_params=LOSSY_KP)
    # faults are fine on the meiko
    World(2, platform="meiko", faults=FaultPlan.loss(0.0))
