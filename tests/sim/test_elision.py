"""The kernel contract behind ``Simulator.elide`` / ``hold`` / ``grant1`` /
``stop`` / ``StopRun``.

Elision must be invisible: a simulator that elides and the
``Simulator(elide=False)`` oracle (every elidable event takes its heap
trip) produce the identical sequence of (time, sequence number, resumed
process), end on the identical ``_seq`` and emit the identical bus
stream, in ``run()`` with and without a bus attached, in
``run(until=...)`` slices and under ``step()``.  So must carrying a
granted claim into its hold, against a copy of the two-wakeup claim
kept here as the reference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.node import Processor
from repro.sim import Interrupt, Resource, Simulator, StopRun, Store
from repro.sim.notify import Notify

INF = float("inf")


# ---------------------------------------------------------------------------
# random process programs
# ---------------------------------------------------------------------------

N_RES, N_CPU, N_STORE, N_NOTIFY = 2, 2, 3, 2
STORE_CAPS = (1, 2, INF)

#: small integer delays: same-timestamp ties are the common case
_delay = st.sampled_from([0.0, 0.0, 1.0, 2.0])
#: a self-sleep lands on, between and beyond the integer grid
_hold_delay = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_op = st.one_of(
    st.tuples(st.just("use"), st.integers(0, N_RES - 1), _delay),
    st.tuples(st.just("request"), st.integers(0, N_RES - 1), _delay),
    st.tuples(st.just("exec"), st.integers(0, N_CPU - 1), _delay),
    st.tuples(st.just("post"), st.integers(0, N_STORE - 1)),
    st.tuples(st.just("put"), st.integers(0, N_STORE - 1)),
    st.tuples(st.just("get"), st.integers(0, N_STORE - 1)),
    st.tuples(st.just("set"), st.integers(0, N_NOTIFY - 1)),
    st.tuples(st.just("wait"), st.integers(0, N_NOTIFY - 1)),
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("hold"), _hold_delay),
    st.tuples(st.just("arm"), _hold_delay),
    st.tuples(st.just("cancel")),
    st.tuples(st.just("stop")),
    st.tuples(st.just("gate_wait")),
    st.tuples(st.just("gate_fire")),
    st.tuples(st.just("gate_timer"), _hold_delay),
)
_programs = st.lists(st.lists(_op, min_size=1, max_size=8), min_size=1, max_size=5)

LOOPS = ("run", "traced", "until", "step")


class _ListBus:
    """Just enough of an EventBus to record what the kernel emits."""

    def __init__(self):
        self.events = []

    def emit(self, t, layer, kind, rank=None, detail=None):
        self.events.append((t, layer, kind, rank, repr(detail)))

    def emit_timer(self, t, kind, delay):
        self.emit(t, "sim", kind, detail={"delay": delay})


def _nap(sim, delay):
    """A process's own sleep, the way model code takes it."""
    if not sim.hold(delay):
        yield sim.timeout1(delay)


def _drain(sim, loop):
    """Run *sim* to exhaustion the *loop* way, resuming after stops."""
    if loop == "step":
        while sim.peek() != INF:
            try:
                sim.step()
            except StopRun:
                pass
    elif loop == "until":
        h = 0.0
        while sim.peek() != INF:
            h += 1.25  # slices end between, on and beyond the events
            sim.run(until=h)
    else:
        while sim.peek() != INF:
            sim.run()


def _drive(programs, elide, loop, store_cls=Store):
    """Run *programs* (one op list per process); return (log, final _seq,
    bus stream or None)."""
    sim = Simulator(elide=elide)
    if loop == "traced":
        sim.obs = _ListBus()
    res = [Resource(sim, capacity=1 + i) for i in range(N_RES)]
    cpus = [Processor(sim, name=f"cpu{i}") for i in range(N_CPU)]
    stores = [store_cls(sim, capacity=cap) for cap in STORE_CAPS]
    notifies = [Notify(sim) for _ in range(N_NOTIFY)]
    gate = sim.event()  # several processes wait on it: a multi-callback fire
    log = []

    def body(pid, ops):
        timers = []
        for i, op in enumerate(ops):
            kind = op[0]
            got = None
            if kind == "use":
                yield from res[op[1]].use(op[2])
            elif kind == "request":
                req = res[op[1]].request()
                yield req
                yield sim.timeout(op[2])
                res[op[1]].release(req)
            elif kind == "exec":
                yield from cpus[op[1]].execute(op[2])
            elif kind == "post":
                stores[op[1]].post((pid, i))
            elif kind == "put":
                yield stores[op[1]].put((pid, i))
            elif kind == "get":
                got = yield stores[op[1]].get()
            elif kind == "set":
                notifies[op[1]].set()
            elif kind == "wait":
                yield notifies[op[1]].wait1()
            elif kind == "sleep":
                yield sim.timeout(op[1])
            elif kind == "hold":
                yield from _nap(sim, op[1])
            elif kind == "arm":
                timers.append(sim.call_later(
                    op[1], lambda _ev, at=(pid, i): log.append(
                        (sim.now, sim._seq, "timer", at))))
            elif kind == "cancel":
                if timers:
                    timers.pop().cancel()  # a tombstone while still queued
            elif kind == "stop":
                sim.stop()
            elif kind == "gate_wait":
                yield gate
            elif kind == "gate_fire":
                if not gate.triggered:
                    gate.succeed()
            elif kind == "gate_timer":
                # fired from a callback: its waiters may find the heap empty
                sim.call_later(op[1], lambda _ev: gate.triggered or gate.succeed())
            log.append((sim.now, sim._seq, pid, i, got))

    for pid, ops in enumerate(programs):
        sim.process(body(pid, ops), name=f"p{pid}")
    _drain(sim, loop)
    return log, sim._seq, (sim.obs.events if loop == "traced" else None)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_programs)
def test_elision_is_invisible(programs):
    for loop in LOOPS:
        assert _drive(programs, elide=True, loop=loop) == _drive(programs, elide=False, loop=loop)
    # the untraced loops agree with the traced one and with each other
    log, seq, _bus = _drive(programs, elide=False, loop="traced")
    for loop in ("run", "until", "step"):
        assert _drive(programs, elide=True, loop=loop)[:2] == (log, seq)


def test_sibling_waiters_block_self_wakeup_elision():
    """Two processes resumed by one event: the first must not run ahead
    of the second although the heap shows nothing runnable.  (If it did,
    its hold would be numbered before the sibling's timer and the two
    would swap places at t=2.)"""
    programs = [
        [("gate_wait",), ("exec", 0, 1.0)],
        [("gate_wait",), ("sleep", 1.0)],
        [("sleep", 1.0), ("gate_fire",), ("sleep", 2.0)],
    ]
    for loop in LOOPS:
        assert _drive(programs, elide=True, loop=loop) == _drive(programs, elide=False, loop=loop)


def _fired_events(sim):
    n = 0
    while sim.peek() != INF:
        sim.step()
        n += 1
    return n


def test_elision_skips_the_heap_but_keeps_the_sequence_number():
    def count(elide):
        sim = Simulator(elide=elide)
        cpu = Processor(sim)
        store = Store(sim)

        def proc():
            yield from cpu.execute(1.0)
            store.post("x")

        sim.process(proc())
        return _fired_events(sim), sim._seq

    fired_oracle, seq_oracle = count(False)
    fired, seq = count(True)
    # start, grant, hold, put acceptance, process exit
    assert (fired_oracle, seq_oracle) == (5, 5)
    assert (fired, seq) == (3, 5)


# ---------------------------------------------------------------------------
# Simulator.hold: the explicit cases
# ---------------------------------------------------------------------------


def _both(build, drain=lambda sim: _drain(sim, "run")):
    """Run *build* then *drain* on the oracle and on an eliding
    simulator, untraced and traced; assert the same log, ``_seq``, clock
    and bus stream, and that the oracle never held.  Return the eliding
    untraced run's (log, grants -- one bool per hold -- simulator)."""
    runs = {}
    for elide in (False, True):
        for traced in (False, True):
            sim = Simulator(elide=elide)
            if traced:
                sim.obs = _ListBus()
            log, grants = [], []
            build(sim, log, grants)
            drain(sim)
            runs[elide, traced] = (log, sim._seq, sim.now), grants, sim
    oracle = runs[False, False][0]
    for (elide, _traced), (outcome, grants, _sim) in runs.items():
        assert outcome == oracle
        assert elide or not any(grants)
    assert runs[True, True][2].obs.events == runs[False, True][2].obs.events
    (log, _seq, _now), grants, sim = runs[True, False]
    return log, grants, sim


def _hold_logged(sim, delay, log, grants, who):
    granted = sim.hold(delay)
    grants.append(granted)
    if not granted:
        yield sim.timeout1(delay)
    log.append((sim.now, sim._seq, who))


def test_hold_refuses_a_tie_at_its_deadline():
    def build(sim, log, grants):
        def first():
            yield sim.timeout(3.0)
            log.append((sim.now, sim._seq, "B"))

        def second():
            yield sim.timeout(1.0)
            yield from _hold_logged(sim, 2.0, log, grants, "A")  # lands on B
            yield sim.timeout(0.0)  # behind B's exit, also at t=3
            yield from _hold_logged(sim, 1.0, log, grants, "A")  # nothing queued

        sim.process(first())
        sim.process(second())

    _log, grants, sim = _both(build)
    assert grants == [False, True]
    assert sim.now == 4.0 and sim.elided == 1


def test_hold_prunes_a_tombstone_off_the_top():
    def build(sim, log, grants):
        def proc():
            sim.call_later(1.0, lambda _ev: None).cancel()
            later = sim.call_later(5.0, lambda _ev: log.append((sim.now, sim._seq, "timer")))
            yield from _hold_logged(sim, 2.0, log, grants, "A")  # past the tombstone
            yield from _hold_logged(sim, 3.0, log, grants, "A")  # ties the live timer
            assert later.processed

        sim.process(proc())

    _log, grants, sim = _both(build)
    assert grants == [True, False]
    assert sim._dead == 0


def test_hold_stays_inside_the_run_horizon():
    def build(sim, log, grants):
        def proc():
            yield from _hold_logged(sim, 3.0, log, grants, "A")  # exactly at the horizon
            yield from _hold_logged(sim, 2.0, log, grants, "A")  # crosses it

        sim.process(proc())

    def drain(sim):
        sim.run(until=3.0)
        assert sim.now == 3.0 and sim.peek() == 5.0
        sim.run(until=4.0)
        assert sim.now == 4.0 and sim.peek() == 5.0
        sim.run()

    _log, grants, sim = _both(build, drain)
    assert grants == [True, False]


def test_hold_refuses_behind_a_stop_sentinel():
    def build(sim, log, grants):
        def proc():
            sim.stop()
            yield from _hold_logged(sim, 1.0, log, grants, "A")
            yield from _hold_logged(sim, 1.0, log, grants, "A")

        sim.process(proc())

    def drain(sim):
        sim.run()
        assert sim.now == 0.0 and not sim._stopping  # stopped at the sentinel
        sim.run()

    _log, grants, sim = _both(build, drain)
    assert grants == [False, True]


def test_hold_never_grants_under_step():
    def build(sim, log, grants):
        def proc():
            sim.stop()
            for _ in range(3):
                yield from _hold_logged(sim, 1.0, log, grants, "A")

        sim.process(proc())

    def drain(sim):
        sim.run()  # stopped before the first hold: its horizon is gone
        _drain(sim, "step")

    _log, grants, sim = _both(build, drain)
    assert grants == [False] * 3 and sim.elided == 0


def test_hold_refuses_while_sibling_waiters_are_pending():
    def build(sim, log, grants):
        gate = sim.event()

        def waiter(who):
            yield gate
            yield from _hold_logged(sim, 1.0, log, grants, who)

        for who in "ABC":
            sim.process(waiter(who))
        # opened from a timer callback: nothing else is queued at t=1
        sim.call_later(1.0, lambda _ev: gate.succeed())

    log, grants, _sim = _both(build)
    # all three resume from one fire: none may run ahead of the others
    assert grants == [False, False, False]
    assert [(t, who) for t, _seq, who in log] == [(2.0, "A"), (2.0, "B"), (2.0, "C")]


@pytest.mark.parametrize("elide", [True, False])
def test_hold_rejects_a_negative_delay(elide):
    sim = Simulator(elide=elide)
    with pytest.raises(ValueError, match="negative delay"):
        sim.hold(-1.0)
    assert sim._seq == 0


def test_elided_counts_every_sequence_number_that_skipped_the_heap():
    sim = Simulator()
    cpu = Processor(sim)
    store = Store(sim)

    def proc():
        yield from cpu.execute(1.0)  # grant elided, hold held
        store.post("x")  # orphan acceptance elided

    sim.process(proc())
    sim.run()
    # start, grant, hold, acceptance, exit: three never touched the heap
    assert (sim._seq, sim.elided) == (5, 3)


# ---------------------------------------------------------------------------
# a grant carried into its hold: one wakeup per claim
# ---------------------------------------------------------------------------


def _ref_use(res, hold_time):
    """``Resource.use`` as it was before the loop carried grants: the
    holder is woken by its grant (a pooled event, or the queued
    ``Request``) and then schedules its own hold."""
    sim = res.sim
    if res._in_use < res.capacity and not res._queue:
        res._in_use += 1
        try:
            if not sim.elide():
                yield sim.event1().succeed(None)
            if not sim.hold(hold_time):
                yield sim.timeout1(hold_time)
        finally:
            res._hand_on()
        return
    req = res.request()
    released = False
    try:
        yield req
        if not sim.hold(hold_time):
            yield sim.timeout1(hold_time)
        res.release(req)
        released = True
    finally:
        if not released:
            res.release(req)


def _ref_execute(cpu, cost):
    """``Processor.execute`` on the two-wakeup claim of :func:`_ref_use`."""
    scaled = cost / cpu.speed
    cpu.busy_time += scaled
    yield from _ref_use(cpu._res, scaled)


_claim_op = st.one_of(
    st.tuples(st.just("use"), st.integers(0, N_RES - 1), _hold_delay),
    st.tuples(st.just("exec"), st.integers(0, N_CPU - 1), _hold_delay),
    st.tuples(st.just("request"), st.integers(0, N_RES - 1), _delay),
    st.tuples(st.just("sleep"), _delay),
    st.tuples(st.just("hold"), _hold_delay),
    st.tuples(st.just("interrupt"), st.integers(0, 4)),
    # a pooled timer withdrawn at once: its tombstone is recycled into
    # the free list the grants share
    st.tuples(st.just("cancel1"), _hold_delay),
    st.tuples(st.just("stop")),
)
_claim_programs = st.lists(st.lists(_claim_op, min_size=1, max_size=8), min_size=2, max_size=5)


def _drive_claims(programs, carried, loop, pool=True, elide=True):
    """Run claim *programs* on the kernel's ``use``/``execute`` (*carried*)
    or on the two-wakeup reference; return everything observable."""
    sim = Simulator(pool=pool, elide=elide)
    if loop == "traced":
        sim.obs = _ListBus()
    res = [Resource(sim, capacity=1 + i) for i in range(N_RES)]
    cpus = [Processor(sim, name=f"cpu{i}") for i in range(N_CPU)]
    use = Resource.use if carried else _ref_use
    execute = Processor.execute if carried else _ref_execute
    procs = []
    log = []

    def body(pid, ops):
        for i, op in enumerate(ops):
            kind = op[0]
            try:
                if kind == "use":
                    yield from use(res[op[1]], op[2])
                elif kind == "exec":
                    yield from execute(cpus[op[1]], op[2])
                elif kind == "request":
                    req = res[op[1]].request()
                    try:
                        yield req
                        yield sim.timeout(op[2])
                    finally:
                        res[op[1]].release(req)
                elif kind == "sleep":
                    yield sim.timeout(op[1])
                elif kind == "hold":
                    yield from _nap(sim, op[1])
                elif kind == "interrupt":
                    # only a process blocked on an event: one not yet
                    # started (or already interrupted) would be resumed
                    # twice, by either implementation
                    victim = procs[op[1] % len(procs)]
                    if victim._target is not None:
                        victim.interrupt((pid, i))
                elif kind == "cancel1":
                    sim.timeout1(op[1]).cancel()
                elif kind == "stop":
                    sim.stop()
            except Interrupt as irq:
                log.append((sim.now, sim._seq, pid, i, "interrupted", irq.cause))
                continue
            log.append((sim.now, sim._seq, pid, i))

    for pid, ops in enumerate(programs):
        procs.append(sim.process(body(pid, ops), name=f"p{pid}"))
    _drain(sim, loop)
    state = ([(r.in_use, r.queued) for r in res]
             + [(c._res.in_use, c._res.queued, c.busy_time) for c in cpus])
    return (log, sim._seq, sim.elided, sim.now, state,
            sim.obs.events if loop == "traced" else None), sim.carried


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_claim_programs)
def test_carried_grants_match_the_two_wakeup_reference(programs):
    for loop in LOOPS:
        for pool in (True, False):
            for elide in (True, False):
                got, carried = _drive_claims(programs, True, loop, pool, elide)
                want, none = _drive_claims(programs, False, loop, pool, elide)
                assert got == want, (loop, pool, elide)
                assert none == 0


def _count_resumes(proc):
    """Count the resumes of *proc* after its start."""
    n = [0]
    inner = proc._resume_cb

    def counted(event):
        n[0] += 1
        inner(event)

    proc._resume_cb = counted
    return n


@pytest.mark.parametrize("loop", LOOPS)
def test_a_contended_charge_wakes_its_process_once(loop):
    """Two processes charge two CPUs at the same instant, so neither
    grant may be elided; each is carried into its hold (refused: the
    other's hold is due at the same time) and wakes its process once,
    at the end of the charge, instead of twice."""
    def run(carried):
        sim = Simulator()
        if loop == "traced":
            sim.obs = _ListBus()
        cpus = [Processor(sim), Processor(sim)]
        execute = Processor.execute if carried else _ref_execute
        log = []

        def proc(cpu):
            yield from execute(cpu, 1.0)
            log.append((sim.now, sim._seq))

        counts = [_count_resumes(sim.process(proc(cpu))) for cpu in cpus]
        _drain(sim, loop)
        return (log, sim._seq, sim.elided, getattr(sim.obs, "events", None)), \
            [n[0] for n in counts], sim.carried

    (outcome, resumes, carried) = run(True)
    (want, want_resumes, none) = run(False)
    assert outcome == want
    assert (resumes, carried) == ([1, 1], 2)
    assert (want_resumes, none) == ([2, 2], 0)


def _interrupt_at(phase, carried):
    """A process on a busy 1-unit resource (queued for the grant until
    t=2, then holding it until t=5) is interrupted during *phase*."""
    sim = Simulator()
    res = Resource(sim, capacity=1)
    use = Resource.use if carried else _ref_use
    log = []

    def holder():
        yield from use(res, 2.0)
        log.append(("holder done", sim.now, sim._seq))
        if phase == "granted":  # the grant it handed on has not fired
            v.interrupt("now")

    def victim():
        try:
            yield from use(res, 3.0)
        except Interrupt:
            log.append(("interrupted", sim.now, sim._seq, res.in_use, res.queued))
        log.append(("victim done", sim.now, sim._seq))

    def after():
        yield from use(res, 1.0)
        log.append(("after done", sim.now, sim._seq))

    sim.process(holder())
    v = sim.process(victim())
    sim.process(after())
    if phase != "granted":
        at = {"queued": 1.0, "hold": 3.0}[phase]
        sim.call_later(at, lambda _ev: v.interrupt("now"))
    sim.run()
    return log, sim._seq, sim.now, res.in_use, res.queued


@pytest.mark.parametrize("phase", ["queued", "granted", "hold"])
def test_an_interrupted_claim_matches_the_reference(phase):
    """Interrupted while queued, with its grant scheduled but not yet
    fired, or during the hold: the claim is withdrawn or released as
    before, the orphaned grant or hold fires into nobody and takes no
    second sequence number."""
    got = _interrupt_at(phase, True)
    assert got == _interrupt_at(phase, False)
    interrupted_at = [entry[1] for entry in got[0] if entry[0] == "interrupted"]
    assert interrupted_at == [{"queued": 1.0, "granted": 2.0, "hold": 3.0}[phase]]


@pytest.mark.parametrize("pool", [True, False])
def test_a_grant_record_is_rearmed_once_and_recycled_once(pool):
    sim = Simulator(pool=pool)
    cpus = [Processor(sim), Processor(sim)]
    records = []

    def proc(cpu):
        for _ in range(3):
            yield from cpu.execute(1.0)

    def grant1(delay, _inner=sim.grant1):
        records.append(_inner(delay))
        return records[-1]

    sim.grant1 = grant1
    for cpu in cpus:
        sim.process(proc(cpu))
    sim.run()
    # every grant was refused its hold (the other CPU's is due at the
    # same instant) and re-armed as its timeout.  Pooled, three records
    # serve the six claims (a resumed holder's next claim is allocated
    # before the record that woke it is recycled) and each lands on the
    # timeout free list exactly once; unpooled, none ever reaches it
    assert sim.carried == 6 and len(records) == 6
    if pool:
        assert len({id(r) for r in records}) == 3
        assert sorted(map(id, sim._tpool)) == sorted({id(r) for r in records})
    else:
        assert len({id(r) for r in records}) == 6 and sim._tpool == []


# ---------------------------------------------------------------------------
# Store.post
# ---------------------------------------------------------------------------


def test_post_on_a_full_store_queues_behind_earlier_putters():
    sim = Simulator()
    store = Store(sim, capacity=1)
    got = []

    def producer():
        yield store.put("a")
        handle = store.put("b")  # blocks: the store is full
        store.post("c")  # queues behind it
        yield handle
        got.append(("b accepted", sim.now))

    def consumer():
        yield sim.timeout(5.0)
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == ["a", ("b accepted", 5.0), "b", "c"]


# ---------------------------------------------------------------------------
# StopRun / stop()
# ---------------------------------------------------------------------------


def _three_waiters(sim, order):
    """An event with three callbacks, the first of which stops the run."""
    ev = sim.event()
    for i in range(3):
        def cb(_ev, i=i):
            order.append(i)
            if i == 0:
                raise StopRun
        ev.add_callback(cb)
    return ev


def test_stoprun_finishes_the_stopping_events_callbacks():
    for traced in (False, True):
        sim = Simulator()
        if traced:
            sim.obs = _ListBus()
        order = []
        _three_waiters(sim, order).succeed()
        later = sim.event()
        later.add_callback(lambda _ev: order.append("same-time event behind it"))
        later.succeed()
        sim.run()
        assert order == [0, 1, 2]  # waiters 1 and 2 are not dropped
        assert sim.peek() == 0.0  # the event behind it stays queued
        sim.run()
        assert order == [0, 1, 2, "same-time event behind it"]


def test_stoprun_recycles_the_stopping_record():
    sim = Simulator()
    rec = sim.timeout1(1.0)

    def cb(_ev):
        raise StopRun

    rec.add_callback(cb)
    sim.run()
    assert sim._tpool == [rec]


def test_stop_from_inside_a_process_is_order_neutral():
    def build(stop_at):
        sim = Simulator()
        log = []

        def proc(pid):
            for i in range(4):
                yield sim.timeout(1.0)
                log.append((sim.now, sim._seq, pid, i))
                if (pid, i) == stop_at:
                    sim.stop()

        for pid in range(3):
            sim.process(proc(pid))
        return sim, log

    ref_sim, ref_log = build(stop_at=None)
    ref_sim.run()

    sim, log = build(stop_at=(0, 1))
    sim.run()
    # stopped right after the event that asked, ahead of its same-time peers
    assert log == ref_log[:4] and sim.now == 2.0
    sim.run()
    assert log == ref_log and sim._seq == ref_sim._seq


def test_run_without_advancing_the_clock():
    sim = Simulator()
    sim.timeout(3.0)
    sim.timeout(50.0)
    sim.run(until=10.0, advance_clock=False)
    assert sim.now == 3.0 and sim.peek() == 50.0
    sim.run(until=10.0)
    assert sim.now == 10.0
