"""The kernel contract behind ``Simulator.elide`` / ``stop`` / ``StopRun``.

Elision must be invisible: a simulator that elides and the
``Simulator(elide=False)`` oracle (every elidable event takes its heap
trip) produce the identical sequence of (time, sequence number, resumed
process) and end on the identical ``_seq``, under both run loops and
under ``step()``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.node import Processor
from repro.sim import Resource, Simulator, StopRun, Store
from repro.sim.notify import Notify

INF = float("inf")


# ---------------------------------------------------------------------------
# random process programs
# ---------------------------------------------------------------------------

N_RES, N_CPU, N_STORE, N_NOTIFY = 2, 2, 3, 2
STORE_CAPS = (1, 2, INF)

#: small integer delays: same-timestamp ties are the common case
_delay = st.sampled_from([0.0, 0.0, 1.0, 2.0])
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
    st.tuples(st.just("gate_wait")),
    st.tuples(st.just("gate_fire")),
)
_programs = st.lists(st.lists(_op, min_size=1, max_size=8), min_size=1, max_size=5)


class _NullBus:
    """Just enough of an EventBus to select the traced run loop."""

    def emit(self, *args, **kwargs):
        pass


def _drive(programs, elide, loop, store_cls=Store):
    """Run *programs* (one op list per process); return (log, final _seq)."""
    sim = Simulator(elide=elide)
    if loop == "traced":
        sim.obs = _NullBus()
    res = [Resource(sim, capacity=1 + i) for i in range(N_RES)]
    cpus = [Processor(sim, name=f"cpu{i}") for i in range(N_CPU)]
    stores = [store_cls(sim, capacity=cap) for cap in STORE_CAPS]
    notifies = [Notify(sim) for _ in range(N_NOTIFY)]
    gate = sim.event()  # several processes wait on it: a multi-callback fire
    log = []

    def body(pid, ops):
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
            elif kind == "gate_wait":
                yield gate
            elif kind == "gate_fire":
                if not gate.triggered:
                    gate.succeed()
            log.append((sim.now, sim._seq, pid, i, got))

    for pid, ops in enumerate(programs):
        sim.process(body(pid, ops), name=f"p{pid}")
    if loop == "step":
        while sim.peek() != INF:
            sim.step()
    else:
        sim.run()
    return log, sim._seq


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_programs)
def test_elision_is_invisible(programs):
    oracle = _drive(programs, elide=False, loop="fast")
    assert _drive(programs, elide=True, loop="fast") == oracle
    assert _drive(programs, elide=True, loop="traced") == oracle
    assert _drive(programs, elide=True, loop="step") == oracle


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
    oracle = _drive(programs, elide=False, loop="fast")
    for loop in ("fast", "traced", "step"):
        assert _drive(programs, elide=True, loop=loop) == oracle


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
            sim.obs = _NullBus()
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
