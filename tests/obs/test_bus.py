"""EventBus unit tests: emission, counters, merging, run labelling,
message correlation, and the kernel's compact timer records."""

import pickle
from collections import Counter

from repro.obs import Event, EventBus, msgid, to_chrome, to_jsonl_lines
from repro.obs.bus import TimerEvent
from repro.sim import Simulator


def test_emit_records_typed_event():
    bus = EventBus()
    mid = msgid(0, 1, 0, 3)
    bus.emit(12.5, "dev", "env.arrived", rank=1, msg=mid, detail={"tag": 7})
    assert len(bus) == 1
    ev = bus.events[0]
    assert isinstance(ev, Event)
    assert (ev.t, ev.layer, ev.kind, ev.rank) == (12.5, "dev", "env.arrived", 1)
    assert ev.msg == (0, 1, 0, 3)
    assert ev.detail == {"tag": 7}
    assert ev.run is None


def test_counters_auto_increment_per_layer_kind():
    bus = EventBus()
    bus.emit(0.0, "dev", "msg.send")
    bus.emit(1.0, "dev", "msg.send")
    bus.emit(2.0, "net", "seg.retx")
    assert bus.counters.get("dev.msg.send") == 2
    assert bus.counters.get("net.seg.retx") == 1


def test_set_run_labels_subsequent_events():
    bus = EventBus()
    bus.emit(0.0, "dev", "msg.send")
    bus.set_run("sweep/loss=0.05")
    bus.emit(1.0, "dev", "msg.send")
    assert bus.events[0].run is None
    assert bus.events[1].run == "sweep/loss=0.05"


def test_for_message_collects_one_messages_life():
    bus = EventBus()
    mid = msgid(0, 1, 0, 0)
    other = msgid(1, 0, 0, 0)
    bus.emit(0.0, "dev", "msg.send", rank=0, msg=mid)
    bus.emit(1.0, "dev", "env.arrived", rank=1, msg=other)
    bus.emit(2.0, "dev", "env.arrived", rank=1, msg=mid)
    assert [e.kind for e in bus.for_message(mid)] == ["msg.send", "env.arrived"]


def test_queries_and_clear():
    bus = EventBus()
    bus.emit(0.0, "dev", "msg.send")
    bus.emit(1.0, "net", "seg.send")
    assert [e.kind for e in bus.by_layer("net")] == ["seg.send"]
    assert [e.layer for e in bus.by_kind("msg.send")] == ["dev"]
    bus.clear()
    assert len(bus) == 0
    assert bus.counters.get("dev.msg.send") == 0


def _census(bus):
    return dict(Counter(f"{e.layer}.{e.kind}" for e in bus.events))


def test_counters_are_a_census_of_the_stream():
    """``counters`` is counted from ``events`` when read: it agrees with
    the stream after live emission, a merge and a clear."""
    bus = EventBus()
    bus.emit(0.0, "dev", "msg.send")
    bus.emit(1.0, "sim", "timer.fire")
    assert bus.counters.snapshot() == _census(bus)
    other = EventBus()
    other.emit(2.0, "dev", "msg.send")
    other.emit(3.0, "net", "seg.retx")
    bus.extend(other.events)
    assert bus.counters.snapshot() == _census(bus) == {
        "dev.msg.send": 2, "net.seg.retx": 1, "sim.timer.fire": 1}
    assert "net.seg.retx" in bus.counters and len(bus.counters) == 3
    assert bus.counters["sim.timer.arm"] == 0
    assert list(bus.counters) == sorted(_census(bus).items())

    bus.clear()
    assert bus.counters.snapshot() == _census(bus) == {}
    assert bus.counters.render() == "(no counters)"


def test_extend_keeps_order():
    src = EventBus()
    for i, kind in enumerate(("a", "b", "c")):
        src.emit(float(i), "dev", kind)
    plain = EventBus()
    plain.extend(src.events)
    assert plain.events == src.events
    merged = EventBus()
    merged.emit(-1.0, "dev", "first")
    merged.extend(src.events)
    assert [e.kind for e in merged] == ["first", "a", "b", "c"]
    assert merged.events[1:] == src.events


# ---------------------------------------------------------------------------
# kernel timer events: a four-field record that reads like an Event
# ---------------------------------------------------------------------------

_FIELDS = ("t", "layer", "kind", "rank", "msg", "detail", "run")


def _fields(ev):
    return tuple(getattr(ev, f) for f in _FIELDS)


def _timer_sim(bus):
    """A simulator emitting all three timer kinds: an armed callback
    timer that fires, one that is cancelled, and a process's timeouts."""
    sim = Simulator()
    sim.obs = bus
    sim.call_later(2.0, lambda ev: None)
    sim.call_later(9.0, lambda ev: None).cancel()

    def sleeper():
        yield sim.timeout(1.0)
        yield sim.timeout(0.5)

    sim.process(sleeper())
    sim.run()
    return sim


def test_a_timer_record_reads_like_the_event_emit_would_record():
    compact, full = EventBus(), EventBus()
    for bus in (compact, full):
        bus.set_run("cell/0")
    compact.emit_timer(3.5, "timer.fire", 1.25)
    full.emit(3.5, "sim", "timer.fire", detail={"delay": 1.25})
    (rec,), (ev,) = compact.events, full.events
    assert isinstance(rec, TimerEvent)
    assert _fields(rec) == _fields(ev) == (
        3.5, "sim", "timer.fire", None, None, {"delay": 1.25}, "cell/0")
    assert list(to_jsonl_lines(compact)) == list(to_jsonl_lines(full))
    assert to_chrome(compact) == to_chrome(full)


def test_a_timer_records_detail_is_a_new_dict_on_every_read():
    bus = EventBus()
    bus.emit_timer(0.0, "timer.arm", 4.0)
    rec = bus.events[0]
    first = rec.detail
    first["delay"] = -1.0
    assert rec.detail == {"delay": 4.0}
    assert rec.detail is not rec.detail


def test_a_timer_record_survives_a_pickle_round_trip():
    bus = EventBus()
    bus.set_run("soak/atm-udp")
    bus.emit_timer(7.0, "timer.cancel", 0.25)
    (back,) = pickle.loads(pickle.dumps(bus.events, pickle.HIGHEST_PROTOCOL))
    assert type(back) is TimerEvent
    assert _fields(back) == _fields(bus.events[0])


def test_timer_records_are_in_emission_order_and_counters_count_them():
    bus = EventBus()
    _timer_sim(bus)
    timers = [(e.t, e.kind, e.detail["delay"]) for e in bus.events if e.kind.startswith("timer.")]
    assert timers == [
        (0.0, "timer.arm", 2.0), (0.0, "timer.arm", 9.0), (0.0, "timer.cancel", 9.0),
        (1.0, "timer.fire", 1.0), (1.5, "timer.fire", 0.5), (2.0, "timer.fire", 2.0),
    ]
    assert all(type(e) is TimerEvent for e in bus.events if e.kind.startswith("timer."))
    assert bus.counters["sim.timer.fire"] == 3
    assert bus.counters["sim.timer.arm"] == 2
    assert bus.counters["sim.timer.cancel"] == 1
