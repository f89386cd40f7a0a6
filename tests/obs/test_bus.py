"""EventBus unit tests: emission, counters, filtering, subscribers,
run labelling, and message correlation."""

from collections import Counter

from repro.obs import Event, EventBus, msgid


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


def test_layer_filter_drops_at_the_door():
    bus = EventBus(layers={"dev"})
    bus.emit(0.0, "dev", "msg.send")
    bus.emit(0.0, "sim", "timer.arm")
    bus.emit(0.0, "net", "seg.send")
    assert [e.layer for e in bus] == ["dev"]
    # dropped events don't count either
    assert bus.counters.get("sim.timer.arm") == 0


def test_subscribe_and_unsubscribe():
    bus = EventBus()
    seen = []
    fn = bus.subscribe(seen.append)
    bus.emit(0.0, "mpi", "call.enter")
    bus.unsubscribe(fn)
    bus.emit(1.0, "mpi", "call.exit")
    assert [e.kind for e in seen] == ["call.enter"]
    # unsubscribing twice is harmless
    bus.unsubscribe(fn)


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
    the stream after live emission, a merge, a layer filter and a clear."""
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

    filtered = EventBus(layers={"dev"})
    filtered.emit(0.0, "sim", "timer.arm")
    filtered.extend(other.events)
    assert filtered.counters.snapshot() == _census(filtered) == {"dev.msg.send": 1}

    bus.clear()
    assert bus.counters.snapshot() == _census(bus) == {}
    assert bus.counters.render() == "(no counters)"


def test_extend_keeps_order_and_notifies_subscribers():
    src = EventBus()
    for i, kind in enumerate(("a", "b", "c")):
        src.emit(float(i), "dev", kind)
    plain = EventBus()
    plain.extend(src.events)
    assert plain.events == src.events
    seen = []
    watched = EventBus()
    watched.subscribe(seen.append)
    watched.emit(-1.0, "dev", "first")
    watched.extend(src.events)
    assert [e.kind for e in watched] == ["first", "a", "b", "c"]
    assert seen == watched.events
