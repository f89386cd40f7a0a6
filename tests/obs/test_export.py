"""Trace exporters and the CI schema checker."""

import enum
import json
import random

import pytest

from repro.obs import EventBus, msgid, to_chrome, to_jsonl_lines, write_trace
from repro.obs.schema import main as schema_main
from repro.obs.schema import validate_chrome_trace


def _call_bus():
    """A tiny bus with one MPI call span per rank and a device instant."""
    bus = EventBus()
    bus.emit(0.0, "mpi", "call.enter", rank=0, detail={"call": "send", "peer": 1})
    bus.emit(1.0, "dev", "msg.send", rank=0, msg=msgid(0, 1, 0, 0),
             detail={"tag": 7, "nbytes": 64})
    bus.emit(5.0, "mpi", "call.exit", rank=0, detail={"call": "send", "peer": 1})
    bus.emit(2.0, "mpi", "call.enter", rank=1, detail={"call": "recv"})
    bus.emit(6.0, "mpi", "call.exit", rank=1, detail={"call": "recv"})
    return bus


def test_chrome_spans_and_instants():
    trace = to_chrome(_call_bus())
    events = trace["traceEvents"]
    assert validate_chrome_trace(trace) == []
    spans = [e for e in events if e["ph"] in ("B", "E")]
    assert [e["ph"] for e in spans if e["tid"] == 0] == ["B", "E"]
    assert [e["ph"] for e in spans if e["tid"] == 1] == ["B", "E"]
    (b0,) = [e for e in spans if e["ph"] == "B" and e["tid"] == 0]
    assert b0["name"] == "send" and b0["ts"] == 0.0
    (inst,) = [e for e in events if e["ph"] == "i"]
    assert inst["name"] == "msg.send"
    assert inst["args"]["msg"] == [0, 1, 0, 0]
    # thread metadata names each rank's track
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert {"rank 0", "rank 1"} <= names


def test_chrome_pids_follow_run_labels():
    bus = EventBus()
    bus.set_run("run-a")
    bus.emit(0.0, "dev", "msg.send", rank=0)
    bus.set_run("run-b")
    bus.emit(1.0, "dev", "msg.send", rank=0)
    trace = to_chrome(bus)
    procs = {e["args"]["name"]: e["pid"] for e in trace["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert set(procs) == {"run-a", "run-b"}
    assert len(set(procs.values())) == 2
    assert validate_chrome_trace(trace) == []


def test_jsonl_round_trips():
    lines = list(to_jsonl_lines(_call_bus()))
    assert len(lines) == 5
    recs = [json.loads(line) for line in lines]
    assert recs[1] == {"t": 1.0, "layer": "dev", "kind": "msg.send", "rank": 0,
                       "msg": [0, 1, 0, 0], "detail": {"tag": 7, "nbytes": 64}}


def test_write_trace_formats(tmp_path):
    bus = _call_bus()
    chrome = tmp_path / "t.json"
    jsonl = tmp_path / "t.jsonl"
    write_trace(bus, str(chrome), "chrome")
    write_trace(bus, str(jsonl), "jsonl")
    assert validate_chrome_trace(json.loads(chrome.read_text())) == []
    assert len(jsonl.read_text().splitlines()) == 5
    with pytest.raises(ValueError, match="unknown trace format"):
        write_trace(bus, str(chrome), "protobuf")


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_streamed_chrome_file_equals_one_shot_dump(tmp_path, monkeypatch, chunk):
    """write_trace streams record chunks through the C encoder; the file
    must stay byte-for-byte what ``json.dumps`` of the whole document
    gives, across chunk boundaries and for non-JSON detail values."""
    from repro.obs import export

    monkeypatch.setattr(export, "_CHUNK", chunk)
    bus = _call_bus()
    bus.emit(7.0, "fault", "node.crash", rank=1,
             detail={"at": 7.0, "who": frozenset([2]), "skip": None})
    path = tmp_path / "t.json"
    write_trace(bus, str(path), "chrome")
    text = path.read_text()
    assert text == json.dumps(to_chrome(bus), default=str) + "\n"
    assert validate_chrome_trace(json.loads(text)) == []


# ---------------------------------------------------------------------------
# the text writers against the dict records, on hostile shapes
# ---------------------------------------------------------------------------


class _Level(enum.IntEnum):
    LOW = 1


class _Float(float):
    def __repr__(self):
        return "not-json"


class _Str(str):
    pass


#: values the writers must either write as the C encoder would or hand
#: back to it: subclasses, non-finite floats, -0.0, bools, control and
#: non-ASCII text, containers, and a frozenset (``default=str``)
_HOSTILE_VALUES = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1, 1.0, True, False,
    _Level.LOW, _Float(2.5), _Str("sub"), "ünïcødé ✓ 🚀", "ctl\x00\x1f\n\t\"\\",
    None, {"in": float("nan"), "x": [1, None]}, [1, "two", 3.0], frozenset([2]),
    2**70, -7,
]
#: timestamps the text path must write exactly or hand back
_HOSTILE_TIMES = [0.0, -0.0, 1, 1.0, True, float("nan"), float("inf"), _Float(3.0), _Level.LOW]
#: back-to-back timestamps that are equal but written differently
_TWINS = [(0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, True)]


def _fuzz_bus(seed):
    """A bus of real event shapes salted with hostile ones."""
    rng = random.Random(seed)
    bus = EventBus()
    times = [rng.random() * 1e3 for _ in range(6)]  # shared objects: ``ev.t is`` the last t
    twin = None
    for _ in range(rng.randrange(60, 160)):
        if rng.random() < 0.05:
            bus.set_run(rng.choice([None, "run-a", "cell 7", ("cell", 3), 1, 1.0]))
        r = rng.random()
        if twin is not None:
            t, twin = twin, None
        elif r < 0.05:
            t, twin = rng.choice(_TWINS)
        else:
            t = rng.choice(_HOSTILE_TIMES if r < 0.15 else times) if r < 0.6 else rng.random() * 1e4
        rank = rng.choice([0, 1, 2, 3, 1023, None, None, True, False, _Level.LOW, -2])
        shape = rng.randrange(8)
        if shape == 0:
            delay = rng.choice([0.25, 10.0, 2000.0, rng.random(), None, -0.0, 3,
                                float("nan"), _Float(1.0), True])
            bus.emit_timer(t, rng.choice(["timer.arm", "timer.fire", "timer.cancel"]), delay)
        elif shape == 1:
            call = rng.choice(["send", "recv", "bcast", "barrier", 1, 1.0, True, None, _Str("send")])
            detail = rng.choice([{"call": call}, {"call": call, "peer": rng.randrange(8)},
                                 {"call": call, "peer": None},
                                 {"call": call, "tag": rng.choice(_HOSTILE_VALUES)},
                                 {"peer": 1}, {"peer": None}, {}, None])
            bus.emit(t, "mpi", rng.choice(["call.enter", "call.exit"]), rank=rank, detail=detail)
        elif shape == 2:
            msg = rng.choice([(0, 1, 0, rng.randrange(99)), (2, 3, 1, 4), (0, 1, "x", 2.5),
                              (True, 1, 0, 0), [0, 1], (7,), ()])
            detail = {"tag": rng.randrange(9), "nbytes": rng.choice([0, 64, 2**40]), "mode": "eager"}
            if rng.random() < 0.2:
                detail["msg"] = rng.choice(["inner", None, 5])
            bus.emit(t, "dev", rng.choice(["msg.send", "env.arrived", "match.hit"]), rank=rank, msg=msg,
                     detail=rng.choice([detail, detail, None, {}]))
        else:
            keys = ["ok", "name", "size", "ünï", "ctl\x07", 1, None, _Str("key")]
            detail = {rng.choice(keys): rng.choice(_HOSTILE_VALUES) for _ in range(rng.randrange(4))}
            layer = rng.choice(["sim", "net", "fault", "ft", "trace", _Str("dev")])
            kind = rng.choice(["process.exit", "seg.send", "node.crash", "agree", _Str("odd.kind")])
            bus.emit(t, layer, kind, rank=rank, msg=rng.choice([None, None, (1, 2, 3, 4)]), detail=detail)
    if seed % 4 == 3:  # a key the encoder refuses: both paths must raise the same
        bus.emit(5.0, "net", "seg.send", rank=0, detail={(1, 2): 3})
    return bus


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("seed", range(40))
def test_text_writers_equal_the_dict_records(tmp_path, monkeypatch, seed):
    """The writers write the common shapes as text and hand every other
    record to the encoder; either way the bytes are the dict records'."""
    from repro.obs import export

    bus = _fuzz_bus(seed)
    want = _outcome(lambda: json.dumps(to_chrome(bus), default=str) + "\n")
    for chunk in (1, 3, 256):
        monkeypatch.setattr(export, "_CHUNK", chunk)
        path = tmp_path / f"t{chunk}.json"
        assert _outcome(lambda: write_trace(bus, str(path), "chrome") and path.read_text()) == want
    lines = _outcome(lambda: [export._encode(export._jsonl_record(ev)) for ev in bus.events])
    assert _outcome(lambda: list(to_jsonl_lines(bus))) == lines
    path = tmp_path / "t.jsonl"
    got = _outcome(lambda: write_trace(bus, str(path), "jsonl") and path.read_text())
    assert got == (lines if isinstance(lines, tuple) else "".join(line + "\n" for line in lines))


# ---------------------------------------------------------------------------
# the validator itself: bad traces must be rejected
# ---------------------------------------------------------------------------


def test_validator_rejects_malformed_traces():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
    errs = validate_chrome_trace({"traceEvents": [
        {"ph": "Z", "pid": 0, "tid": 0},                       # unknown phase
        {"ph": "i", "pid": 0, "tid": 0, "ts": -1, "name": "x"},  # negative ts
        {"ph": "i", "pid": 0, "ts": 0, "name": "x"},           # missing tid
        {"ph": "i", "pid": 0, "tid": 0, "ts": 0},              # missing name
    ]})
    assert len(errs) == 4


def test_validator_rejects_unbalanced_spans():
    unopened = {"traceEvents": [
        {"ph": "E", "pid": 0, "tid": 0, "ts": 1.0, "name": "send"},
    ]}
    assert any("no open B" in e for e in validate_chrome_trace(unopened))
    unclosed = {"traceEvents": [
        {"ph": "B", "pid": 0, "tid": 0, "ts": 0.0, "name": "send"},
    ]}
    assert any("unclosed" in e for e in validate_chrome_trace(unclosed))


def test_validator_rejects_an_e_that_closes_another_calls_b():
    """An E closes the innermost open B of its track, of the same name;
    the same names on two tracks interleave freely."""
    def ev(ph, tid, ts, name):
        return {"ph": ph, "pid": 0, "tid": tid, "ts": ts, "name": name}

    misnested = {"traceEvents": [
        ev("B", 0, 0.0, "send"), ev("B", 0, 1.0, "wait"),
        ev("E", 0, 2.0, "send"), ev("E", 0, 3.0, "wait"),
    ]}
    errs = validate_chrome_trace(misnested)
    assert len(errs) == 2 and all("closes B" in e for e in errs)
    interleaved = {"traceEvents": [
        ev("B", 0, 0.0, "send"), ev("B", 1, 0.5, "recv"),
        ev("E", 0, 1.0, "send"), ev("E", 1, 2.0, "recv"),
    ]}
    assert validate_chrome_trace(interleaved) == []


def test_schema_cli(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_trace(_call_bus(), str(good), "chrome")
    assert schema_main([str(good)]) == 0
    assert "OK" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"ph": "E", "pid": 0, "tid": 0, '
                   '"ts": 1.0, "name": "x"}]}')
    assert schema_main([str(bad)]) == 1
    assert schema_main([str(tmp_path / "missing.json")]) == 1
    assert schema_main([]) == 2
