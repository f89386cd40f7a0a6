"""Trace exporters and the CI schema checker."""

import json

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
