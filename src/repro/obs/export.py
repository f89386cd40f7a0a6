"""Trace exporters: Chrome-trace (Perfetto-loadable) JSON and JSONL.

``chrome`` format emits the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev: MPI call enter/exit
pairs become ``B``/``E`` duration events (one track per rank), every
other event becomes an ``i`` instant.  Simulated time is already in
microseconds, which is exactly the ``ts`` unit the format expects.

``jsonl`` emits one JSON object per line per event — trivially greppable
and streamable into pandas/jq.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Dict, Iterator

__all__ = ["to_chrome", "to_jsonl_lines", "write_trace"]

#: chrome trace ``cat`` per bus layer
_LAYER_CAT = {
    "sim": "sim",
    "net": "net",
    "dev": "device",
    "mpi": "mpi",
    "prof": "mpi",
    "fault": "fault",
    "trace": "trace",
}

#: a record (or a chunk of them) -> JSON text through the C encoder.
#: ``json.dump`` to a file always takes the pure-Python ``_iterencode``
#: path (one call per container, one ``write`` per token), which was half
#: of a traced run; each ``encode`` call pays the encoder's setup again,
#: so the chrome writer makes one per chunk, not one per record.
_encode = json.JSONEncoder(default=str).encode

#: records joined per ``write`` when streaming a chrome trace: enough to
#: amortise the encoder's setup, few enough that the chunk's record dicts
#: and the encoder's fragment list stay a small bounded transient
#: (``tests/obs/test_footprint.py`` holds a 40 000-event export under 1 MB)
_CHUNK = 256


def _pid_registry(bus):
    """Map run labels to stable integer pids (Chrome wants numbers)."""
    pids: Dict[object, int] = {}
    for ev in bus.events:
        if ev.run not in pids:
            pids[ev.run] = len(pids)
    if not pids:
        pids[None] = 0
    return pids


def to_chrome(bus) -> Dict:
    """Convert a bus into a Chrome-trace JSON object."""
    return {"traceEvents": list(_chrome_records(bus)), "displayTimeUnit": "ns"}


def _chrome_records(bus) -> Iterator[Dict]:
    """The ``traceEvents`` of :func:`to_chrome`, one at a time."""
    pids = _pid_registry(bus)
    ranks_seen = set()
    for run, pid in pids.items():
        yield {
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": str(run) if run is not None else "repro"},
        }
    for ev in bus.events:
        pid = pids[ev.run]
        tid = ev.rank if ev.rank is not None else -1
        if tid >= 0 and (pid, tid) not in ranks_seen:
            ranks_seen.add((pid, tid))
            yield {
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": f"rank {tid}"},
            }
        cat = _LAYER_CAT.get(ev.layer, ev.layer)
        detail = ev.detail or {}
        if ev.layer == "mpi" and ev.kind in ("call.enter", "call.exit"):
            ph = "B" if ev.kind == "call.enter" else "E"
            rec = {
                "ph": ph, "ts": ev.t, "pid": pid, "tid": tid,
                "name": detail.get("call", "mpi"), "cat": cat,
            }
            if ph == "B" and detail:
                rec["args"] = {k: v for k, v in detail.items() if v is not None}
        else:
            rec = {
                "ph": "i", "ts": ev.t, "pid": pid, "tid": tid,
                "name": ev.kind, "cat": cat, "s": "t",
            }
            args = {k: v for k, v in detail.items() if v is not None}
            if ev.msg is not None:
                args["msg"] = list(ev.msg)
            if args:
                rec["args"] = args
        yield rec


def to_jsonl_lines(bus) -> Iterator[str]:
    """One compact JSON object per event."""
    for ev in bus.events:
        rec = {"t": ev.t, "layer": ev.layer, "kind": ev.kind}
        if ev.rank is not None:
            rec["rank"] = ev.rank
        if ev.msg is not None:
            rec["msg"] = list(ev.msg)
        if ev.detail:
            rec["detail"] = ev.detail
        if ev.run is not None:
            rec["run"] = ev.run
        yield _encode(rec)


def write_trace(bus, path: str, fmt: str = "chrome") -> str:
    """Serialise *bus* to *path* in ``chrome`` or ``jsonl`` format.

    The chrome file is byte-for-byte ``json.dumps(to_chrome(bus),
    default=str)`` plus a newline, streamed a chunk of records at a time
    so neither the record list nor the document text is held whole.
    """
    if fmt == "chrome":
        records = _chrome_records(bus)
        with open(path, "w") as fh:
            fh.write('{"traceEvents": [')
            sep = ""
            while True:
                # one encoder call per chunk, brackets cut off: the same
                # text as joining the records' encodings with ", "
                chunk = _encode(list(islice(records, _CHUNK)))[1:-1]
                if not chunk:
                    break
                fh.write(sep)
                fh.write(chunk)
                sep = ", "
            fh.write('], "displayTimeUnit": "ns"}\n')
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            for line in to_jsonl_lines(bus):
                fh.write(line)
                fh.write("\n")
    else:
        raise ValueError(f"unknown trace format {fmt!r} (expected 'chrome' or 'jsonl')")
    return path
