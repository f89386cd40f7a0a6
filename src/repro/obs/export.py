"""Trace exporters: Chrome-trace (Perfetto-loadable) JSON and JSONL.

``chrome`` format emits the Trace Event Format understood by
``chrome://tracing`` and https://ui.perfetto.dev: MPI call enter/exit
pairs become ``B``/``E`` duration events (one track per rank), every
other event becomes an ``i`` instant.  Simulated time is already in
microseconds, which is exactly the ``ts`` unit the format expects.

``jsonl`` emits one JSON object per line per event — trivially greppable
and streamable into pandas/jq.

Records as text
---------------
:func:`to_chrome` is the one definition of a chrome record (a dict per
record); the file :func:`write_trace` writes is byte-for-byte
``json.dumps(to_chrome(bus), default=str)`` plus a newline.  The writers
do not build those dicts for the shapes that make up almost all of a
real trace — kernel :class:`~repro.obs.bus.TimerEvent`\\ s, MPI
``call.enter``/``call.exit`` spans, and events whose ``detail`` is a flat
dict of ``str`` keys to ``str``/``int``/finite ``float``/``bool``/``None``
and whose ``msg`` is a tuple of ints.  They write such a record's JSON
text directly, exactly as the C encoder would: a number is the ``repr``
of an exact ``int``/``float``, a string goes through
``encode_basestring_ascii``, a bool is ``true``/``false``.  Anything else
— a subclass (``bool``, ``IntEnum``, a float or str subclass), NaN or
±inf, a non-``str`` key, a nested container, a non-int ``msg`` element, a
non-``str`` run label, or a ``"msg"`` key inside ``detail`` (chrome
``args`` would overwrite it in place) — falls back, that record alone,
to its dict through the encoder, so the oracle decides every byte the
fast path is not sure of.

The text of a timestamp is reused while ``ev.t is`` the previous event's
``t`` (identity, never equality: ``0.0 == -0.0``).  Constant fragments
are cached per ``(layer, kind)`` or MPI call name, built only from exact
``str``\\ s (``1``, ``1.0`` and ``True`` are one dict key but three
different texts).  No cache is keyed by rank, run or delay: those grow
with the world, and a 1 024-rank export must stay a small constant
(``tests/obs/test_footprint.py``).
"""

from __future__ import annotations

import json
from itertools import islice
from json.encoder import encode_basestring_ascii as _str
from math import isfinite
from typing import Dict, Iterator, Optional

from repro.obs.bus import TimerEvent

__all__ = ["to_chrome", "to_jsonl_lines", "write_trace"]

#: chrome trace ``cat`` per bus layer
_LAYER_CAT = {
    "sim": "sim",
    "net": "net",
    "dev": "device",
    "mpi": "mpi",
    "fault": "fault",
}

#: a record the text path does not cover -> JSON text through the C
#: encoder.  ``json.dump`` to a file always takes the pure-Python
#: ``_iterencode`` path (one call per container, one ``write`` per token).
_encode = json.JSONEncoder(default=str).encode

#: records joined per ``write`` when streaming a chrome trace: few enough
#: that the chunk's texts stay a small bounded transient
#: (``tests/obs/test_footprint.py`` holds a 40 000-event export under 1 MB)
_CHUNK = 256

_SPANS = ("call.enter", "call.exit")


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


def _process_names(pids) -> Iterator[Dict]:
    for run, pid in pids.items():
        yield {
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": str(run) if run is not None else "repro"},
        }


def _thread_name(pid, tid) -> Dict:
    return {
        "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
        "args": {"name": f"rank {tid}"},
    }


def _chrome_records(bus) -> Iterator[Dict]:
    """The ``traceEvents`` of :func:`to_chrome`, one at a time."""
    pids = _pid_registry(bus)
    yield from _process_names(pids)
    ranks_seen = set()
    for ev in bus.events:
        pid = pids[ev.run]
        tid = ev.rank if ev.rank is not None else -1
        if tid >= 0 and (pid, tid) not in ranks_seen:
            ranks_seen.add((pid, tid))
            yield _thread_name(pid, tid)
        yield _chrome_record(ev, pid, tid)


def _chrome_record(ev, pid, tid) -> Dict:
    """One event's chrome record: the definition the text path matches."""
    cat = _LAYER_CAT.get(ev.layer, ev.layer)
    detail = ev.detail or {}
    if ev.layer == "mpi" and ev.kind in _SPANS:
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
    return rec


# -- records as text ----------------------------------------------------------


def _number(v) -> Optional[str]:
    """The C encoder's text of an exact ``int`` or finite ``float``; else None."""
    if type(v) is float:
        return repr(v) if isfinite(v) else None
    if type(v) is int:
        return repr(v)
    return None


def _items(detail, nulls) -> Optional[str]:
    """``"k": v, ...`` of a flat dict of plain scalars, or None if it is not
    one.  A ``None`` value is written ``null`` if *nulls*, else skipped."""
    parts = []
    for k, v in detail.items():
        t = type(v)
        if t is str:
            v = _str(v)
        elif t is int:
            v = repr(v)
        elif t is float:
            if not isfinite(v):
                return None
            v = repr(v)
        elif t is bool:
            v = "true" if v else "false"
        elif v is None:
            if not nulls:
                continue
            v = "null"
        else:
            return None
        if type(k) is not str:
            return None
        parts.append(f"{_str(k)}: {v}")
    return ", ".join(parts)


def _msg(msg) -> Optional[str]:
    """``[a, b, ...]`` of a tuple of exact ints, or None."""
    if type(msg) is not tuple:
        return None
    for x in msg:
        if type(x) is not int:
            return None
    return repr(list(msg))


def _chrome_text(ev, head, frags) -> Optional[str]:
    """:func:`_chrome_record`'s JSON text for the covered shapes, or None.

    *head* is the record's ``"ts": …, "pid": …, "tid": …``."""
    layer = ev.layer
    kind = ev.kind
    # only exact strs key a cache: 1, 1.0 and True are one dict key
    if type(layer) is not str or type(kind) is not str:
        return None
    timer = type(ev) is TimerEvent
    if timer:
        detail = None
    else:
        detail = ev.detail
        if not detail:
            detail = None
        elif type(detail) is not dict:
            return None
        if layer == "mpi" and kind in _SPANS:
            name = detail.get("call", "mpi") if detail is not None else "mpi"
            if type(name) is not str:
                return None
            frag = frags.get(name)
            if frag is None:
                frag = frags[name] = f', "name": {_str(name)}, "cat": "mpi"'
            if kind == "call.exit":
                return f'{{"ph": "E", {head}{frag}}}'
            if detail is None:
                return f'{{"ph": "B", {head}{frag}}}'
            args = _items(detail, False)
            if args is None:
                return None
            return f'{{"ph": "B", {head}{frag}, "args": {{{args}}}}}'
    frag = frags.get((layer, kind))
    if frag is None:
        cat = _LAYER_CAT.get(layer, layer)
        frag = frags[(layer, kind)] = f', "name": {_str(kind)}, "cat": {_str(cat)}, "s": "t"'
    args = ""
    if timer:
        delay = ev.delay
        if delay is not None:
            delay = _number(delay)
            if delay is None:
                return None
            args = f'"delay": {delay}'
    else:
        if detail is not None:
            args = _items(detail, False)
            if args is None:
                return None
        msg = ev.msg
        if msg is not None:
            if detail is not None and "msg" in detail:
                return None  # args["msg"] would replace it in place
            msg = _msg(msg)
            if msg is None:
                return None
            args = f'{args}, "msg": {msg}' if args else f'"msg": {msg}'
    if args:
        return f'{{"ph": "i", {head}{frag}, "args": {{{args}}}}}'
    return f'{{"ph": "i", {head}{frag}}}'


def _chrome_texts(bus) -> Iterator[str]:
    """The JSON texts of :func:`_chrome_records`, one record at a time."""
    pids = _pid_registry(bus)
    for rec in _process_names(pids):
        yield _encode(rec)
    ranks_seen = set()
    frags: Dict[object, str] = {}
    last_t = ts = object()
    for ev in bus.events:
        pid = pids[ev.run]
        tid = ev.rank
        if tid is None:
            tid = -1
        elif tid >= 0 and (pid, tid) not in ranks_seen:
            ranks_seen.add((pid, tid))
            yield _encode(_thread_name(pid, tid))
        t = ev.t
        if t is not last_t:
            last_t = t
            ts = _number(t)
        text = None
        if ts is not None and type(tid) is int:
            text = _chrome_text(ev, f'"ts": {ts}, "pid": {pid}, "tid": {tid}', frags)
        yield text or _encode(_chrome_record(ev, pid, tid))


def _jsonl_record(ev) -> Dict:
    """One event's jsonl record: the definition the text path matches."""
    rec = {"t": ev.t, "layer": ev.layer, "kind": ev.kind}
    if ev.rank is not None:
        rec["rank"] = ev.rank
    if ev.msg is not None:
        rec["msg"] = list(ev.msg)
    if ev.detail:
        rec["detail"] = ev.detail
    if ev.run is not None:
        rec["run"] = ev.run
    return rec


def _jsonl_text(ev, head) -> Optional[str]:
    """:func:`_jsonl_record`'s JSON text for the covered shapes, or None.

    *head* is the record's ``{"t": …, "layer": …, "kind": …``."""
    rank = ev.rank
    if rank is None:
        rank = ""
    elif type(rank) is int:
        rank = f', "rank": {rank!r}'
    else:
        return None
    msg = ev.msg
    if msg is not None:
        msg = _msg(msg)
        if msg is None:
            return None
        msg = f', "msg": {msg}'
    else:
        msg = ""
    if type(ev) is TimerEvent:
        detail = ev.delay
        detail = "null" if detail is None else _number(detail)
        if detail is None:
            return None
        detail = f', "detail": {{"delay": {detail}}}'
    else:
        detail = ev.detail
        if detail:
            if type(detail) is not dict:
                return None
            detail = _items(detail, True)
            if detail is None:
                return None
            detail = f', "detail": {{{detail}}}'
        else:
            detail = ""
    run = ev.run
    if run is None:
        run = ""
    elif type(run) is str:
        run = f', "run": {_str(run)}'
    else:
        return None
    return f"{head}{rank}{msg}{detail}{run}}}"


def to_jsonl_lines(bus) -> Iterator[str]:
    """One compact JSON object per event."""
    heads: Dict[tuple, str] = {}
    last_t = ts = object()
    for ev in bus.events:
        t = ev.t
        if t is not last_t:
            last_t = t
            ts = _number(t)
        layer = ev.layer
        kind = ev.kind
        text = None
        if ts is not None and type(layer) is str and type(kind) is str:
            head = heads.get((layer, kind))
            if head is None:
                head = heads[(layer, kind)] = f', "layer": {_str(layer)}, "kind": {_str(kind)}'
            text = _jsonl_text(ev, f'{{"t": {ts}{head}')
        yield text or _encode(_jsonl_record(ev))


def write_trace(bus, path: str, fmt: str = "chrome") -> str:
    """Serialise *bus* to *path* in ``chrome`` or ``jsonl`` format.

    The chrome file is byte-for-byte ``json.dumps(to_chrome(bus),
    default=str)`` plus a newline, streamed a chunk of records at a time
    so neither the record list nor the document text is held whole.
    """
    if fmt == "chrome":
        texts = _chrome_texts(bus)
        with open(path, "w") as fh:
            fh.write('{"traceEvents": [')
            sep = ""
            while True:
                chunk = ", ".join(islice(texts, _CHUNK))
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
