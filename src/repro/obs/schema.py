"""Chrome-trace schema checker (stdlib only, CI-friendly).

Validates the structural invariants of a trace produced by
:func:`repro.obs.export.to_chrome` without any third-party JSON-schema
dependency:

* top level is an object with a ``traceEvents`` list;
* every event has a string ``ph`` and integer-ish ``pid``/``tid``;
* non-metadata events carry a numeric, non-negative ``ts`` and a
  ``name``;
* ``B``/``E`` duration events balance per ``(pid, tid)`` track: an
  ``E`` closes the innermost open ``B`` of that track, with the same
  name.

Run from the command line (used by the CI observability smoke job)::

    python -m repro.obs.schema trace.json
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

__all__ = ["validate_chrome_trace", "main"]

_PHASES = {"B", "E", "i", "I", "M", "X", "C"}


def validate_chrome_trace(obj) -> List[str]:
    """Return a list of problems (empty == valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    open_spans: Dict[Tuple, List[str]] = {}
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _PHASES:
            errors.append(f"{where}: bad ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: missing integer {key!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: missing name")
        track = (ev.get("pid"), ev.get("tid"))
        if ph == "B":
            open_spans.setdefault(track, []).append(ev.get("name", ""))
        elif ph == "E":
            stack = open_spans.get(track)
            if not stack:
                errors.append(f"{where}: E with no open B on track {track}")
            else:
                opened = stack.pop()
                if opened != ev.get("name", ""):
                    errors.append(f"{where}: E {ev.get('name')!r} closes B "
                                  f"{opened!r} on track {track}")
    for track, stack in open_spans.items():
        if stack:
            errors.append(f"unclosed B events on track {track}: {stack}")
    return errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.obs.schema TRACE.json", file=sys.stderr)
        return 2
    try:
        with open(argv[0]) as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"FAIL: cannot load {argv[0]}: {e}", file=sys.stderr)
        return 1
    errors = validate_chrome_trace(obj)
    if errors:
        for err in errors[:50]:
            print(f"FAIL: {err}", file=sys.stderr)
        print(f"{argv[0]}: {len(errors)} schema error(s)", file=sys.stderr)
        return 1
    n = len(obj["traceEvents"])
    print(f"{argv[0]}: OK ({n} trace events)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in CI
    sys.exit(main())
