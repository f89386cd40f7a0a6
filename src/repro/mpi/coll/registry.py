"""Collective algorithm registry and the size×ranks auto-selector.

Every collective implementation registers under a ``(collective,
style)`` key; the dispatchers in :mod:`repro.mpi.coll` look the style
up here.  Which style runs for a given call resolves in strict
precedence order:

1. an explicit ``style=`` argument at the call site,
2. the auto-selector :func:`select` driven by the endpoint's
   per-platform tuning table (``platforms.COLL_TUNING``), which carries
   a row for every styled collective on every cell.

Selection is a *pure function* of ``(collective, message bytes, comm
size, tuning table)`` — every rank of a communicator computes the same
inputs, so every rank picks the same algorithm without any negotiation
traffic.  That purity is what keeps mixed-algorithm deadlocks
impossible and is pinned by ``tests/mpi/test_coll_selector.py``.

Tuning-table schema (one dict per collective per platform/device cell)::

    {"small": name,              # default style
     "large": name,              # bandwidth style for big payloads ...
     "large_bytes": int,         #   ... at or above this many bytes
     "large_max_ranks": int,     #   ... but only up to this many ranks
     "wide": name,               # latency style for very wide comms
     "wide_ranks": int}          #   ... at or above this many ranks

Precedence inside :func:`select`: ``large`` (size crossover) beats
``wide`` (rank crossover) beats ``small``.  Any key may be omitted.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError

__all__ = ["register", "algorithms", "get", "select", "resolve"]

# {collective: {style: fn}}
_REGISTRY: Dict[str, Dict[str, Callable]] = {}


def register(coll: str, name: str):
    """Class a function as the *name* implementation of *coll*."""

    def deco(fn: Callable) -> Callable:
        _REGISTRY.setdefault(coll, {})[name] = fn
        return fn

    return deco


def algorithms(coll: str) -> List[str]:
    """Registered style names for *coll*, registration order."""
    return list(_REGISTRY.get(coll, {}))


def get(coll: str, name: str) -> Callable:
    """Look up an implementation; raises ValueError naming the options."""
    try:
        return _REGISTRY[coll][name]
    except KeyError:
        known = ", ".join(algorithms(coll)) or "<none>"
        raise ValueError(
            f"unknown {coll} style {name!r} (registered: {known})"
        ) from None


def select(coll: str, nbytes: int, nranks: int,
           table: Optional[Dict[str, Dict]]) -> Optional[str]:
    """Pure auto-selection: the style *table* picks for this call shape.

    Returns None when the table has no entry for *coll*.  Must stay
    side-effect-free and deterministic in its arguments — every rank
    evaluates it independently with identical inputs.
    """
    if not table:
        return None
    entry = table.get(coll)
    if not entry:
        return None
    large = entry.get("large")
    if (large is not None
            and nbytes >= entry.get("large_bytes", 1 << 62)
            and nranks <= entry.get("large_max_ranks", 1 << 62)):
        return large
    wide = entry.get("wide")
    if wide is not None and nranks >= entry.get("wide_ranks", 1 << 62):
        return wide
    return entry.get("small")


def resolve(comm, coll: str, style: Optional[str], nbytes: int) -> str:
    """Resolve the style for one collective call (precedence above)."""
    if style is not None:
        return style
    style = select(coll, nbytes, comm.size, comm.endpoint.coll_tuning)
    if style is None:
        raise ConfigurationError(
            f"the endpoint's collective tuning table has no {coll!r} row "
            "(platforms.COLL_TUNING covers every styled collective)"
        )
    return style
