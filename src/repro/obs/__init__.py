"""``repro.obs`` — the unified instrumentation spine.

One structured :class:`EventBus` that every layer (simulator kernel,
TCP/RUDP transports, MPI devices, the MPI call layer, fault injection)
emits typed :class:`Event` records into, plus the views over it:

* :class:`PhaseLedger` — per-message envelope/match/data phase
  accounting, reproducing the paper's Table 1 from a traced run;
* :class:`CounterRegistry` — the event census ``bus.counters`` returns;
* :mod:`repro.obs.export` — Chrome-trace / JSONL exporters;
* :mod:`repro.obs.schema` — CI trace validator.

Attach a bus when building a world::

    from repro.obs import EventBus, PhaseLedger

    bus = EventBus()
    world = World(2, platform="ethernet", obs=bus)
    world.run(main)
    print(PhaseLedger.from_bus(bus).table())

See ``docs/OBSERVABILITY.md`` for the event taxonomy and the phase
model.
"""

from repro.obs.bus import Event, EventBus, msgid
from repro.obs.counters import CounterRegistry
from repro.obs.export import to_chrome, to_jsonl_lines, write_trace
from repro.obs.phases import MessagePhases, PhaseLedger


def __getattr__(name):
    # lazy: `python -m repro.obs.schema` must not find the module already
    # imported by its own package (runpy would warn)
    if name == "validate_chrome_trace":
        from repro.obs.schema import validate_chrome_trace

        return validate_chrome_trace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Event",
    "EventBus",
    "msgid",
    "CounterRegistry",
    "MessagePhases",
    "PhaseLedger",
    "to_chrome",
    "to_jsonl_lines",
    "write_trace",
    "validate_chrome_trace",
]
