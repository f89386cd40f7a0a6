"""Deterministic discrete-event simulation kernel.

Everything in :mod:`repro` runs on this kernel: simulated processors,
network links, protocol stacks and MPI ranks are all :class:`Process`
coroutines scheduled by a single :class:`Simulator`.

The programming model follows the classic generator-coroutine style
(similar to SimPy): a simulated activity is a Python generator that
``yield``\\ s :class:`Event` objects; the process resumes when the event
fires.  Composition uses ``yield from``::

    def pinger(sim, wire):
        yield sim.timeout(5.0)          # wait 5 simulated microseconds
        yield from wire.send(b"ping")   # delegate to a sub-activity

Time is a ``float`` in **microseconds** throughout the library; ties are
broken by (priority, sequence number) so runs are fully deterministic.
"""

from repro.sim.core import (
    URGENT,
    NORMAL,
    Event,
    Timeout,
    Process,
    Simulator,
    AnyOf,
    AllOf,
    Interrupt,
    SimulationError,
    StopRun,
)
from repro.sim.resources import EMPTY, Resource, Store, PriorityStore

__all__ = [
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Process",
    "Simulator",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "StopRun",
    "EMPTY",
    "Resource",
    "Store",
    "PriorityStore",
]
