"""Profiling layer: per-communicator MPI statistics.

Wraps a communicator à la the MPI profiling interface (PMPI): every
call is counted, bytes are tallied, and simulated time spent inside MPI
is accumulated — without touching the wrapped communicator or devices.

>>> pcomm = profile(comm)
>>> yield from pcomm.send(buf, dest=1)
>>> pcomm.stats.calls["send"], pcomm.stats.bytes_sent
(1, 1024)

The wrapper updates its own :class:`MpiStats` and records nothing on
an event bus; a traced world's record of a call is the
``call.enter``/``call.exit`` pair its communicator emits (see
:class:`~repro.mpi.timeline.Timeline`).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.mpi.constants import PROC_NULL

__all__ = ["MpiStats", "ProfiledCommunicator", "profile"]

#: generator methods whose time/calls are recorded
_TRACKED = (
    "send", "bsend", "ssend", "rsend", "recv",
    "isend", "irecv", "issend", "ibsend", "irsend",
    "wait", "test", "waitall", "waitany", "waitsome", "testall", "testany",
    "probe", "iprobe", "sendrecv", "sendrecv_replace",
    "bcast", "barrier", "reduce", "allreduce", "scan", "exscan",
    "reduce_scatter", "gather", "scatter", "allgather", "alltoall",
    "start", "startall", "cancel",
)

_SEND_CALLS = {
    "send", "bsend", "ssend", "rsend", "isend", "issend", "ibsend", "irsend",
    "sendrecv", "sendrecv_replace",
}
_RECV_CALLS = {"recv", "irecv", "sendrecv"}


def _nbytes(buf) -> int:
    if buf is None:
        return 0
    if isinstance(buf, np.ndarray):
        return buf.nbytes
    try:
        return len(buf)
    except TypeError:
        return 0


@dataclass
class MpiStats:
    """Accumulated statistics of one profiled communicator."""

    calls: Counter = field(default_factory=Counter)
    bytes_sent: int = 0
    bytes_received: int = 0
    #: simulated µs spent inside MPI calls (blocking time included)
    time_in_mpi: float = 0.0
    #: per-call-name simulated µs
    time_by_call: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [
            f"MPI calls: {sum(self.calls.values())}, "
            f"sent {self.bytes_sent} B, received {self.bytes_received} B, "
            f"{self.time_in_mpi:.1f} us in MPI"
        ]
        for name, n in self.calls.most_common():
            t = self.time_by_call.get(name, 0.0)
            lines.append(f"  {name:<18} x{n:<6} {t:10.1f} us")
        return "\n".join(lines)


class ProfiledCommunicator:
    """A transparent, stats-collecting communicator wrapper."""

    def __init__(self, comm):
        self._comm = comm
        self.stats = MpiStats()

    def __getattr__(self, name):
        attr = getattr(self._comm, name)
        if name not in _TRACKED or not callable(attr):
            return attr
        comm = self._comm
        stats = self.stats

        @functools.wraps(attr)
        def wrapper(*args, **kwargs):
            sent = 0
            if name in _SEND_CALLS:
                dest = args[1] if len(args) > 1 else kwargs.get("dest")
                if dest != PROC_NULL:  # nothing leaves for MPI_PROC_NULL
                    sent = _nbytes(args[0] if args else kwargs.get("buf"))
            t0 = comm.wtime()
            result = yield from attr(*args, **kwargs)
            stats.bytes_sent += sent
            if name in _RECV_CALLS and isinstance(result, tuple) and len(result) == 2:
                status = result[1]
                if status is not None:
                    stats.bytes_received += status.count_bytes
            dt = comm.wtime() - t0
            stats.calls[name] += 1
            stats.time_in_mpi += dt
            stats.time_by_call[name] = stats.time_by_call.get(name, 0.0) + dt
            return result

        return wrapper

    # a few non-generator pass-throughs that __getattr__ would wrap wrongly
    @property
    def rank(self):
        return self._comm.rank

    @property
    def size(self):
        return self._comm.size

    @property
    def endpoint(self):
        return self._comm.endpoint

    @property
    def group(self):
        return self._comm.group

    @property
    def context_id(self):
        return self._comm.context_id

    def wtime(self):
        return self._comm.wtime()


def profile(comm) -> ProfiledCommunicator:
    """Wrap *comm* for statistics collection."""
    return ProfiledCommunicator(comm)
