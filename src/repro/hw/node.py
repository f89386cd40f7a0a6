"""Host and processor models.

A :class:`Host` is a simulated machine: it owns one or more
:class:`Processor` resources and a deterministic per-host RNG.  The
application and the (simulated) kernel protocol code share the host's
main CPU, so protocol processing delays computation and vice versa —
the non-preemptive approximation documented in DESIGN.md.

Costs are charged in microseconds.  Where a cost is derived from work
(bytes copied, flops executed), the per-unit rates live in the platform
parameter dataclasses, not here.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Optional

from repro.faults import BatchedRandom
from repro.sim import Resource, SimulationError, Simulator

__all__ = ["Processor", "Host"]

#: Default compute-slice length: long computations yield the CPU every
#: this many microseconds so kernel protocol work can interleave.
DEFAULT_QUANTUM = 50.0


class Processor:
    """A single execution unit (SPARC, Elan, i960, ...) as a FIFO resource.

    ``speed`` scales all costs: a cost of *c* µs of reference work takes
    ``c / speed`` µs here — how the cluster models the faster SGI
    Challenge next to the Indys.
    """

    def __init__(self, sim: Simulator, name: str = "cpu", speed: float = 1.0):
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed!r}")
        self.sim = sim
        self.name = name
        self.speed = speed
        self._res = Resource(sim, capacity=1, name=name)
        self.busy_time = 0.0

    @property
    def queued(self) -> int:
        """Processes waiting for this processor."""
        return self._res.queued

    @property
    def in_use(self) -> bool:
        return self._res.in_use > 0

    def execute(self, cost: float):
        """Generator: occupy the processor for *cost* µs of reference work.

        Claimed exactly as :meth:`repro.sim.resources.Resource.use`
        claims: the process is woken once, when its CPU time is over
        (:meth:`repro.sim.Simulator.grant1`), and an uncontended
        execution with nothing else due before it ends never yields.
        """
        if cost < 0:
            raise ValueError(f"negative execution cost {cost!r}")
        scaled = cost / self.speed
        self.busy_time += scaled
        # Uncontended fast path inlined from Resource.use: the same
        # grant record carrying the hold (or, when nothing else is
        # runnable now, the grant elided and the hold taken in place),
        # identical event count and ordering, without the extra
        # delegating generator frame.
        res = self._res
        if res._in_use < res.capacity and not res._queue:
            res._in_use += 1
            sim = res.sim
            try:
                if not sim.elide():
                    yield sim.grant1(scaled).succeed(None)
                elif not sim.hold(scaled):
                    yield sim.timeout1(scaled)
            finally:
                if res._queue:
                    nxt = res._queue.popleft()
                    nxt.succeed(None)
                else:
                    if res._in_use <= 0:
                        raise SimulationError(f"over-release of resource {res.name!r}")
                    res._in_use -= 1
            return
        yield from res.use(scaled)

    def request(self):
        return self._res.request()

    def release(self, req) -> None:
        self._res.release(req)


class Host:
    """A simulated machine.

    Parameters
    ----------
    sim:
        The simulator this host lives in.
    hostid:
        Small integer identity (also used as the network address by the
        cluster fabrics).
    name:
        Human-readable name for traces.
    seed:
        Per-host RNG seed; combined with *hostid* so hosts draw distinct
        but reproducible random streams (Ethernet backoff etc.).
    """

    def __init__(
        self, sim: Simulator, hostid: int, name: str = "", seed: int = 0, speed: float = 1.0
    ):
        self.sim = sim
        self.hostid = hostid
        self.name = name or f"host{hostid}"
        self.cpu = Processor(sim, name=f"{self.name}.cpu", speed=speed)
        self._seed = seed
        #: raw-bits consumers of self.rng (Ethernet backoff draws via
        #: randrange); when non-zero jitter_stream() must stay unbatched
        self._rng_bits_users = 0
        self._jitter_cache: Optional[tuple] = None
        #: attachment point for NICs / protocol stacks, filled in by builders
        self.nic = None
        self.stack = None

    @cached_property
    def rng(self) -> random.Random:
        """This host's random stream, seeded at its first use.

        Only the Ethernet backoff and the transports' RTO jitter draw
        from it; seeding a Mersenne Twister (2.5 KB of state) for every
        host of a world whose fabric never draws is most of what an idle
        host would cost.
        """
        return random.Random((self._seed << 16) ^ (self.hostid * 2654435761 % 2**32))

    def wtime(self) -> float:
        """Wall-clock time on this host (the global simulated clock), µs."""
        return self.sim.now

    def claim_raw_rng(self) -> None:
        """Register a raw-bits consumer of this host's RNG stream.

        Components drawing via ``randrange``/``getrandbits`` (the
        Ethernet NIC's binary-exponential backoff) must call this at
        build time, before any draws: it pins :meth:`jitter_stream` to
        the raw ``Random`` so float batching cannot reorder the
        Mersenne word stream (see
        :class:`repro.faults.BatchedRandom`).  Claiming draws nothing
        and does not seed the stream.
        """
        self._rng_bits_users += 1
        self._jitter_cache = None

    def jitter_stream(self):
        """The stream for float-only jitter draws (transport RTO jitter).

        A :class:`repro.faults.BatchedRandom` over ``self.rng`` when no
        raw-bits consumer shares the host stream, the raw ``Random``
        otherwise — the observed draw values are byte-identical either
        way.
        """
        cache = self._jitter_cache
        if cache is not None and cache[0] is self.rng:
            return cache[1]
        if self._rng_bits_users:
            stream = self.rng
        else:
            stream = BatchedRandom(self.rng)
        self._jitter_cache = (self.rng, stream)
        return stream

    def compute(self, total: float, quantum: Optional[float] = None):
        """Generator: perform *total* µs of application computation.

        The work is sliced into *quantum*-sized pieces, releasing the CPU
        between slices so kernel work queued behind the application can
        run (coarse model of interrupt handling).
        """
        if total < 0:
            raise ValueError(f"negative compute time {total!r}")
        q = DEFAULT_QUANTUM if quantum is None else quantum
        if q <= 0:
            raise ValueError(f"quantum must be positive, got {q!r}")
        remaining = total
        while remaining > 0:
            piece = min(q, remaining)
            yield from self.cpu.execute(piece)
            remaining -= piece

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name}>"
