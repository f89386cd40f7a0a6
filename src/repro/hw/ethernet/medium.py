"""The shared Ethernet segment: CSMA/CD with truncated binary
exponential backoff.

Collision model: a station senses the carrier only ``prop_delay`` after
a transmission begins, so any station that starts transmitting while
another attempt is inside its vulnerable window collides with it.  All
colliding stations jam, back off a random number of 51.2 µs slots
(doubling the range each attempt, per-host seeded RNG), and retry.
This is what makes the paper's shared 10 Mb/s segment degrade as more
workstations communicate at once (Figure 9).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import NetworkError
from repro.hw.ethernet.frame import BROADCAST, Frame
from repro.hw.ethernet.params import EthernetParams
from repro.sim import Simulator

__all__ = ["Medium"]


class _Attempt:
    __slots__ = ("start", "collided", "acquired")

    def __init__(self, start: float):
        self.start = start
        self.collided = False
        self.acquired = False


class Medium:
    """One shared segment.  NICs attach; transmissions contend."""

    def __init__(
        self,
        sim: Simulator,
        params: Optional[EthernetParams] = None,
        injector=None,
    ):
        self.sim = sim
        self.params = params or EthernetParams()
        #: structured fault injection (:class:`repro.faults.FaultInjector`)
        self.injector = injector
        self.nics: Dict[int, "EthernetNicLike"] = {}
        self._busy_until = 0.0
        self._attempts: List[_Attempt] = []
        # statistics
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0
        self.collisions = 0
        self.busy_time = 0.0

    def attach(self, nic) -> None:
        if nic.addr in self.nics:
            raise NetworkError(f"address {nic.addr} already attached")
        self.nics[nic.addr] = nic

    def utilization(self) -> float:
        """Fraction of elapsed time the wire carried bits."""
        return self.busy_time / self.sim.now if self.sim.now > 0 else 0.0

    # ------------------------------------------------------------------ tx
    def transmit(self, frame: Frame, rng):
        """Generator: contend for the wire and send *frame*.

        Completes when the frame has been fully serialized; delivery at
        the receivers happens ``prop_delay`` later.  Raises
        :class:`NetworkError` after 16 failed attempts (excessive
        collisions), like a real transceiver.
        """
        p = self.params
        sim = self.sim
        attempts = 0
        while True:
            # carrier sense; stations that deferred restart with a small
            # random jitter (see EthernetParams.defer_jitter)
            deferred = False
            while sim.now < self._busy_until:
                deferred = True
                wait = self._busy_until - sim.now
                if not sim.hold(wait):
                    yield sim.timeout1(wait)
            if deferred and p.defer_jitter > 0:
                jitter = rng.uniform(0.0, p.defer_jitter)
                if not sim.hold(jitter):
                    yield sim.timeout1(jitter)
                if sim.now < self._busy_until:
                    continue  # someone else took the wire during our jitter
            att = _Attempt(sim.now)
            if self._attempts:
                # someone else is inside their vulnerable window: collision
                att.collided = True
                for other in self._attempts:
                    if not other.acquired:
                        other.collided = True
            self._attempts.append(att)
            if not sim.hold(p.prop_delay):
                yield sim.timeout1(p.prop_delay)
            if att.collided:
                self._attempts.remove(att)
                self.collisions += 1
                jam_end = sim.now + p.jam_time
                self._busy_until = max(self._busy_until, jam_end + p.ifg)
                attempts += 1
                if attempts >= p.max_attempts:
                    raise NetworkError(
                        f"excessive collisions sending from station {frame.src}"
                    )
                k = min(attempts, p.backoff_limit)
                backoff = p.jam_time + rng.randrange(2**k) * p.slot_time
                if not sim.hold(backoff):
                    yield sim.timeout1(backoff)
                continue
            # acquired the wire
            att.acquired = True
            ftime = p.frame_time(frame.nbytes)
            self._busy_until = att.start + ftime + p.ifg
            self.busy_time += ftime
            remaining = ftime - p.prop_delay
            if remaining > 0:
                if not sim.hold(remaining):
                    yield sim.timeout1(remaining)
            self._attempts.remove(att)
            self._schedule_delivery(frame)
            return attempts

    def _schedule_delivery(self, frame: Frame) -> None:
        copies = 1
        if self.injector is not None:
            from repro.faults import CORRUPT, DROP, DUPLICATE

            action = self.injector.decide(frame.src, frame.dst, frame.nbytes)
            if action == DROP:
                self.frames_dropped += 1
                return
            if action == CORRUPT:
                # delivered damaged; the receiver's CRC discards it
                self.frames_corrupted += 1
                return
            if action == DUPLICATE:
                self.frames_duplicated += 1
                copies = 2
        for _ in range(copies):
            self.sim.timeout1(self.params.prop_delay, frame).callbacks.append(self._deliver)

    def _deliver(self, event) -> None:
        frame: Frame = event.value
        if frame.dst == BROADCAST:
            for addr, nic in self.nics.items():
                if addr != frame.src:
                    self.frames_delivered += 1
                    nic.on_frame(frame)
        else:
            nic = self.nics.get(frame.dst)
            if nic is not None:
                self.frames_delivered += 1
                nic.on_frame(frame)
            # frames to unknown addresses vanish, like real Ethernet
