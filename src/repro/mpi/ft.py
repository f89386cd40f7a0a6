"""ULFM-style fault tolerance: detection, revocation, checkpoints.

The paper's protocol engineering assumes a fault-free fabric; PR 1 added
deterministic fault *injection* and failure *reporting*, but a
``NodeCrash`` was terminal — survivors could only abort.  This module
gives survivors a path to completion, following the User-Level Failure
Mitigation design (Bland et al.): failures are *detected* and announced,
operations touching a dead rank fail with :class:`RankFailed`, a
communicator can be *revoked* (poisoning all in-flight and future
operations with :class:`CommRevoked` so every member reaches the
recovery path), *shrunk* to a survivors-only communicator, and survivors
can run a crash-tolerant *agreement*.  A small :class:`CheckpointStore`
lets applications snapshot state at barriers and resume on the shrunken
world.

Everything is opt-in: ``World(..., ft=True)`` (or an :class:`FTConfig`).
Without it, a crash still deadlocks peers exactly as before — the PR 1
semantics are pinned by tests.

Detection model
---------------
Each fabric has a deterministic detection mechanism with a
platform-specific latency, mirroring how the real transports learn of
peer death:

* ``meiko``   — the Elan co-processor's queue probe notices the dead
  node's DMA engine stopped acknowledging (fast, microseconds);
* ``atm``/``ethernet`` — retransmission exhaustion / credit timeout in
  the kernel path (slower, order of the RTO).

When the detector fires (``crash time + detect_delay``), the failure is
announced to *every* surviving endpoint at one simulated instant, which
makes the post-detection failure view globally consistent — the property
that keeps ``shrink``/``agree`` deterministic and the recovery event
trace byte-identical across repeated seeded runs.  A transport that
discovers the death *earlier* (e.g. TCP retransmit exhaustion on a
connection to the crashed host) short-circuits the announcement through
:meth:`FTState.mark_failed`; the announcement is idempotent.

Observability: every transition emits a typed event on the ``"ft"``
layer (``failure.crash``, ``failure.detect``, ``comm.revoke``,
``comm.shrink``, ``agree``, ``checkpoint.save``/``commit``/``restore``)
so recovery latency is measurable per phase, Table-1 style.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = ["FTConfig", "FTState", "CheckpointStore", "DETECT_DELAY"]

#: default failure-detection latency (simulated microseconds) per
#: platform — Elan queue probe vs. kernel retransmit/credit timeout
#: vs. RDMA/CXL transport-level retry exhaustion surfacing in the CQ
DETECT_DELAY = {"meiko": 60.0, "atm": 400.0, "ethernet": 400.0, "modern": 25.0}


class FTConfig:
    """Configuration for the fault-tolerance layer.

    ``detect_delay``
        Simulated microseconds between a crash and its announcement to
        the survivors.  ``None`` selects the platform default from
        :data:`DETECT_DELAY`.
    ``store``
        A :class:`CheckpointStore` to reuse (e.g. to carry committed
        checkpoints across worlds in a test); a fresh store is created
        when ``None``.
    """

    def __init__(self, detect_delay: Optional[float] = None,
                 store: Optional["CheckpointStore"] = None):
        if detect_delay is not None and detect_delay < 0:
            raise ConfigurationError("detect_delay must be >= 0")
        self.detect_delay = detect_delay
        self.store = store


class CheckpointStore:
    """In-memory coordinated checkpointing with two-phase commit.

    Ranks :meth:`save` their payload for a step, synchronize (a barrier
    on the surviving communicator), then every rank calls
    :meth:`commit` — idempotent, so concurrent calls from all ranks are
    fine.  A crash between save and commit leaves the step uncommitted
    and recovery resumes from :meth:`latest_committed`.  Payloads are
    deep-copied on save and on load so a restarted rank cannot alias a
    dead rank's live buffers.
    """

    def __init__(self):
        self._waves: Dict[int, Dict[int, Any]] = {}
        self._committed: List[int] = []
        self._emit = None  # wired by FTState

    def save(self, step: int, rank: int, payload: Any) -> None:
        """Record ``rank``'s snapshot for checkpoint wave ``step``."""
        step, rank = int(step), int(rank)
        self._waves.setdefault(step, {})[rank] = copy.deepcopy(payload)
        if self._emit is not None:
            self._emit("checkpoint.save", rank=rank, detail={"step": step})

    def commit(self, step: int) -> None:
        """Mark wave ``step`` durable (idempotent; call after a barrier)."""
        step = int(step)
        if step not in self._waves:
            raise ConfigurationError(f"no checkpoint saved for step {step}")
        if step not in self._committed:
            self._committed.append(step)
            self._committed.sort()
            if self._emit is not None:
                self._emit("checkpoint.commit", detail={
                    "step": step, "ranks": sorted(self._waves[step])})

    def latest_committed(self) -> Optional[int]:
        """The newest committed step, or ``None`` if nothing committed."""
        return self._committed[-1] if self._committed else None

    def load(self, step: int) -> Dict[int, Any]:
        """Deep-copied ``{rank: payload}`` snapshots of a committed wave."""
        step = int(step)
        if step not in self._committed:
            raise ConfigurationError(f"checkpoint step {step} is not committed")
        if self._emit is not None:
            self._emit("checkpoint.restore", detail={"step": step})
        return {r: copy.deepcopy(p) for r, p in self._waves[step].items()}


class FTState:
    """Per-world fault-tolerance state: the detector and failure view.

    Lives at ``world.ft`` (and ``sim.ft``, where :mod:`repro.faults`
    finds it when a crash fires).  The ``failed`` set holds world ranks
    announced dead; ``revoked`` holds revoked communicator context ids.
    Both only ever grow, and every mutation fans out to the surviving
    device endpoints (``ft_peer_failed`` / ``ft_context_revoked``) so
    blocked ranks wake with :class:`RankFailed`/:class:`CommRevoked`
    instead of hanging.
    """

    def __init__(self, world, config: Optional[FTConfig] = None):
        self.world = world
        self.config = config or FTConfig()
        self.failed: set = set()
        self.revoked: set = set()
        self.checkpoints = self.config.store or CheckpointStore()
        self.checkpoints._emit = self._emit
        #: recovery-phase timeline (first occurrence of each phase),
        #: simulated microseconds — the soak harness reads this
        self.timeline: Dict[str, float] = {}
        self._detecting: set = set()
        #: set by ``World.run`` for the length of a run: called (no
        #: arguments) whenever a crash executes, which is the one moment
        #: besides a rank finishing at which the job can become complete
        self.crash_hook: Optional[Callable[[], None]] = None

    # -- plumbing -----------------------------------------------------------
    def _emit(self, kind: str, rank=None, detail=None) -> None:
        obs = self.world.sim.obs
        if obs is not None:
            obs.emit(self.world.sim.now, "ft", kind, rank=rank, detail=detail)

    def _note(self, phase: str) -> None:
        self.timeline.setdefault(phase, self.world.sim.now)

    @property
    def detect_delay(self) -> float:
        if self.config.detect_delay is not None:
            return self.config.detect_delay
        return DETECT_DELAY.get(self.world.platform_name, 400.0)

    def _live_endpoints(self):
        for ep in self.world.endpoints:
            if ep.world_rank not in self.failed:
                yield ep

    # -- detection ----------------------------------------------------------
    def on_crash(self, node: int, now: float) -> None:
        """Called by :mod:`repro.faults` the instant a crash executes."""
        if self.crash_hook is not None:
            self.crash_hook()
        if node in self._detecting or node in self.failed:
            return
        self._detecting.add(node)
        self._note("crash")
        self._emit("failure.crash", rank=node, detail={"at": now})
        self.world.sim.process(self._detector(node), name=f"ft-detect-{node}")

    def _detector(self, node: int):
        yield self.world.sim.timeout(self.detect_delay)
        self.mark_failed(node, cause="detector")

    def mark_failed(self, node: int, cause: str = "detector") -> None:
        """Announce ``node`` dead to every surviving endpoint (idempotent).

        Transports that learn of the death before the detector fires
        (retransmit exhaustion on a connection to the crashed host)
        short-circuit through here; the scheduled detector then finds
        the rank already failed and does nothing.
        """
        if node in self.failed:
            return
        self.failed.add(node)
        self._note("detect")
        self._emit("failure.detect", rank=node, detail={
            "cause": cause, "failed": sorted(self.failed)})
        for ep in self._live_endpoints():
            if ep.world_rank != node:
                ep.ft_peer_failed(node)

    def is_crashing(self, node: int) -> bool:
        """Has ``node``'s host actually crashed (even if not announced)?"""
        if node in self.failed:
            return True
        hosts = getattr(self.world.platform, "hosts", None)
        if hosts is None or not 0 <= node < len(hosts):
            return False
        return getattr(hosts[node], "crashed_at", None) is not None

    # -- revocation ---------------------------------------------------------
    def revoke(self, context_id: int, by_rank: Optional[int] = None) -> bool:
        """Revoke a communicator context: poison in-flight and future ops.

        Returns ``True`` if this call performed the revocation (it is
        idempotent — concurrent revokes from several survivors are the
        normal case).
        """
        if context_id in self.revoked:
            return False
        self.revoked.add(context_id)
        self._note("revoke")
        self._emit("comm.revoke", rank=by_rank, detail={"context": context_id})
        for ep in self._live_endpoints():
            ep.ft_context_revoked(context_id)
        return True

    def is_revoked(self, context_id: int) -> bool:
        return context_id in self.revoked
