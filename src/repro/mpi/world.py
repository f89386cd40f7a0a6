"""The World: builds a platform and runs one MPI rank per node.

>>> from repro.mpi import World
>>> def main(comm):
...     if comm.rank == 0:
...         yield from comm.send(b"hi", dest=1, tag=0)
...     else:
...         data, st = yield from comm.recv(source=0, tag=0)
...         return bytes(data)
>>> World(nprocs=2, platform="meiko").run(main)[1]
b'hi'
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError, DeadlockError
from repro.mpi.communicator import Communicator
from repro.mpi.group import Group
from repro.platforms import build_platform
from repro.sim import Simulator, StopRun

__all__ = ["World"]

#: context id of MPI_COMM_WORLD
WORLD_CONTEXT = 0

#: deadlock diagnostics snapshot at most this many stuck ranks — a
#: 10k-rank deadlock must not build 10k state dicts (satellite of the
#: O(10k)-rank scaling work); the message reports how many were elided
WATCHDOG_SNAPSHOT_CAP = 16


class _LazyComms:
    """``world.comms`` as a lazily-materialized sequence.

    ``Communicator.__init__`` is pure (no endpoint side effects), but at
    O(10k) ranks eagerly building one per rank dominates World
    construction for jobs that then run on a handful of ranks
    (``ranks=`` subsets, figure sweeps).  Each rank's world communicator
    is built on first access and cached, so idle ranks stay O(1).
    """

    def __init__(self, world, group):
        self._world = world
        self._group = group
        self._cache: Dict[int, Communicator] = {}

    def __len__(self) -> int:
        return self._world.nprocs

    def __getitem__(self, rank: int) -> Communicator:
        comm = self._cache.get(rank)
        if comm is None:
            if not -len(self) <= rank < len(self):
                raise IndexError(rank)
            rank %= len(self)
            comm = self._cache[rank] = Communicator(
                self._world, self._group, WORLD_CONTEXT,
                self._world.endpoints[rank],
            )
        return comm

    def __iter__(self):
        return (self[r] for r in range(len(self)))


class World:
    """A complete MPI job on a simulated machine.

    Parameters
    ----------
    nprocs:
        Number of ranks (one per node/workstation).
    platform:
        ``"meiko"``, ``"atm"`` or ``"ethernet"``.
    device:
        MPI device; defaults to the platform's paper configuration
        (``lowlatency`` on the Meiko, ``tcp`` on the clusters).
    seed:
        Seed for all stochastic hardware behaviour (Ethernet backoff,
        fault injection, retransmission jitter).
    machine_params / device_config:
        Optional parameter-dataclass overrides for sweeps.
    host_speeds:
        Cluster platforms only: per-host CPU speed multipliers — the
        paper's testbed mixes 133 MHz Indys with a faster Challenge.
    kernel_params:
        Cluster platforms only: kernel cost-model override.
    faults:
        A :class:`repro.faults.FaultPlan`: packet loss / duplication /
        corruption, link-down windows, node crash / pause / slow-down.
        Valid on all platforms.  See ``docs/FAULTS.md``.
    obs:
        A :class:`repro.obs.EventBus` collecting structured events from
        every layer (kernel, transports, devices, MPI calls, faults).
        ``None`` (the default) disables emission entirely.  See
        ``docs/OBSERVABILITY.md``.
    ft:
        Opt-in ULFM-style fault tolerance: ``True`` or an
        :class:`repro.mpi.ft.FTConfig`.  With it, a ``NodeCrash`` is
        detected and announced to the survivors, operations touching
        the dead rank raise :class:`RankFailed`, and the communicator
        gains ``failure_ack``/``revoke``/``shrink``/``agree`` plus a
        checkpoint store at ``world.ft.checkpoints``.  Without it
        (default), a crash deadlocks peers exactly as before.  See
        ``docs/FAULTS.md``.
    """

    def __init__(
        self,
        nprocs: int,
        platform: str = "meiko",
        device: Optional[str] = None,
        seed: int = 0,
        machine_params: Any = None,
        device_config: Any = None,
        host_speeds: Any = None,
        kernel_params: Any = None,
        faults: Any = None,
        obs: Any = None,
        ft: Any = None,
    ):
        self.sim = Simulator()
        # attach before build_platform so construction-time emissions land
        self.sim.obs = obs
        self.obs = obs
        self.nprocs = nprocs
        self.faults = faults
        self.platform_name = platform
        self.platform = build_platform(
            platform, device, nprocs, self.sim, seed, machine_params, device_config,
            host_speeds, kernel_params, faults,
        )
        self.endpoints = self.platform.endpoints
        self.machine = self.platform.machine
        if ft:
            from repro.mpi.ft import FTConfig, FTState

            cfg = ft if isinstance(ft, FTConfig) else FTConfig()
            self.ft = FTState(self, cfg)
            self.sim.ft = self.ft
        else:
            self.ft = None
        if faults is not None:
            from repro.faults import apply_host_faults

            apply_host_faults(self.sim, faults, self.platform.hosts)
        self._contexts: Dict[Any, int] = {}
        self._next_context = WORLD_CONTEXT + 1
        world_group = Group(range(nprocs))
        self.comms = _LazyComms(self, world_group)

    # ----------------------------------------------------------------- setup
    def allocate_context(self, key: Any) -> int:
        """Deterministic collective context-id allocation.

        Every member of a communicator-creating call derives the same
        *key*, so all of them receive the same fresh id.
        """
        if key not in self._contexts:
            self._contexts[key] = self._next_context
            self._next_context += 1
        return self._contexts[key]

    def comm(self, rank: int) -> Communicator:
        """Rank *rank*'s MPI_COMM_WORLD."""
        return self.comms[rank]

    # ------------------------------------------------------------------- run
    def run(
        self,
        main: Callable,
        *args,
        ranks: Optional[List[int]] = None,
        limit: float = float("inf"),
    ) -> List[Any]:
        """Run ``main(comm, *args)`` on every rank; return their results.

        ``main`` must be a generator function.

        Failure semantics:

        * a rank raising an exception aborts the remaining ranks and
          re-raises that exception with ``mpi_rank`` and ``sim_time_us``
          attributes attached;
        * all ranks blocked with no event pending raises
          :class:`DeadlockError` — the watchdog diagnostic lists each
          stuck rank's outstanding sends/receives and flow-control
          state;
        * exceeding *limit* raises :class:`ConfigurationError`.
        """
        ranks = list(range(self.nprocs)) if ranks is None else ranks

        def rank_body(comm):
            # run the user program, then drain transfers the rank still
            # owes the network (buffered sends parked on flow control)
            result = yield from main(comm, *args)
            yield from comm.endpoint.finalize()
            return result

        procs = [
            self.sim.process(rank_body(self.comms[r]), name=f"rank{r}") for r in ranks
        ]
        sim = self.sim
        obs = sim.obs
        if obs is not None:
            obs.emit(sim.now, "mpi", "world.start",
                     detail={"nprocs": len(procs), "ranks": list(ranks)})
        # One supervised path for every world.  What decides the run (a
        # rank died, enough ranks finished, a crash executed) can only
        # change when a rank's process event fires or a crash fires, so
        # it is tested only there: the completion callback raises
        # StopRun, the crash hook asks the simulator to stop, and in
        # between the kernel's batch-drain loop runs unsupervised with
        # the time limit as its horizon.
        nprocs = len(procs)
        # Under FT a crashed rank never finishes; once every survivor has
        # returned the job is done — don't run out the background timers
        # (kernel retransmissions to the dead host span simulated minutes)
        crashed = self._crashed_ranks()
        survivors = sum(1 for r in ranks if r not in crashed)
        done = 0
        died = False

        def finished() -> bool:
            # (without a crash plan survivors == nprocs and
            # _ft_complete is False)
            return died or done >= nprocs or (
                done >= survivors and self._ft_complete(procs, ranks))

        def _on_done(event):
            nonlocal done, died
            done += 1
            if not event._ok:
                died = True
            if died or done >= survivors:
                raise StopRun

        def _on_crash():
            # survivors already done: the crash is what completes the job
            if finished():
                sim.stop()

        for p in procs:
            p.add_callback(_on_done)
        if crashed:
            self.ft.crash_hook = _on_crash
        try:
            while True:
                # the clock stays at the last fired event: that is the
                # time a deadlock or a failure is reported at
                sim.run(limit, advance_clock=False)
                if finished():
                    break
                next_t = sim.peek()
                if next_t == float("inf"):
                    raise self._watchdog(procs, ranks)
                if next_t > limit:
                    raise ConfigurationError(f"time limit {limit} µs exceeded")
                # stopped short: a survivor or the crash is still to come
        finally:
            if crashed:
                self.ft.crash_hook = None
        # Close the generators of crashed ranks now, while the event bus
        # still attributes emissions to this run: their ``finally``
        # blocks (the call.enter/exit tracer in particular) must not
        # fire later from the garbage collector with a stale clock into
        # some other world's trace.
        for p, r in zip(procs, ranks):
            if not p.triggered and r in crashed:
                try:
                    p._generator.close()
                except Exception:  # pragma: no cover - cleanup must not mask
                    pass
        failures = [p for p in procs if p.triggered and not p.ok]
        if failures:
            self._abort(procs, ranks, failures)
        if obs is not None:
            obs.emit(sim.now, "mpi", "world.stop", detail={"nprocs": len(procs)})
        # crashed ranks never finish: their result slot is None under FT
        return [p.value if p.triggered else None for p in procs]

    # -------------------------------------------------------- failure paths
    def _crashed_ranks(self) -> frozenset:
        """Ranks whose node is scheduled to crash (FT mode only)."""
        if self.ft is None or self.faults is None:
            return frozenset()
        return frozenset(self.faults.crashed_nodes())

    def _ft_complete(self, procs, ranks) -> bool:
        """Under fault tolerance, the job is complete when every rank
        still running is one whose node has *actually* crashed —
        survivors all finished; the dead never will.  (A rank whose
        crash is merely scheduled but has not fired yet is still live.)"""
        crashed = self._crashed_ranks()
        if not crashed or self.ft is None:
            return False
        return all(
            p.triggered or (r in crashed and self.ft.is_crashing(r))
            for p, r in zip(procs, ranks)
        )

    def _abort(self, procs, ranks, failures) -> None:
        """Abort surviving ranks and re-raise the first failure with
        rank/timestamp context attached."""
        sim = self.sim
        first = failures[0]
        failed_rank = ranks[procs.index(first)]
        failed_at = sim.now
        obs = sim.obs
        if obs is not None:
            obs.emit(failed_at, "mpi", "world.abort", rank=failed_rank,
                     detail={"error": type(first.value).__name__})
        # we are handling every rank's outcome; nothing may crash the sim
        for p in procs:
            p.defuse()
        for p in procs:
            if not p.triggered:
                p.interrupt(
                    ConfigurationError(
                        f"aborted: rank {failed_rank} failed at t={failed_at:.3f} µs"
                    )
                )
        # deliver the interrupts (URGENT events at the current time) so
        # resource claims are released by the ranks' finally blocks
        while not all(p.triggered for p in procs) and sim.peek() != float("inf"):
            sim.step()
        exc = first.value
        try:
            exc.mpi_rank = failed_rank
            exc.sim_time_us = failed_at
        except (AttributeError, TypeError):  # __slots__ or immutable exception
            pass
        if hasattr(exc, "add_note"):  # pragma: no branch - 3.11+
            exc.add_note(
                f"[repro] raised on rank {failed_rank} at t={failed_at:.3f} µs; "
                f"remaining ranks aborted"
            )
        raise exc

    def _watchdog(self, procs, ranks) -> DeadlockError:
        """Build the deadlock diagnostic: one line per stuck rank with its
        outstanding operations and flow-control state.

        The machine-readable per-rank snapshots ride along on the
        exception as ``rank_states`` (rank -> dict); the rendered lines
        in the message come from the same snapshots.  Snapshots stop at
        ``WATCHDOG_SNAPSHOT_CAP`` stuck ranks (the full stuck-rank list
        still rides on ``stuck_ranks``) so a 10k-rank deadlock costs 16
        state dicts, not 10k.
        """
        lines = []
        rank_states = {}
        crashed = self._crashed_ranks()
        stuck = [r for p, r in zip(procs, ranks)
                 if not p.triggered and r not in crashed]
        for r in stuck[:WATCHDOG_SNAPSHOT_CAP]:
            endpoint = self.endpoints[r]
            try:
                rank_states[r] = endpoint.state_snapshot()
                state = endpoint.describe_state()
            except Exception as exc:  # pragma: no cover - diagnostics must not mask
                state = f"<state_snapshot failed: {exc!r}>"
            lines.append(f"  rank {r}: {state}")
        if len(stuck) > WATCHDOG_SNAPSHOT_CAP:
            lines.append(f"  ... {len(stuck) - WATCHDOG_SNAPSHOT_CAP} more ranks elided")
        detail = "\n".join(lines)
        obs = self.sim.obs
        if obs is not None:
            obs.emit(self.sim.now, "mpi", "world.deadlock",
                     detail={"stuck_ranks": stuck, "rank_states": rank_states})
        return DeadlockError(
            f"deadlock at t={self.sim.now:.3f} µs: ranks {stuck} are blocked "
            f"and no events are pending\n{detail}",
            stuck_ranks=stuck,
            rank_states=rank_states,
        )
