"""Deterministic fault injection: plans, rules and per-fabric injectors.

The paper's protocols — eager transfer with envelope-slot flow control,
receiver-initiated rendezvous DMA, credit-based flow control over
TCP/UDP — are all *failure-handling* machinery.  This module creates the
failures systematically so that machinery can be exercised:

* a :class:`FaultPlan` is a composable list of rules (packet loss,
  duplication, corruption, link-down windows, node crashes, pauses and
  slow-downs);
* :meth:`World(faults=plan) <repro.mpi.world.World>` compiles the plan
  into one :class:`FaultInjector` per fabric (Ethernet medium, ATM
  switch, Meiko fat tree) plus host-level processes for the node rules;
* every probabilistic decision draws from an RNG seeded from
  ``(world seed, fabric name)``, so the same seed and the same plan
  produce a byte-identical simulation timeline.

Semantics of the packet-level actions:

``drop``
    The unit of delivery (Ethernet frame, ATM PDU train, Meiko packet)
    silently vanishes.
``corrupt``
    The unit is delivered damaged and discarded by the receiver's
    checksum (Ethernet CRC, AAL5 CRC-32, Elan packet CRC).  Observable
    only in the ``*_corrupted`` counters — recovery-wise it behaves
    like loss, which is what CRC-protected links actually do.
``duplicate``
    The unit is delivered twice.  Cluster fabrics only: the CS/2 fat
    tree is a source-routed circuit fabric that cannot replicate
    packets, so duplication rules never match the ``meiko`` fabric.

Node-level rules (applied by the World, not the fabrics):

* :class:`NodeCrash` — at time T the node's CPU halts forever and the
  fabric drops all of its traffic from then on;
* :class:`NodePause` — the CPU is seized for a window (a hard stall:
  GC pause, checkpoint, scheduler glitch) but traffic still flows;
* :class:`NodeSlow` — all CPU costs are scaled by ``factor`` inside the
  window (thermal throttling, a noisy neighbour).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "DELIVER",
    "DROP",
    "DUPLICATE",
    "CORRUPT",
    "BatchedRandom",
    "FaultRule",
    "PacketLoss",
    "PacketDuplication",
    "PacketCorruption",
    "LinkDown",
    "NodeCrash",
    "NodePause",
    "NodeSlow",
    "FaultPlan",
    "FaultInjector",
]

#: fabric names a rule may be scoped to (None in a rule means "all").
#: "rdma" and "cxl" are the modern platform's fabrics — there the
#: fabric name doubles as the device name.
FABRICS = ("ethernet", "atm", "meiko", "rdma", "cxl")

# packet-level actions returned by FaultInjector.decide()
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
CORRUPT = "corrupt"


@dataclass(frozen=True)
class FaultRule:
    """Base rule: a scope (fabric / endpoints / time window) shared by
    every concrete rule type.

    ``src``/``dst`` are host ids (``None`` matches any); the window is
    ``[t_start, t_end)`` in simulated microseconds; ``max_events``
    caps how many times the rule may fire (``None`` = unlimited).
    """

    fabric: Optional[str] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    t_start: float = 0.0
    t_end: float = float("inf")
    max_events: Optional[int] = None

    def __post_init__(self):
        if self.fabric is not None and self.fabric not in FABRICS:
            raise ConfigurationError(
                f"unknown fabric {self.fabric!r}; choose from {FABRICS} or None"
            )
        if self.t_end < self.t_start:
            raise ConfigurationError(
                f"rule window [{self.t_start}, {self.t_end}) is empty"
            )

    # -- scope ---------------------------------------------------------------
    def in_scope(self, fabric: str, src: int, dst: int, now: float) -> bool:
        """Does a (fabric, src, dst) delivery at time *now* fall under
        this rule's scope?"""
        if self.fabric is not None and self.fabric != fabric:
            return False
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return self.t_start <= now < self.t_end

    def with_overrides(self, **kw) -> "FaultRule":
        return replace(self, **kw)


@dataclass(frozen=True)
class PacketLoss(FaultRule):
    """Drop each in-scope delivery with ``probability`` (1.0 = always)."""

    probability: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(f"loss probability {self.probability} not in [0, 1]")


@dataclass(frozen=True)
class PacketDuplication(FaultRule):
    """Deliver each in-scope unit twice with ``probability``.

    Never matches the ``meiko`` fabric (see module docstring).
    """

    probability: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(
                f"duplication probability {self.probability} not in [0, 1]"
            )

    def in_scope(self, fabric: str, src: int, dst: int, now: float) -> bool:
        if fabric == "meiko":
            return False
        return super().in_scope(fabric, src, dst, now)


@dataclass(frozen=True)
class PacketCorruption(FaultRule):
    """Corrupt each in-scope delivery with ``probability``; the receiver's
    checksum detects the damage and discards the unit."""

    probability: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(
                f"corruption probability {self.probability} not in [0, 1]"
            )


@dataclass(frozen=True)
class LinkDown(FaultRule):
    """All traffic to/from ``node`` is dropped during the window.

    Deterministic (no RNG draw).  If ``node`` is None the ``src``/``dst``
    filters alone select the affected traffic — e.g.
    ``LinkDown(src=0, dst=1, t_start=a, t_end=b)`` takes down one
    direction of one link.
    """

    node: Optional[int] = None

    def in_scope(self, fabric: str, src: int, dst: int, now: float) -> bool:
        if not super().in_scope(fabric, src, dst, now):
            return False
        if self.node is not None and src != self.node and dst != self.node:
            return False
        return True


@dataclass(frozen=True)
class NodeCrash(FaultRule):
    """``node`` fails at time ``at``: its CPU halts forever and the
    fabric drops all of its traffic from then on."""

    node: int = 0
    at: float = 0.0

    def in_scope(self, fabric: str, src: int, dst: int, now: float) -> bool:
        if self.fabric is not None and self.fabric != fabric:
            return False
        return now >= self.at and (src == self.node or dst == self.node)


@dataclass(frozen=True)
class NodePause(FaultRule):
    """``node``'s CPU is seized for ``[t_start, t_end)`` (a hard stall);
    in-flight traffic still reaches its queues."""

    node: int = 0

    def in_scope(self, fabric: str, src: int, dst: int, now: float) -> bool:
        return False  # host-level rule: never affects packet delivery


@dataclass(frozen=True)
class NodeSlow(FaultRule):
    """``node``'s CPU costs are multiplied by ``factor`` during the
    window (``factor=2.0`` = half speed)."""

    node: int = 0
    factor: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if self.factor <= 0:
            raise ConfigurationError(f"slow-down factor must be positive, got {self.factor}")

    def in_scope(self, fabric: str, src: int, dst: int, now: float) -> bool:
        return False  # host-level rule: never affects packet delivery


#: rule types evaluated by the fabrics (everything else is host-level)
_PACKET_RULES = (PacketLoss, PacketDuplication, PacketCorruption, LinkDown, NodeCrash)
_HOST_RULES = (NodeCrash, NodePause, NodeSlow)


class BatchedRandom:
    """Uniform floats served from a pre-drawn block (refilled on
    exhaustion) over an underlying ``random.Random``.

    **Draw-order contract.**  The block is filled by *consecutive*
    ``Random.random()`` calls and consumed strictly in order, so the
    sequence of values a consumer observes is byte-identical to calling
    ``random()``/``uniform()`` directly — ``uniform(a, b)`` uses the
    same ``a + (b - a) * random()`` formula as the stdlib.  The
    determinism goldens depend on this.

    The contract only holds if **every** consumer of the underlying
    ``Random`` instance draws through this one wrapper, and only draws
    floats.  A consumer of raw bits (``randrange``/``getrandbits``,
    e.g. the Ethernet medium's binary-exponential backoff) consumes
    Mersenne-Twister words in a different pattern than ``random()``;
    pre-drawing floats past such a call would reorder the underlying
    stream and change every subsequent value.  Streams with a raw-bits
    consumer must therefore stay unbatched
    (:meth:`repro.hw.node.Host.jitter_stream` enforces this for the
    per-host streams).
    """

    __slots__ = ("_rng", "_batch", "_i")

    #: floats drawn per refill
    BATCH = 256

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._batch: List[float] = []
        self._i = 0

    def random(self) -> float:
        i = self._i
        batch = self._batch
        if i >= len(batch):
            r = self._rng.random
            self._batch = batch = [r() for _ in range(self.BATCH)]
            i = 0
        self._i = i + 1
        return batch[i]

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable collection of fault rules.

    Rules are evaluated in order for every delivery; the first decisive
    outcome wins (deterministic rules like :class:`LinkDown` and
    :class:`NodeCrash` are checked before any RNG is consulted, so the
    random stream is identical whether or not a deterministic drop
    fires).

    >>> plan = FaultPlan.loss(0.05, fabric="ethernet")
    >>> plan = plan.add(NodeCrash(node=1, at=50_000.0))
    """

    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self):
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise ConfigurationError(f"{rule!r} is not a FaultRule")
        object.__setattr__(self, "rules", tuple(self.rules))

    # -- construction helpers ------------------------------------------------
    @classmethod
    def of(cls, *rules: FaultRule) -> "FaultPlan":
        return cls(tuple(rules))

    @classmethod
    def loss(cls, probability: float, **scope) -> "FaultPlan":
        """Shorthand: a plan with a single uniform loss rule."""
        return cls((PacketLoss(probability=probability, **scope),))

    def add(self, *rules: FaultRule) -> "FaultPlan":
        """A new plan with *rules* appended."""
        return FaultPlan(self.rules + tuple(rules))

    # -- compilation ---------------------------------------------------------
    def injector(self, fabric: str, sim, seed: int = 0) -> "FaultInjector":
        """Compile the packet-level rules into an injector for *fabric*."""
        return FaultInjector(self, fabric, sim, seed)

    def host_rules(self) -> List[FaultRule]:
        """The node-level rules (crash / pause / slow-down)."""
        return [r for r in self.rules if isinstance(r, _HOST_RULES)]

    def crashed_nodes(self) -> List[int]:
        """Nodes a :class:`NodeCrash` rule takes down (for diagnostics)."""
        return sorted({r.node for r in self.rules if isinstance(r, NodeCrash)})


class FaultInjector:
    """Per-fabric executor of a :class:`FaultPlan`.

    The fabric asks :meth:`decide` for every unit of delivery and honours
    the returned action.  All randomness comes from a private
    ``random.Random`` seeded from ``(seed, fabric)`` — independent of
    the hosts' RNG streams, so adding a fault plan never perturbs
    Ethernet backoff or retransmission jitter draws.

    Counters (``drops``, ``duplicates``, ``corruptions`` and the
    per-rule ``rule_events`` list) are the plan's own accounting; the
    fabrics' ``frames_dropped`` / ``pdus_dropped`` counters must agree
    with them, which the test suite asserts.
    """

    def __init__(self, plan: FaultPlan, fabric: str, sim, seed: int = 0):
        if fabric not in FABRICS:
            raise ConfigurationError(f"unknown fabric {fabric!r}")
        self.plan = plan
        self.fabric = fabric
        self.sim = sim
        self.rules: Sequence[FaultRule] = [
            r for r in plan.rules if isinstance(r, _PACKET_RULES)
        ]
        # hash() is salted per process; crc32 keeps the stream identical
        # across runs, which the determinism tests rely on
        self.rng = random.Random(
            ((seed & 0xFFFFFFFF) * 0x9E3779B1) ^ zlib.crc32(f"repro.faults/{fabric}".encode())
        )
        # decide() is called for every delivery unit; the injector's
        # stream is private and float-only, so it is always batchable
        self._draw = BatchedRandom(self.rng)
        #: per-rule dispatch, precomputed: (deterministic?, action)
        self._fate: List[Tuple[bool, str]] = [
            (True, DROP) if isinstance(r, (LinkDown, NodeCrash))
            else (False, DROP) if isinstance(r, PacketLoss)
            else (False, CORRUPT) if isinstance(r, PacketCorruption)
            else (False, DUPLICATE)
            for r in self.rules
        ]
        #: events fired per rule (parallel to ``self.rules``)
        self.rule_events: List[int] = [0] * len(self.rules)
        self.decisions = 0
        self.drops = 0
        self.duplicates = 0
        self.corruptions = 0

    def decide(self, src: int, dst: int, nbytes: int = 0) -> str:
        """The fate of one delivery: DELIVER, DROP, DUPLICATE or CORRUPT."""
        now = self.sim.now
        self.decisions += 1
        events = self.rule_events
        fabric = self.fabric
        for i, rule in enumerate(self.rules):
            if rule.max_events is not None and events[i] >= rule.max_events:
                continue
            if not rule.in_scope(fabric, src, dst, now):
                continue
            deterministic, action = self._fate[i]
            if deterministic:
                return self._fire(i, action, src, dst, nbytes)
            # probabilistic rules share one deterministic (batched) stream
            if self._draw.random() >= rule.probability:
                continue
            return self._fire(i, action, src, dst, nbytes)
        return DELIVER

    def _fire(self, index: int, action: str, src: int, dst: int, nbytes: int) -> str:
        self.rule_events[index] += 1
        if action == DROP:
            self.drops += 1
        elif action == DUPLICATE:
            self.duplicates += 1
        elif action == CORRUPT:
            self.corruptions += 1
        obs = self.sim.obs
        if obs is not None:
            obs.emit(
                self.sim.now,
                "fault",
                "inject." + action,
                rank=dst,
                detail={
                    "fabric": self.fabric,
                    "rule": type(self.rules[index]).__name__,
                    "src": src,
                    "dst": dst,
                    "nbytes": nbytes,
                },
            )
        return action

    def summary(self) -> dict:
        """Accounting snapshot (used by diagnostics and tests)."""
        return {
            "fabric": self.fabric,
            "decisions": self.decisions,
            "drops": self.drops,
            "duplicates": self.duplicates,
            "corruptions": self.corruptions,
            "rule_events": list(self.rule_events),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector {self.fabric} drops={self.drops} "
            f"dups={self.duplicates} corrupt={self.corruptions}>"
        )


def apply_host_faults(sim, plan: Optional[FaultPlan], hosts: Iterable) -> None:
    """Spawn the host-level fault processes (crash / pause / slow-down).

    Called by the World after the platform is built.  Unknown node ids
    raise :class:`ConfigurationError` immediately rather than silently
    doing nothing at t=T.
    """
    if plan is None:
        return
    hosts = list(hosts)
    for rule in plan.host_rules():
        if not (0 <= rule.node < len(hosts)):
            raise ConfigurationError(
                f"{type(rule).__name__} names node {rule.node}, but the "
                f"machine has nodes [0, {len(hosts)})"
            )
        host = hosts[rule.node]
        if isinstance(rule, NodeCrash):
            sim.process(
                _crash(sim, host, rule.at, rule.node), name=f"fault-crash-{rule.node}"
            )
        elif isinstance(rule, NodePause):
            sim.process(
                _pause(sim, host, rule.t_start, rule.t_end, rule.node),
                name=f"fault-pause-{rule.node}",
            )
        elif isinstance(rule, NodeSlow):
            sim.process(
                _slow(sim, host, rule.factor, rule.t_start, rule.t_end, rule.node),
                name=f"fault-slow-{rule.node}",
            )


def _emit_fault(sim, kind: str, node: int, detail: dict) -> None:
    obs = sim.obs
    if obs is not None:
        obs.emit(sim.now, "fault", kind, rank=node, detail=detail)


def _crash(sim, host, at: float, node: int = -1):
    """At time *at*, seize the node's CPU and never release it."""
    if at > sim.now:
        yield sim.timeout(at - sim.now)
    yield host.cpu.request()
    host.crashed_at = sim.now
    _emit_fault(sim, "node.crash", node, {"at": sim.now})
    # fault tolerance (opt-in): tell the world's failure detector so
    # survivors eventually learn of the death instead of deadlocking
    ft = getattr(sim, "ft", None)
    if ft is not None:
        ft.on_crash(node, sim.now)
    # hold the CPU forever: wait on an event that never fires
    yield sim.event()


def _pause(sim, host, t_start: float, t_end: float, node: int = -1):
    if t_start > sim.now:
        yield sim.timeout(t_start - sim.now)
    req = host.cpu.request()
    yield req
    _emit_fault(sim, "node.pause", node, {"until": t_end})
    # the grant may arrive late if the CPU was busy; pause until t_end
    if t_end > sim.now:
        yield sim.timeout(t_end - sim.now)
    host.cpu.release(req)
    _emit_fault(sim, "node.resume", node, {})


def _slow(sim, host, factor: float, t_start: float, t_end: float, node: int = -1):
    if t_start > sim.now:
        yield sim.timeout(t_start - sim.now)
    original = host.cpu.speed
    host.cpu.speed = original / factor
    _emit_fault(sim, "node.slow", node, {"factor": factor, "until": t_end})
    if t_end != float("inf"):
        yield sim.timeout(t_end - sim.now)
        host.cpu.speed = original
        _emit_fault(sim, "node.resume", node, {"factor": factor})
