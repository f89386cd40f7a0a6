"""Seeded random MPI program generation.

A *program* is a JSON-serializable IR executed round-by-round on every
rank by :mod:`repro.conformance.executor`.  Three round kinds:

* **exchange** — a set of point-to-point transfers.  Every rank first
  posts *all* of its receives nonblocking, then issues its sends, then
  completes everything with a per-rank strategy (waitall / waitany
  drain / waitsome drain / test-then-waitall / ordered waits).  Because
  each rank reaches the end of its (nonblocking) receive-posting phase
  without blocking, every send eventually matches a posted receive and
  the round cannot deadlock — by induction over rounds the whole
  program is deadlock-free.
* **pingpong** — one blocking request/reply pair, covering blocking
  ``recv`` and (optionally) blocking ``probe``.
* **collective** — one call from the full collectives surface on
  MPI_COMM_WORLD.

Determinism rules (the semantic trace must be device-independent, so
wildcards are only generated where MPI's own guarantees pin the match):

* explicit tags are unique program-wide, except that a transfer with
  ``reps > 1`` reuses its tag for every repetition — those messages
  share a (source, dest, tag) triple and must match in send order
  (the non-overtaking guarantee the fuzzer exists to check);
* ``ANY_SOURCE`` receives keep an explicit tag; tag uniqueness then
  pins the matching message (and hence ``Status.source``);
* ``ANY_TAG`` receives keep an explicit source and are only generated
  for the round's sole transfer on that (src, dst) pair; per-sender
  in-order matching then pins the message;
* a double-wildcard receive is only generated when its destination
  rank receives exactly one point-to-point message in the entire
  program.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Transfer",
    "ExchangeRound",
    "PingPongRound",
    "CollectiveRound",
    "FtRound",
    "Program",
    "generate",
    "validate",
    "collective_styles",
    "payload_bytes",
    "payload_array",
]

#: point-to-point payload byte sizes (eager/rendezvous thresholds are
#: 180 B on the Meiko low-latency device and 16384 B on the cluster
#: devices — the grammar straddles both)
BYTE_SIZES = [0, 1, 7, 64, 179, 180, 181, 513, 2048, 16384, 16385]
BYTE_WEIGHTS = [1, 4, 4, 4, 2, 2, 2, 3, 2, 1, 1]
INT_COUNTS = [1, 3, 16, 45, 128, 1024]
DOUBLE_COUNTS = [1, 2, 9, 33, 256]

SEND_KINDS = ["isend", "send", "ssend", "issend", "bsend", "persistent"]
SEND_WEIGHTS = [30, 20, 10, 10, 10, 10]
STRATEGIES = ["waitall", "waitany", "ordered", "test_then_waitall", "waitsome"]
STRATEGY_WEIGHTS = [40, 25, 20, 10, 5]
COLLECTIVE_OPS = [
    "bcast", "barrier", "reduce", "allreduce", "scan", "exscan",
    "reduce_scatter", "gather", "scatter", "allgather", "alltoall",
]
REDUCE_OPS = ["sum", "max", "min", "prod"]

#: numpy dtype names — numpy itself is imported by the two functions that
#: build or size a numeric payload, which only a running program calls:
#: generating a program (all a cached fuzz command does) needs none
_DTYPES = {"int": "int32", "double": "float64", "long": "int64"}


# ------------------------------------------------------------------ payloads
@functools.lru_cache(maxsize=256)
def _stream(material: str, nbytes: int) -> bytes:
    """Deterministic byte stream from *material* (sha256 counter mode).

    Memoised: a program's payloads are rebuilt for every cell and
    reference rerun of its differential.  The result is immutable and
    the bound (256 streams of at most 16385 B, the largest ``BYTE_SIZES``
    entry) keeps the cache to a few MiB; one program uses a few dozen.
    """
    out = bytearray()
    ctr = 0
    while len(out) < nbytes:
        out += hashlib.sha256(f"{material}#{ctr}".encode()).digest()
        ctr += 1
    return bytes(out[:nbytes])


def payload_bytes(program_seed: int, pid: int, rep: int, nbytes: int) -> bytes:
    """The byte payload of repetition *rep* of payload id *pid*."""
    return _stream(f"{program_seed}:{pid}:{rep}", nbytes)


def payload_array(
    program_seed: int, pid: int, rep: int, dtype: str, nelems: int,
    lo: int = 0, hi: int = 97,
) -> np.ndarray:
    """A deterministic numeric payload (values in ``[lo, hi)``).

    Float payloads hold small integers divided by 8 — exact in binary,
    so identical reduction order gives bit-identical results on every
    device.
    """
    import numpy as np

    raw = np.frombuffer(
        _stream(f"{program_seed}:{pid}:{rep}", nelems), dtype=np.uint8
    ).astype(np.int64)
    vals = lo + (raw % max(1, hi - lo))
    np_dtype = _DTYPES[dtype]
    if dtype == "double":
        return (vals / 8.0).astype(np_dtype)
    return vals.astype(np_dtype)


# ------------------------------------------------------------------------ IR
@dataclass
class Transfer:
    """One point-to-point transfer inside an exchange round."""

    tid: int
    src: int
    dst: int
    tag: int
    dtype: str = "byte"          # byte | int | double
    nelems: int = 16             # bytes for dtype=byte, elements otherwise
    reps: int = 1                # messages on this (src, dst, tag) triple
    send_kind: str = "isend"     # isend|send|ssend|issend|bsend|persistent
    persistent_recv: bool = False
    any_source: bool = False
    any_tag: bool = False
    alloc_recv: bool = False     # recv with buf=None (byte dtype only)

    def nbytes(self) -> int:
        if self.dtype == "byte":
            return self.nelems
        import numpy as np

        return self.nelems * np.dtype(_DTYPES[self.dtype]).itemsize

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tid": self.tid, "src": self.src, "dst": self.dst,
            "tag": self.tag, "dtype": self.dtype, "nelems": self.nelems,
            "reps": self.reps, "send_kind": self.send_kind,
            "persistent_recv": self.persistent_recv,
            "any_source": self.any_source, "any_tag": self.any_tag,
            "alloc_recv": self.alloc_recv,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Transfer":
        return cls(**d)


@dataclass
class ExchangeRound:
    kind = "exchange"
    transfers: List[Transfer] = field(default_factory=list)
    #: per-rank completion strategy (absent rank -> waitall)
    strategies: Dict[int, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "exchange",
            "transfers": [t.to_dict() for t in self.transfers],
            "strategies": {str(r): s for r, s in self.strategies.items()},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "ExchangeRound":
        return cls(
            transfers=[Transfer.from_dict(t) for t in d["transfers"]],
            strategies={int(r): s for r, s in d.get("strategies", {}).items()},
        )


@dataclass
class PingPongRound:
    kind = "pingpong"
    tid: int = 0
    src: int = 0
    dst: int = 1
    tag: int = 0
    reply_tag: int = 0
    nbytes: int = 64
    reply_nbytes: int = 64
    send_kind: str = "send"      # send | ssend
    use_probe: bool = False
    probe_any_tag: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "pingpong", "tid": self.tid, "src": self.src,
            "dst": self.dst, "tag": self.tag, "reply_tag": self.reply_tag,
            "nbytes": self.nbytes, "reply_nbytes": self.reply_nbytes,
            "send_kind": self.send_kind, "use_probe": self.use_probe,
            "probe_any_tag": self.probe_any_tag,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "PingPongRound":
        d = {k: v for k, v in d.items() if k != "kind"}
        return cls(**d)


@dataclass
class CollectiveRound:
    kind = "collective"
    cid: int = 0
    op: str = "bcast"
    root: int = 0
    dtype: str = "long"          # numeric collectives
    nelems: int = 8              # per-rank elements (total for scatter root)
    redop: str = "sum"
    #: forced algorithm choice (the "algos" profile); None = the
    #: device/selector default.  Styles never change semantics — the
    #: payloads are exact-arithmetic, so every algorithm must produce
    #: the byte-identical trace (checked against a style-stripped
    #: reference run in ``executor.differential``).
    style: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        d = {
            "kind": "collective", "cid": self.cid, "op": self.op,
            "root": self.root, "dtype": self.dtype, "nelems": self.nelems,
            "redop": self.redop,
        }
        if self.style is not None:
            d["style"] = self.style
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CollectiveRound":
        d = {k: v for k, v in d.items() if k != "kind"}
        return cls(**d)


@dataclass
class FtRound:
    """ULFM recovery driven as a conformance operation.

    The program's ``ft`` spec crashes *victim* at t=0; every survivor
    then attempts a receive from the dead rank (which must fail with
    :class:`~repro.mpi.exceptions.RankFailed` or, if a peer revoked
    first, :class:`~repro.mpi.exceptions.CommRevoked`), runs
    ``revoke -> failure_ack -> shrink -> agree``, and executes a
    verification collective on the shrunken communicator.  The semantic
    trace records the acked failures, the survivor list, the agreement
    result, and the collective's digest — all timing-free, so every
    device must produce the identical recovery trace.
    """

    kind = "ft"
    tid: int = 0
    victim: int = 1
    tag: int = 1
    flag_mode: str = "all"       # all | parity (per-rank agree inputs)
    verify: str = "allreduce"    # allreduce | allgather
    nelems: int = 8

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "ft", "tid": self.tid, "victim": self.victim,
            "tag": self.tag, "flag_mode": self.flag_mode,
            "verify": self.verify, "nelems": self.nelems,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FtRound":
        d = {k: v for k, v in d.items() if k != "kind"}
        return cls(**d)


_ROUND_TYPES = {
    "exchange": ExchangeRound,
    "pingpong": PingPongRound,
    "collective": CollectiveRound,
    "ft": FtRound,
}


@dataclass
class Program:
    """A complete generated MPI program."""

    seed: int
    nprocs: int
    rounds: List[Any] = field(default_factory=list)
    #: optional fault spec for the fault-composed mode:
    #: {"loss": p, "dup": p, "seed": n} (cluster fabrics only)
    fault: Optional[Dict[str, Any]] = None
    #: optional FT spec: {"victim": rank, "at": us} — the executor runs
    #: the world with ``ft=True`` and a pinned NodeCrash; set iff the
    #: program's rounds are :class:`FtRound`
    ft: Optional[Dict[str, Any]] = None

    def op_count(self) -> int:
        """Total MPI operations (sends + receives + probes + collective
        calls over all ranks) — the shrinker's size metric."""
        n = 0
        for rnd in self.rounds:
            if rnd.kind == "exchange":
                n += sum(2 * t.reps for t in rnd.transfers)
            elif rnd.kind == "pingpong":
                n += 4 + (1 if rnd.use_probe else 0)
            else:
                n += self.nprocs
        return n

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "nprocs": self.nprocs,
            "rounds": [r.to_dict() for r in self.rounds],
            "fault": self.fault,
            "ft": self.ft,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Program":
        rounds = [_ROUND_TYPES[r["kind"]].from_dict(r) for r in d["rounds"]]
        return cls(
            seed=d["seed"], nprocs=d["nprocs"], rounds=rounds,
            fault=d.get("fault"), ft=d.get("ft"),
        )


# ------------------------------------------------------------------ validate
def validate(program: Program) -> List[str]:
    """Structural / determinism-rule violations (empty list == valid)."""
    problems: List[str] = []
    n = program.nprocs
    if n < 2:
        problems.append("nprocs must be >= 2")
        return problems
    seen_tags: Dict[int, int] = {}
    incoming: Dict[int, int] = {}
    for i, rnd in enumerate(program.rounds):
        if rnd.kind == "exchange":
            pair_counts: Dict[tuple, int] = {}
            for t in rnd.transfers:
                pair_counts[(t.src, t.dst)] = pair_counts.get((t.src, t.dst), 0) + 1
            for t in rnd.transfers:
                if not (0 <= t.src < n and 0 <= t.dst < n) or t.src == t.dst:
                    problems.append(f"round {i}: bad endpoints {t.src}->{t.dst}")
                seen_tags[t.tag] = seen_tags.get(t.tag, 0) + 1
                incoming[t.dst] = incoming.get(t.dst, 0) + t.reps
                if t.any_source and t.any_tag:
                    pass  # checked globally below
                elif t.any_tag and (pair_counts[(t.src, t.dst)] > 1 or t.reps > 1):
                    problems.append(
                        f"round {i}: ANY_TAG transfer {t.tid} shares its "
                        f"(src, dst) pair or repeats"
                    )
                if t.any_source and t.reps > 1:
                    problems.append(f"round {i}: ANY_SOURCE transfer {t.tid} repeats")
                if t.send_kind == "persistent" and t.dtype == "byte":
                    problems.append(f"round {i}: persistent send {t.tid} needs numeric dtype")
                if t.alloc_recv and t.dtype != "byte":
                    problems.append(f"round {i}: alloc recv {t.tid} needs byte dtype")
        elif rnd.kind == "pingpong":
            if not (0 <= rnd.src < n and 0 <= rnd.dst < n) or rnd.src == rnd.dst:
                problems.append(f"round {i}: bad pingpong pair")
            seen_tags[rnd.tag] = seen_tags.get(rnd.tag, 0) + 1
            seen_tags[rnd.reply_tag] = seen_tags.get(rnd.reply_tag, 0) + 1
            incoming[rnd.dst] = incoming.get(rnd.dst, 0) + 1
            incoming[rnd.src] = incoming.get(rnd.src, 0) + 1
        elif rnd.kind == "collective":
            if not 0 <= rnd.root < n:
                problems.append(f"round {i}: collective root out of range")
            style = getattr(rnd, "style", None)
            if style is not None and style not in collective_styles(rnd.op):
                problems.append(
                    f"round {i}: style {style!r} is not a registered "
                    f"{rnd.op} algorithm"
                )
            if rnd.op == "reduce_scatter" and rnd.nelems % n:
                problems.append(
                    f"round {i}: reduce_scatter buffer of {rnd.nelems} elements "
                    f"does not split over {n} ranks"
                )
        elif rnd.kind == "ft":
            if program.ft is None:
                problems.append(f"round {i}: ft round needs the program's ft spec")
            elif rnd.victim != program.ft.get("victim"):
                problems.append(f"round {i}: victim disagrees with the ft spec")
            if not 0 <= rnd.victim < n:
                problems.append(f"round {i}: ft victim out of range")
            if n < 3:
                problems.append(f"round {i}: ft round needs >= 3 ranks")
            if rnd.flag_mode not in ("all", "parity"):
                problems.append(f"round {i}: unknown flag_mode {rnd.flag_mode!r}")
            if rnd.verify not in ("allreduce", "allgather"):
                problems.append(f"round {i}: unknown verify {rnd.verify!r}")
            seen_tags[rnd.tag] = seen_tags.get(rnd.tag, 0) + 1
        else:  # pragma: no cover - from_dict rejects unknown kinds first
            problems.append(f"round {i}: unknown kind {rnd.kind!r}")
    if program.ft is not None:
        if program.fault is not None:
            problems.append("ft programs cannot compose a packet-fault spec")
        if any(rnd.kind != "ft" for rnd in program.rounds):
            # with the crash pinned at t=0 any non-FT round would race
            # the failure announcement nondeterministically
            problems.append("ft programs may only contain ft rounds")
        if len(program.rounds) != 1:
            problems.append("ft programs contain exactly one ft round")
    for tag, count in seen_tags.items():
        if count > 1:
            problems.append(f"tag {tag} reused across transfers")
    for rnd in program.rounds:
        if rnd.kind != "exchange":
            continue
        for t in rnd.transfers:
            if t.any_source and t.any_tag and incoming.get(t.dst, 0) != 1:
                problems.append(
                    f"double-wildcard transfer {t.tid}: rank {t.dst} receives "
                    f"{incoming.get(t.dst, 0)} messages, not exactly 1"
                )
    return problems


# ------------------------------------------------------------------ generate
def _weighted(rng: random.Random, options, weights):
    return rng.choices(options, weights=weights, k=1)[0]


class _Ids:
    def __init__(self):
        self.tag = 0
        self.tid = 0
        self.cid = 0

    def next_tag(self) -> int:
        self.tag += 1
        return self.tag

    def next_tid(self) -> int:
        self.tid += 1
        return self.tid

    def next_cid(self) -> int:
        self.cid += 1
        return self.cid


def _gen_exchange(rng: random.Random, nprocs: int, ids: _Ids) -> ExchangeRound:
    transfers: List[Transfer] = []
    for _ in range(rng.randint(1, 4)):
        src, dst = rng.sample(range(nprocs), 2)
        dtype = _weighted(rng, ["byte", "int", "double"], [5, 3, 2])
        if dtype == "byte":
            nelems = _weighted(rng, BYTE_SIZES, BYTE_WEIGHTS)
        elif dtype == "int":
            nelems = rng.choice(INT_COUNTS)
        else:
            nelems = rng.choice(DOUBLE_COUNTS)
        reps = _weighted(rng, [1, 2, 3], [7, 2, 1])
        send_kind = _weighted(rng, SEND_KINDS, SEND_WEIGHTS)
        if send_kind == "persistent" and dtype == "byte":
            dtype, nelems = "int", rng.choice(INT_COUNTS)
        persistent_recv = reps <= 3 and rng.random() < 0.15
        alloc_recv = dtype == "byte" and not persistent_recv and rng.random() < 0.4
        transfers.append(Transfer(
            tid=ids.next_tid(), src=src, dst=dst, tag=ids.next_tag(),
            dtype=dtype, nelems=nelems, reps=reps, send_kind=send_kind,
            persistent_recv=persistent_recv, alloc_recv=alloc_recv,
        ))
    # wildcard assignment (after the round's pair census is known)
    pair_counts: Dict[tuple, int] = {}
    for t in transfers:
        pair_counts[(t.src, t.dst)] = pair_counts.get((t.src, t.dst), 0) + 1
    for t in transfers:
        if t.reps > 1 or t.persistent_recv:
            continue
        roll = rng.random()
        if roll < 0.18:
            t.any_source = True
        elif roll < 0.36 and pair_counts[(t.src, t.dst)] == 1:
            t.any_tag = True
    ranks = {t.src for t in transfers} | {t.dst for t in transfers}
    strategies = {
        r: _weighted(rng, STRATEGIES, STRATEGY_WEIGHTS) for r in sorted(ranks)
    }
    return ExchangeRound(transfers=transfers, strategies=strategies)


def _gen_pingpong(rng: random.Random, nprocs: int, ids: _Ids) -> PingPongRound:
    src, dst = rng.sample(range(nprocs), 2)
    use_probe = rng.random() < 0.5
    return PingPongRound(
        tid=ids.next_tid(), src=src, dst=dst,
        tag=ids.next_tag(), reply_tag=ids.next_tag(),
        nbytes=_weighted(rng, BYTE_SIZES, BYTE_WEIGHTS),
        reply_nbytes=_weighted(rng, BYTE_SIZES, BYTE_WEIGHTS),
        send_kind=rng.choice(["send", "send", "ssend"]),
        use_probe=use_probe,
        probe_any_tag=use_probe and rng.random() < 0.3,
    )


def _gen_collective(rng: random.Random, nprocs: int, ids: _Ids) -> CollectiveRound:
    op = rng.choice(COLLECTIVE_OPS)
    redop = rng.choice(REDUCE_OPS)
    nelems = rng.choice([1, 2, 8, 32])
    if op == "reduce_scatter":
        nelems = rng.choice([1, 2, 4]) * nprocs
    dtype = rng.choice(["long", "double"])
    if redop == "prod":
        dtype = "long"  # tiny integer factors; exact products everywhere
    return CollectiveRound(
        cid=ids.next_cid(), op=op, root=rng.randrange(nprocs),
        dtype=dtype, nelems=nelems, redop=redop,
    )


def collective_styles(op: str) -> List[str]:
    """Registered algorithm names for *op* (empty for ops without a
    forced-``style`` knob, e.g. scan/exscan/alltoall)."""
    from repro.mpi.coll import registry

    return registry.algorithms(op)


def _gen_collective_styled(rng: random.Random, nprocs: int, ids: _Ids) -> CollectiveRound:
    """A collective round with a forced algorithm choice.

    Used only by the "algos" profile: the style is drawn *after* the
    base round, so the RNG stream consumed by :func:`_gen_collective`
    is untouched and every other profile's pinned seeds stay
    byte-identical.
    """
    rnd = _gen_collective(rng, nprocs, ids)
    styles = collective_styles(rnd.op)
    if styles:
        rnd.style = rng.choice(styles)
    return rnd


#: round-kind weights per profile: (exchange, pingpong, collective).
#: the "ft" profile is special-cased: one FtRound + a pinned NodeCrash;
#: "algos" is collective-heavy with every collective carrying a forced
#: algorithm style drawn from the repro.mpi.coll registry
PROFILES = {
    "mixed": (5, 2, 3),
    "pt2pt": (7, 3, 0),
    "collective": (1, 1, 8),
    "algos": (1, 1, 8),
    "fault": (6, 3, 1),
    "ft": (0, 0, 0),
}


def _gen_ft(rng: random.Random, nprocs: int, ids: _Ids) -> FtRound:
    return FtRound(
        tid=ids.next_tid(),
        victim=rng.randrange(nprocs),
        tag=ids.next_tag(),
        flag_mode=rng.choice(["all", "all", "parity"]),
        verify=rng.choice(["allreduce", "allgather"]),
        nelems=rng.choice([1, 4, 8, 32]),
    )


def generate(seed: int, nprocs: Optional[int] = None, profile: str = "mixed") -> Program:
    """Generate the program for *seed* (fully deterministic).

    ``profile`` weights the round mix (see :data:`PROFILES`); the
    ``fault`` profile additionally attaches a seeded loss/duplication
    :class:`~repro.faults.FaultPlan` spec for the fault-composed mode.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    rng = random.Random((seed << 4) ^ 0x5EED)
    if profile == "ft":
        # one ULFM recovery scenario: crash at t=0, survivors recover
        nprocs = nprocs or rng.randint(3, 5)
        if nprocs < 3:
            raise ValueError("ft programs need >= 3 ranks")
        ids = _Ids()
        rnd = _gen_ft(rng, nprocs, ids)
        program = Program(
            seed=seed, nprocs=nprocs, rounds=[rnd],
            ft={"victim": rnd.victim, "at": 0.0},
        )
        problems = validate(program)
        if problems:  # pragma: no cover - generator invariant
            raise AssertionError(f"generator produced invalid program: {problems}")
        return program
    nprocs = nprocs or rng.randint(2, 5)
    ids = _Ids()
    weights = PROFILES[profile]
    gens = {"exchange": _gen_exchange, "pingpong": _gen_pingpong,
            "collective": (_gen_collective_styled if profile == "algos"
                           else _gen_collective)}
    rounds: List[Any] = []
    for _ in range(rng.randint(2, 5)):
        kind = _weighted(rng, ["exchange", "pingpong", "collective"], weights)
        rounds.append(gens[kind](rng, nprocs, ids))
    # double-wildcard promotion: a rank that receives exactly one
    # point-to-point message in the whole program may take it with
    # (ANY_SOURCE, ANY_TAG)
    incoming: Dict[int, int] = {}
    for rnd in rounds:
        if rnd.kind == "exchange":
            for t in rnd.transfers:
                incoming[t.dst] = incoming.get(t.dst, 0) + t.reps
        elif rnd.kind == "pingpong":
            incoming[rnd.dst] = incoming.get(rnd.dst, 0) + 1
            incoming[rnd.src] = incoming.get(rnd.src, 0) + 1
    eligible = [
        t for rnd in rounds if rnd.kind == "exchange" for t in rnd.transfers
        if incoming.get(t.dst) == 1 and t.reps == 1 and t.dtype == "byte"
        and not t.persistent_recv
    ]
    if eligible and rng.random() < 0.6:
        chosen = rng.choice(eligible)
        chosen.any_source = chosen.any_tag = True
        chosen.alloc_recv = True
    fault = None
    if profile == "fault" or (profile == "mixed" and rng.random() < 0.15):
        fault = {
            "loss": rng.choice([0.03, 0.06, 0.10]),
            "dup": rng.choice([0.0, 0.02, 0.05]),
            "seed": rng.randrange(1, 1000),
        }
    program = Program(seed=seed, nprocs=nprocs, rounds=rounds, fault=fault)
    problems = validate(program)
    if problems:  # pragma: no cover - generator invariant
        raise AssertionError(f"generator produced invalid program: {problems}")
    return program
