"""The paper's claims as data: one row per number or shape we check.

Each :class:`Claim` names where the paper makes it (a figure, Table 1 or
the text), the paper's value, the measured quantity as a function of
that figure's result (``repro.bench.figures``) and one of four checks:

* :class:`Tolerance` — within a relative distance of the paper's number
  (exactly equal when the distance is 0: Table 1's model constants);
* :class:`Ordering` — at every sample, the measured values strictly
  increase (``tport < low latency < mpich``);
* :class:`Bracket` — the measured value lies in an interval (the
  Figure 1 crossover in [120, 260] B);
* :class:`Ratio` — a bracket on ``a / b`` of a measured pair (ATM
  bandwidth over Ethernet's above 4).

A claim's id starts with the figure it reads (``fig02.tport_1B``,
``table1.atm.rtt_1B``).  This table is the one home of every paper
number: ``repro figure``/``sweep`` read their paper column and
crossover note from it, and ``python -m repro.bench.experiments`` checks
every row and renders EXPERIMENTS.md from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Claim", "Tolerance", "Ordering", "Bracket", "Ratio", "CLAIMS",
           "TABLE1_ROWS", "paper", "judge"]


def _fmt(value: float) -> str:
    """A measured number as the tables print it: 4 significant digits
    below 100, one decimal above.  (The paper's numbers and the checks'
    bounds print as written, ``:g``.)"""
    return f"{value:.4g}" if abs(value) < 100 else f"{value:.1f}"


@dataclass(frozen=True)
class Tolerance:
    """``|measured - paper| < rel * |paper|``; ``rel=0`` demands equality."""

    rel: float

    def holds(self, measured, paper) -> bool:
        return measured == paper or abs(measured - paper) < self.rel * abs(paper)

    def show(self, measured) -> str:
        return _fmt(measured)

    def __str__(self) -> str:
        return "equal" if self.rel == 0 else f"±{self.rel:.0%}"


@dataclass(frozen=True)
class Ordering:
    """Measured ``{x: (v0, v1, ...)}``: every tuple strictly increasing."""

    def holds(self, measured, paper) -> bool:
        return all(a < b for vs in measured.values() for a, b in zip(vs, vs[1:]))

    def show(self, measured) -> str:
        bad = [x for x, vs in measured.items() if not self.holds({x: vs}, None)]
        if bad:
            return f"at {bad[0]}: " + ", ".join(map(_fmt, measured[bad[0]]))
        if len(measured) == 1:
            (values,) = measured.values()
            return " < ".join(map(_fmt, values))
        return f"holds at all {len(measured)}"

    def __str__(self) -> str:
        return "ordering"


@dataclass(frozen=True)
class Bracket:
    """``lo <= measured <= hi`` (``<`` when *strict*); a ``None`` side is
    open.  A missing measurement (``None``) never holds."""

    lo: Optional[float] = None
    hi: Optional[float] = None
    strict: bool = False

    def value(self, measured):
        return measured

    def holds(self, measured, paper) -> bool:
        if measured is None:
            return False
        v = self.value(measured)
        if self.strict:
            return (self.lo is None or self.lo < v) and (self.hi is None or v < self.hi)
        return (self.lo is None or self.lo <= v) and (self.hi is None or v <= self.hi)

    def show(self, measured) -> str:
        return "none" if measured is None else _fmt(self.value(measured))

    def __str__(self) -> str:
        if self.lo is None:
            return f"{'<' if self.strict else '≤'} {self.hi:g}"
        if self.hi is None:
            return f"{'>' if self.strict else '≥'} {self.lo:g}"
        if self.strict:
            return f"in ({self.lo:g}, {self.hi:g})"
        return f"in [{self.lo:g}, {self.hi:g}]"


@dataclass(frozen=True)
class Ratio(Bracket):
    """A :class:`Bracket` on ``a / b`` of a measured pair ``(a, b)``."""

    def value(self, measured):
        a, b = measured
        return a / b

    def show(self, measured) -> str:
        return super().show(measured) + "×"

    def __str__(self) -> str:
        return "ratio " + super().__str__()


@dataclass(frozen=True)
class Claim:
    id: str
    source: str
    quantity: str
    paper: Any
    measure: Callable[[dict], Any]
    #: a Tolerance, Ordering, Bracket or Ratio
    check: Any
    #: of the paper's and the measured value (Tolerance and Bracket only)
    unit: str = ""

    @property
    def figure(self) -> str:
        """The plan whose result the claim reads (``fig02``, ``table1``)."""
        return self.id.split(".")[0]

    def paper_text(self) -> str:
        if isinstance(self.paper, str):
            return self.paper
        return f"{self.paper:g} {self.unit}".rstrip()

    def measured_text(self, measured) -> str:
        return f"{self.check.show(measured)} {self.unit}".rstrip()


# ---------------------------------------------------------------------------
# Measured quantities: small readers of a figure's result
# ---------------------------------------------------------------------------


def _at(result: dict, name: str, x) -> float:
    """Series *name* at sample *x* (or at ``x(samples)``, e.g. ``max``)."""
    series = dict(result["series"][name])
    return series[x(series) if callable(x) else x]


def _order(result: dict, *names: str, where=lambda x: True) -> Dict[Any, Tuple]:
    """``{x: (each named series at x)}`` for every sample x *where* holds."""
    series = [dict(result["series"][name]) for name in names]
    return {x: tuple(s[x] for s in series) for x in series[0] if where(x)}


def _grows(result: dict, *names: str) -> Dict[str, Tuple]:
    """``{name: (value at the smallest x, value at the largest x)}``."""
    return {name: (_at(result, name, min), _at(result, name, max)) for name in names}


def _gain(result: dict, fast: str, slow: str, x) -> float:
    """How many times faster *fast* is than *slow* at x."""
    return _at(result, slow, x) / _at(result, fast, x)


def _bend(result: dict) -> Dict[str, Tuple]:
    """Low-latency RTT slope (µs/B) after vs before the 180 B switch."""
    ll = dict(result["series"]["MPI(low latency)"])
    before = (ll[180] - ll[128]) / (180 - 128)
    after = (ll[512] - ll[256]) / (512 - 256)
    return {"µs/B": (after, before)}


def _fore_gap(result: dict, x) -> float:
    """Fore AAL3/4's relative RTT advantage over TCP at x."""
    tcp = _at(result, "TCP", x)
    return (tcp - _at(result, "Fore aal4", x)) / tcp


def _per_message(rows: dict) -> float:
    """Table 1's per-message overheads, the 25-byte row split per direction."""
    return (rows["25 byte info overhead"] / 2 + rows["Read for msg type"]
            + rows["Read for envelope"] + rows["Overheads for matching"])


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_LL, _MPICH, _TPORT = "MPI(low latency)", "MPI(mpich)", "Meiko tport"
_TCP_SERIES = ("tcp/eth", "tcp/atm", "mpi/tcp/eth", "mpi/tcp/atm")


def _parallel(nprocs: int) -> bool:
    return nprocs > 1


#: Table 1's rows in the paper's order: (row, id suffix, ATM, Ethernet, check)
TABLE1_ROWS = (
    ("1 byte round-trip latency", "rtt_1B", 1065.0, 925.0, Tolerance(0.15)),
    ("25 byte info overhead", "info_25B", 5.0, 45.0, Tolerance(0.30)),
    ("Read for msg type", "read_type", 85.0, 65.0, Tolerance(0)),
    ("Read for envelope", "read_envelope", 85.0, 65.0, Tolerance(0)),
    ("Overheads for matching", "matching", 35.0, 35.0, Tolerance(0)),
)
_NETWORKS = (("ATM", "atm"), ("Ethernet", "eth"))


def _table1() -> List[Claim]:
    claims = [
        Claim(f"table1.{key}.{slug}", "Table 1", f"{network}: {row}",
              (atm, eth)[i], lambda r, network=network, row=row: r["rows"][network][row],
              check, "µs")
        for i, (network, key) in enumerate(_NETWORKS)
        for row, slug, atm, eth, check in TABLE1_ROWS
    ]
    claims.append(Claim(
        "table1.info_asymmetry", "Table 1", "25 byte info overhead, ATM vs Ethernet",
        "wire-dominated: far cheaper on ATM",
        lambda r: {"µs": (r["rows"]["ATM"]["25 byte info overhead"],
                          r["rows"]["Ethernet"]["25 byte info overhead"])},
        Ordering()))
    claims += [
        Claim(f"table1.{key}.mpi_gap", "Table 1",
              f"{network}: (MPI − raw) 1 B RTT / per-message overheads",
              "MPI adds the per-message overheads",
              lambda r, network=network: (
                  r["rows"][network]["measured MPI 1B RTT"]
                  - r["rows"][network]["1 byte round-trip latency"],
                  _per_message(r["rows"][network])),
              Ratio(1.0, 3.5))
        for network, key in _NETWORKS
    ]
    return claims


CLAIMS: Tuple[Claim, ...] = (
    # Figure 1: Meiko transfer mechanisms
    Claim("fig01.buffering_wins_small", "Figure 1", "1 B RTT: buffering vs no buffering",
          "buffering cheaper for small messages",
          lambda r: _order(r, "Buffering", "No buffering", where=lambda n: n == 1),
          Ordering()),
    Claim("fig01.rendezvous_wins_large", "Figure 1", "512 B RTT: no buffering vs buffering",
          "no buffering cheaper for large messages",
          lambda r: _order(r, "No buffering", "Buffering", where=lambda n: n == 512),
          Ordering()),
    Claim("fig01.crossover", "Figure 1", "crossover of the two RTT curves",
          180.0, lambda r: r["crossover"], Bracket(120, 260), "B"),
    # Figure 2: Meiko round-trip latency
    Claim("fig02.ordering", "Figure 2", "RTT at every size",
          "tport < low latency < mpich",
          lambda r: _order(r, _TPORT, _LL, _MPICH), Ordering()),
    Claim("fig02.tport_1B", "Figure 2", "Meiko tport 1 B RTT", 52.0,
          lambda r: _at(r, _TPORT, 1), Tolerance(0.15), "µs"),
    Claim("fig02.lowlatency_1B", "Figure 2", "MPI(low latency) 1 B RTT", 104.0,
          lambda r: _at(r, _LL, 1), Tolerance(0.15), "µs"),
    Claim("fig02.mpich_1B", "Figure 2", "MPI(mpich) 1 B RTT", 210.0,
          lambda r: _at(r, _MPICH, 1), Tolerance(0.15), "µs"),
    Claim("fig02.bend_at_180", "Figure 2",
          "low-latency slope (µs/B) on 256–512 B vs 128–180 B",
          "the curve bends at the 180 B protocol switch", _bend, Ordering()),
    # Figure 3: Meiko bandwidth
    Claim("fig03.tport_peak", "Figure 3", "Meiko tport bandwidth at 1 MB",
          "39 MB/s DMA peak, nearly reached",
          lambda r: _at(r, _TPORT, max), Bracket(36.0, 39.5), "MB/s"),
    Claim("fig03.lowlatency_peak", "Figure 3", "MPI(low latency) bandwidth at 1 MB",
          "39 MB/s DMA peak, nearly reached",
          lambda r: _at(r, _LL, max), Bracket(36.0, 39.5), "MB/s"),
    Claim("fig03.lowlatency_vs_mpich", "Figure 3",
          "low latency / mpich bandwidth, smallest over all sizes",
          "low latency at least mpich at every size",
          lambda r: min(_order(r, _LL, _MPICH).values(), key=lambda p: p[0] / p[1]),
          Ratio(lo=0.98)),
    Claim("fig03.grows", "Figure 3", "MPI(low latency) bandwidth, 1 KB vs 1 MB",
          "bandwidth grows with size", lambda r: _grows(r, _LL), Ordering()),
    # Figure 4: raw ATM protocol latency
    Claim("fig04.tcp_1B", "Figure 4", "TCP 1 B RTT", 1065.0,
          lambda r: _at(r, "TCP", 1), Tolerance(0.15), "µs"),
    Claim("fig04.udp_tracks_tcp", "Figure 4",
          "largest TCP–UDP gap, relative to TCP, over all sizes", "indistinguishable",
          lambda r: max(abs(t - u) / t for t, u in _order(r, "TCP", "UDP").values()),
          Bracket(hi=0.35, strict=True)),
    Claim("fig04.fore_gap_small", "Figure 4", "Fore AAL3/4 advantage over TCP at 1 B",
          "faster only at small sizes", lambda r: _fore_gap(r, 1),
          Bracket(lo=0.05, strict=True)),
    Claim("fig04.fore_converges", "Figure 4",
          "Fore's absolute advantage at 1 KB minus its advantage at 1 B",
          "converges at larger sizes (STREAMS costs dominate)",
          lambda r: abs(_fore_gap(r, max)) - _fore_gap(r, 1),
          Bracket(hi=0.1, strict=True)),
    # Figure 5: TCP round-trip latency, raw vs MPI
    Claim("fig05.tcp_eth_1B", "Figure 5", "tcp/eth 1 B RTT", 925.0,
          lambda r: _at(r, "tcp/eth", 1), Tolerance(0.15), "µs"),
    Claim("fig05.tcp_atm_1B", "Figure 5", "tcp/atm 1 B RTT", 1065.0,
          lambda r: _at(r, "tcp/atm", 1), Tolerance(0.15), "µs"),
    Claim("fig05.mpi_above_tcp_eth", "Figure 5", "RTT at every size: tcp/eth vs mpi/tcp/eth",
          "MPI adds overheads on top of TCP",
          lambda r: _order(r, "tcp/eth", "mpi/tcp/eth"), Ordering()),
    Claim("fig05.mpi_above_tcp_atm", "Figure 5", "RTT at every size: tcp/atm vs mpi/tcp/atm",
          "MPI adds overheads on top of TCP",
          lambda r: _order(r, "tcp/atm", "mpi/tcp/atm"), Ordering()),
    Claim("fig05.mpi_gap_eth", "Figure 5", "mpi/tcp/eth − tcp/eth at 1 B",
          "≈ 150–210 µs per message (Table 1, §5)",
          lambda r: _at(r, "mpi/tcp/eth", 1) - _at(r, "tcp/eth", 1),
          Bracket(250, 650), "µs"),
    Claim("fig05.atm_slower_small", "Figure 5", "1 B RTT: tcp/eth vs tcp/atm",
          "ATM slower than Ethernet for small messages",
          lambda r: _order(r, "tcp/eth", "tcp/atm", where=lambda n: n == 1),
          Ordering()),
    Claim("fig05.atm_faster_1KB", "Figure 5", "1 KB RTT: tcp/atm vs tcp/eth",
          "ATM faster than Ethernet for large messages",
          lambda r: _order(r, "tcp/atm", "tcp/eth", where=lambda n: n == 1024),
          Ordering()),
    # Figure 6: TCP bandwidth
    Claim("fig06.eth_wire_limit", "Figure 6", "tcp/eth bandwidth at 256 KB",
          "10 Mb/s wire (1.25 MB/s)", lambda r: _at(r, "tcp/eth", max),
          Bracket(hi=1.25, strict=True), "MB/s"),
    Claim("fig06.atm_over_eth", "Figure 6", "tcp/atm / tcp/eth bandwidth at 256 KB",
          "≈ an order of magnitude",
          lambda r: (_at(r, "tcp/atm", max), _at(r, "tcp/eth", max)),
          Ratio(lo=4, strict=True)),
    Claim("fig06.mpi_tracks_tcp_eth", "Figure 6", "mpi/tcp/eth / tcp/eth at 256 KB",
          "MPI tracks raw TCP",
          lambda r: (_at(r, "mpi/tcp/eth", max), _at(r, "tcp/eth", max)),
          Ratio(lo=0.5, strict=True)),
    Claim("fig06.mpi_tracks_tcp_atm", "Figure 6", "mpi/tcp/atm / tcp/atm at 256 KB",
          "MPI tracks raw TCP",
          lambda r: (_at(r, "mpi/tcp/atm", max), _at(r, "tcp/atm", max)),
          Ratio(lo=0.5, strict=True)),
    Claim("fig06.grows", "Figure 6", "bandwidth, 1 KB vs 256 KB, all four series",
          "bandwidth grows with size", lambda r: _grows(r, *_TCP_SERIES), Ordering()),
    # Figure 7: Meiko linear equation solver
    Claim("fig07.p1_identical", "Figure 7", "low latency / mpich at P = 1",
          "identical (no communication)",
          lambda r: (_at(r, "low latency", 1), _at(r, "mpich", 1)),
          Ratio(0.95, 1.05, strict=True)),
    Claim("fig07.lowlatency_wins", "Figure 7", "time at every P > 1: low latency vs mpich",
          "hardware broadcast beats pt2pt broadcast",
          lambda r: _order(r, "low latency", "mpich", where=_parallel), Ordering()),
    Claim("fig07.gap_grows", "Figure 7", "mpich / low latency at P = 2 vs P = 32",
          "the gap grows with P",
          lambda r: {"P": (_gain(r, "low latency", "mpich", 2),
                           _gain(r, "low latency", "mpich", 32))},
          Ordering()),
    Claim("fig07.lowlatency_scales", "Figure 7", "low latency at P = 32, 4, 1",
          "parallelism helps throughout",
          lambda r: {"P": tuple(_at(r, "low latency", p) for p in (32, 4, 1))},
          Ordering()),
    # Figure 8: Meiko pairwise interactions
    Claim("fig08.lowlatency_wins", "Figure 8", "time at every P > 1: low latency vs mpich",
          "lower latency wins (even loads)",
          lambda r: _order(r, "low latency", "mpich", where=_parallel), Ordering()),
    Claim("fig08.mpich_stops_scaling", "Figure 8", "mpich at P = 8 / P = 4",
          "communication-bound at 24 particles",
          lambda r: (_at(r, "mpich", 8), _at(r, "mpich", 4)), Ratio(lo=0.8)),
    # Figure 9: cluster pairwise interactions
    Claim("fig09.atm_wins", "Figure 9", "time at every P > 1: ATM vs Ethernet",
          "ATM clearly faster",
          lambda r: _order(r, "ATM", "Ethernet", where=_parallel), Ordering()),
    Claim("fig09.gap_grows", "Figure 9", "Ethernet / ATM at P = 2 vs P = 8",
          "no contention on ATM: the gap grows with P",
          lambda r: {"P": (_gain(r, "ATM", "Ethernet", 2), _gain(r, "ATM", "Ethernet", 8))},
          Ordering()),
    *_table1(),
)

_BY_ID = {claim.id: claim for claim in CLAIMS}


def paper(claim_id: str):
    """The paper's value of one claim (``paper("fig01.crossover")``)."""
    return _BY_ID[claim_id].paper


def judge(results: Dict[str, dict]) -> List[Tuple[Claim, Any, bool]]:
    """``(claim, measured, holds)`` for every claim, in table order;
    *results* maps a plan name (``fig02``, ``table1``) to its result."""
    verdicts = []
    for claim in CLAIMS:
        measured = claim.measure(results[claim.figure])
        verdicts.append((claim, measured, claim.check.holds(measured, claim.paper)))
    return verdicts
