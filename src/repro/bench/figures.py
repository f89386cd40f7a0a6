"""Per-figure data generators.

Each ``figNN_*`` function regenerates the data behind one figure or
table of the paper's evaluation and returns a dict with:

* ``series`` — mapping series name -> list of (x, value) samples;
* ``paper`` — the paper's reference numbers/claims for EXPERIMENTS.md;
* figure-specific extras (e.g. the measured eager/rendezvous
  crossover for Figure 1).

Values are simulated microseconds (latency) or MB/s (bandwidth);
Figures 7-9 report application times.

Every sweep point is an independent *cell* (a plain dict dispatched
through :mod:`repro.parallel.tasks`), and every figure is a
:class:`repro.parallel.Plan`: its cell list plus a pure
``finish(values) -> dict`` that turns the cells' values, in order, into
the result.  ``figNN_*()`` evaluates its own plan in-process;
``figNN_*.plan()`` returns the plan unevaluated, so a caller that wants
several figures (``repro sweep``) hands them to **one**
:func:`repro.parallel.evaluate` — one ``run_cells``, one cache scan, one
worker pool — however many figures it asked for.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Sequence

from repro.parallel import Plan, evaluate

__all__ = [
    "LATENCY_SIZES",
    "BANDWIDTH_SIZES",
    "fig01_transfer_mechanisms",
    "fig02_meiko_latency",
    "fig03_meiko_bandwidth",
    "fig04_atm_latency",
    "fig05_tcp_latency",
    "fig06_tcp_bandwidth",
    "fig10_modern_crossover",
    "table1_overheads",
    "fig07_linsolve",
    "fig08_meiko_nbody",
    "fig09_tcp_nbody",
]

LATENCY_SIZES = (1, 16, 64, 128, 180, 256, 512, 1024)
BANDWIDTH_SIZES = (1024, 4096, 16384, 65536, 262144, 1048576)


def _figure(plan_fn):
    """The public figure function of a plan builder: evaluates the plan
    in-process; the builder itself stays reachable as ``.plan``."""

    @functools.wraps(plan_fn)
    def figure(*args, **kwargs):
        (result,), _ = evaluate([plan_fn(*args, **kwargs)])
        return result

    figure.plan = plan_fn
    return figure


def _series(values: List, xs_per_series: Dict[str, Sequence]) -> Dict[str, List]:
    """Slice the flat value list back into named series (cells are
    ordered series-by-series, matching ``xs_per_series``)."""
    out: Dict[str, List] = {}
    pos = 0
    for name, xs in xs_per_series.items():
        out[name] = list(zip(xs, values[pos:pos + len(xs)]))
        pos += len(xs)
    return out


# ---------------------------------------------------------------------------
# Figure 1: Meiko transfer mechanisms (buffered vs no buffering)
# ---------------------------------------------------------------------------


def _forced_protocol_cells(platform: str, device: str, sizes) -> List[dict]:
    """Ping-pong cells with eager, then rendezvous, forced on for all sizes."""
    return [
        {"kind": "pingpong_rtt", "platform": platform, "device": device,
         "nbytes": n, "config": {"eager_threshold": threshold}}
        for threshold in (10**9, -1) for n in sizes
    ]


@_figure
def fig01_transfer_mechanisms(
    sizes: Sequence[int] = (1, 32, 64, 96, 128, 160, 180, 220, 256, 320, 400, 512),
):
    """RTT of the two low-latency transfer mechanisms, forced on for all
    sizes, plus the measured crossover (paper: 180 bytes)."""

    def finish(values):
        from repro.bench.harness import crossover

        series = _series(values, {"Buffering": sizes, "No buffering": sizes})
        return {
            "series": series,
            "crossover": crossover(
                series["Buffering"], series["No buffering"]
            ),
            "paper": {"crossover": 180},
        }

    return Plan(_forced_protocol_cells("meiko", "lowlatency", sizes), finish)


# ---------------------------------------------------------------------------
# Figure 2/3: Meiko latency and bandwidth
# ---------------------------------------------------------------------------


def _series_plan(cells: List[dict], xs_per_series: Dict[str, Sequence],
                 paper: dict) -> Plan:
    """The common shape: named series sliced off the cell list, plus the
    paper's reference numbers."""
    return Plan(cells, lambda values: {
        "series": _series(values, xs_per_series), "paper": paper,
    })


@_figure
def fig02_meiko_latency(sizes: Sequence[int] = LATENCY_SIZES):
    cells = (
        [{"kind": "pingpong_rtt", "platform": "meiko", "device": "mpich",
          "nbytes": n} for n in sizes]
        + [{"kind": "pingpong_rtt", "platform": "meiko", "device": "lowlatency",
            "nbytes": n} for n in sizes]
        + [{"kind": "tport_rtt", "nbytes": n} for n in sizes]
    )
    return _series_plan(
        cells,
        {"MPI(mpich)": sizes, "MPI(low latency)": sizes, "Meiko tport": sizes},
        {"tport_1B": 52.0, "lowlatency_1B": 104.0, "mpich_1B": 210.0},
    )


@_figure
def fig03_meiko_bandwidth(sizes: Sequence[int] = BANDWIDTH_SIZES):
    cells = (
        [{"kind": "bandwidth", "platform": "meiko", "device": "mpich",
          "nbytes": n} for n in sizes]
        + [{"kind": "bandwidth", "platform": "meiko", "device": "lowlatency",
            "nbytes": n} for n in sizes]
        + [{"kind": "tport_bandwidth", "nbytes": n} for n in sizes]
    )
    return _series_plan(
        cells,
        {"MPI(mpich)": sizes, "MPI(low latency)": sizes, "Meiko tport": sizes},
        {"dma_peak_MBps": 39.0, "note": "peak nearly reached; low latency >= mpich"},
    )


# ---------------------------------------------------------------------------
# Figure 4: raw ATM protocol latency
# ---------------------------------------------------------------------------


@_figure
def fig04_atm_latency(sizes: Sequence[int] = LATENCY_SIZES):
    cells = (
        [{"kind": "raw_rtt", "network": "atm", "transport": "tcp", "nbytes": n}
         for n in sizes]
        + [{"kind": "raw_rtt", "network": "atm", "transport": "udp", "nbytes": n}
           for n in sizes]
        + [{"kind": "fore_rtt", "nbytes": n} for n in sizes]
    )
    return _series_plan(
        cells,
        {"TCP": sizes, "UDP": sizes, "Fore aal4": sizes},
        {
            "tcp_1B": 1065.0,
            "note": "indistinguishable except at small sizes (STREAMS overhead)",
        },
    )


# ---------------------------------------------------------------------------
# Figure 5/6: TCP latency and bandwidth, Ethernet vs ATM, raw vs MPI
# ---------------------------------------------------------------------------

_TCP_SERIES = ("mpi/tcp/atm", "mpi/tcp/eth", "tcp/atm", "tcp/eth")


@_figure
def fig05_tcp_latency(sizes: Sequence[int] = LATENCY_SIZES):
    cells = (
        [{"kind": "pingpong_rtt", "platform": "atm", "device": "tcp",
          "nbytes": n} for n in sizes]
        + [{"kind": "pingpong_rtt", "platform": "ethernet", "device": "tcp",
            "nbytes": n} for n in sizes]
        + [{"kind": "raw_rtt", "network": "atm", "transport": "tcp", "nbytes": n}
           for n in sizes]
        + [{"kind": "raw_rtt", "network": "ethernet", "transport": "tcp",
            "nbytes": n} for n in sizes]
    )
    return _series_plan(
        cells,
        {name: sizes for name in _TCP_SERIES},
        {"tcp_eth_1B": 925.0, "tcp_atm_1B": 1065.0, "mpi_adds_per_way": 210.0},
    )


@_figure
def fig06_tcp_bandwidth(sizes: Sequence[int] = BANDWIDTH_SIZES[:-1]):
    cells = (
        [{"kind": "bandwidth", "platform": "atm", "device": "tcp",
          "nbytes": n} for n in sizes]
        + [{"kind": "bandwidth", "platform": "ethernet", "device": "tcp",
            "nbytes": n} for n in sizes]
        + [{"kind": "raw_bandwidth", "network": "atm", "transport": "tcp",
            "nbytes": n} for n in sizes]
        + [{"kind": "raw_bandwidth", "network": "ethernet", "transport": "tcp",
            "nbytes": n} for n in sizes]
    )
    return _series_plan(
        cells,
        {name: sizes for name in _TCP_SERIES},
        {"note": "ATM roughly an order of magnitude above 10 Mb/s Ethernet"},
    )


# ---------------------------------------------------------------------------
# Figure 10: the Figure-1 experiment replayed on the modern fabrics
# ---------------------------------------------------------------------------


@_figure
def fig10_modern_crossover(
    sizes: Sequence[int] = (256, 1024, 2048, 4096, 8192, 12288, 16384,
                            24576, 32768, 65536),
):
    """Eager vs rendezvous RTT, each forced on for all sizes, on the
    modern ``rdma`` and ``cxl`` cells — the paper's protocol-crossover
    experiment (Figure 1) replayed cross-era.  Returns one measured
    crossover per device (tables in docs/FABRICS.md)."""
    devices = ("rdma", "cxl")

    def finish(values):
        from repro.bench.harness import crossover

        series = _series(values, {
            f"{device} {protocol}": sizes
            for device in devices for protocol in ("eager", "rendezvous")
        })
        return {
            "series": series,
            "crossover": {
                device: crossover(
                    series[f"{device} eager"], series[f"{device} rendezvous"]
                )
                for device in devices
            },
            "paper": {
                "crossover": 180,
                "note": "paper-era Meiko crossover was 180 B; registration "
                        "and copy costs push the modern switch points into "
                        "the KiB range",
            },
        }

    cells = [
        cell for device in devices
        for cell in _forced_protocol_cells("modern", device, sizes)
    ]
    return Plan(cells, finish)


# ---------------------------------------------------------------------------
# Table 1: MPI-over-TCP overhead breakdown
# ---------------------------------------------------------------------------


@_figure
def table1_overheads():
    """The rows of Table 1, measured where measurable and taken from the
    calibrated cost model where the paper instrumented kernel code."""
    from repro.mpi.device.cluster import ClusterConfig
    from repro.net.kernel import ATM_KERNEL, ETH_KERNEL

    networks = (("ATM", "atm", ATM_KERNEL), ("Ethernet", "ethernet", ETH_KERNEL))
    # single deterministic shots: the first exchange has no delayed-ack
    # or contention interference, so the 25-byte delta is exact
    cells = [
        cell for _, net, _ in networks for cell in (
            {"kind": "raw_rtt", "network": net, "transport": "tcp",
             "nbytes": 1, "repeats": 1},
            {"kind": "raw_rtt", "network": net, "transport": "tcp",
             "nbytes": 26, "repeats": 1},
            {"kind": "pingpong_rtt", "platform": net, "device": "tcp",
             "nbytes": 1, "repeats": 1},
        )
    ]

    def finish(values):
        cfg = ClusterConfig()
        rows = {}
        for i, (network, _, kp) in enumerate(networks):
            base, with_info, mpi = values[3 * i:3 * i + 3]
            rows[network] = {
                "1 byte round-trip latency": base,
                "25 byte info overhead": with_info - base,
                "Read for msg type": kp.syscall_read,
                "Read for envelope": kp.syscall_read,
                "Overheads for matching": cfg.match_cost,
                "measured MPI 1B RTT": mpi,
            }
        return {"rows": rows, "paper": paper}

    paper = {
        "ATM": {
            "1 byte round-trip latency": 1065.0,
            "25 byte info overhead": 5.0,
            "Read for msg type": 85.0,
            "Read for envelope": 85.0,
            "Overheads for matching": 35.0,
        },
        "Ethernet": {
            "1 byte round-trip latency": 925.0,
            "25 byte info overhead": 45.0,
            "Read for msg type": 65.0,
            "Read for envelope": 65.0,
            "Overheads for matching": 35.0,
        },
    }
    return Plan(cells, finish)


# ---------------------------------------------------------------------------
# Figures 7-9: applications
# ---------------------------------------------------------------------------


def _app_plan(configs, labels: Sequence[str], nprocs_list: Sequence[int],
              note: str, scale: float = 1.0) -> Plan:
    """One series per label, one app run per process count.

    configs: iterable of (platform, device, nprocs, app name, kwargs),
    ordered label by label; values are simulated us, divided by *scale*.
    """
    cells = [
        {"kind": "app_time", "platform": platform, "device": device,
         "nprocs": nprocs, "app": app, "kwargs": kwargs}
        for platform, device, nprocs, app, kwargs in configs
    ]

    def finish(values):
        return {
            "series": _series([t / scale for t in values],
                              {label: nprocs_list for label in labels}),
            "paper": {"note": note},
        }

    return Plan(cells, finish)


_MEIKO_DEVICES = (("mpich", "mpich"), ("lowlatency", "low latency"))


@_figure
def fig07_linsolve(nprocs_list: Sequence[int] = (1, 2, 4, 8, 16, 32), n: int = 192):
    """Meiko linear solver times (seconds) vs processes."""
    return _app_plan(
        (("meiko", device, p, "linsolve", {"n": n, "seed": 0})
         for device, _ in _MEIKO_DEVICES for p in nprocs_list),
        [label for _, label in _MEIKO_DEVICES], nprocs_list,
        "hardware broadcast beats pt2pt; gap grows with P", scale=1e6,
    )


@_figure
def fig08_meiko_nbody(nprocs_list: Sequence[int] = (1, 2, 3, 4, 6, 8),
                      nparticles: int = 24):
    """Meiko pairwise-interaction times (µs) vs processes."""
    return _app_plan(
        (("meiko", device, p, "nbody_ring", {"nparticles": nparticles, "seed": 0})
         for device, _ in _MEIKO_DEVICES for p in nprocs_list),
        [label for _, label in _MEIKO_DEVICES], nprocs_list,
        "24 particles; low latency wins (even loads, synchronized phases)",
    )


@_figure
def fig09_tcp_nbody(nprocs_list: Sequence[int] = (1, 2, 4, 8), nparticles: int = 128):
    """Cluster pairwise-interaction times (µs) vs processes, Ethernet vs ATM."""
    platforms = (("ethernet", "Ethernet"), ("atm", "ATM"))
    return _app_plan(
        ((platform, "tcp", p, "nbody_ring",
          {"nparticles": nparticles, "seed": 0, "flop_time": 0.03})
         for platform, _ in platforms for p in nprocs_list),
        [label for _, label in platforms], nprocs_list,
        "ATM wins: no contention + higher bandwidth (128 particles)",
    )
