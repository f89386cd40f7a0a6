"""Per-figure data generators.

Each ``figNN_*`` function regenerates the data behind one figure or
table of the paper's evaluation and returns a dict with:

* ``series`` — mapping series name -> list of (x, value) samples;
* ``paper`` — the paper's reference numbers/claims for EXPERIMENTS.md;
* figure-specific extras (e.g. the measured eager/rendezvous
  crossover for Figure 1).

Values are simulated microseconds (latency) or MB/s (bandwidth);
Figures 7-9 report application times.

Every sweep point is expressed as an independent *cell* (a plain dict
dispatched through :mod:`repro.parallel.tasks`), so a figure can be
evaluated serially (the default — identical to calling the harness
directly) or fanned out over the parallel experiment engine by passing
``runner=`` a callable that maps a cell list to a result list in the
same order (``repro sweep --workers N`` does exactly that).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.bench import harness

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

#: a runner maps an ordered cell list to an ordered result list
Runner = Callable[[List[dict]], List]


def _eval(cells: List[dict], runner: Optional[Runner]) -> List:
    if runner is None:
        from repro.parallel.tasks import run_cell

        return [run_cell(cell) for cell in cells]
    return runner(cells)


def _series(cells: List[dict], xs_per_series: Dict[str, Sequence],
            runner: Optional[Runner]) -> Dict[str, List]:
    """Evaluate the flat cell list and slice it back into named series
    (cells are ordered series-by-series, matching ``xs_per_series``)."""
    values = _eval(cells, runner)
    out: Dict[str, List] = {}
    pos = 0
    for name, xs in xs_per_series.items():
        out[name] = list(zip(xs, values[pos:pos + len(xs)]))
        pos += len(xs)
    return out


# ---------------------------------------------------------------------------
# Figure 1: Meiko transfer mechanisms (buffered vs no buffering)
# ---------------------------------------------------------------------------


def fig01_transfer_mechanisms(
    sizes: Sequence[int] = (1, 32, 64, 96, 128, 160, 180, 220, 256, 320, 400, 512),
    runner: Optional[Runner] = None,
):
    """RTT of the two low-latency transfer mechanisms, forced on for all
    sizes, plus the measured crossover (paper: 180 bytes)."""
    cells = [
        {"kind": "pingpong_rtt", "platform": "meiko", "device": "lowlatency",
         "nbytes": n, "config": {"eager_threshold": 10**9}}
        for n in sizes
    ] + [
        {"kind": "pingpong_rtt", "platform": "meiko", "device": "lowlatency",
         "nbytes": n, "config": {"eager_threshold": -1}}
        for n in sizes
    ]
    series = _series(cells, {"Buffering": sizes, "No buffering": sizes}, runner)
    cross = harness.crossover(series["Buffering"], series["No buffering"])
    return {
        "series": series,
        "crossover": cross,
        "paper": {"crossover": 180},
    }


# ---------------------------------------------------------------------------
# Figure 2/3: Meiko latency and bandwidth
# ---------------------------------------------------------------------------


def fig02_meiko_latency(sizes: Sequence[int] = LATENCY_SIZES,
                        runner: Optional[Runner] = None):
    cells = (
        [{"kind": "pingpong_rtt", "platform": "meiko", "device": "mpich",
          "nbytes": n} for n in sizes]
        + [{"kind": "pingpong_rtt", "platform": "meiko", "device": "lowlatency",
            "nbytes": n} for n in sizes]
        + [{"kind": "tport_rtt", "nbytes": n} for n in sizes]
    )
    return {
        "series": _series(cells, {
            "MPI(mpich)": sizes, "MPI(low latency)": sizes, "Meiko tport": sizes,
        }, runner),
        "paper": {"tport_1B": 52.0, "lowlatency_1B": 104.0, "mpich_1B": 210.0},
    }


def fig03_meiko_bandwidth(sizes: Sequence[int] = BANDWIDTH_SIZES,
                          runner: Optional[Runner] = None):
    cells = (
        [{"kind": "bandwidth", "platform": "meiko", "device": "mpich",
          "nbytes": n} for n in sizes]
        + [{"kind": "bandwidth", "platform": "meiko", "device": "lowlatency",
            "nbytes": n} for n in sizes]
        + [{"kind": "tport_bandwidth", "nbytes": n} for n in sizes]
    )
    return {
        "series": _series(cells, {
            "MPI(mpich)": sizes, "MPI(low latency)": sizes, "Meiko tport": sizes,
        }, runner),
        "paper": {"dma_peak_MBps": 39.0, "note": "peak nearly reached; low latency >= mpich"},
    }


# ---------------------------------------------------------------------------
# Figure 4: raw ATM protocol latency
# ---------------------------------------------------------------------------


def fig04_atm_latency(sizes: Sequence[int] = LATENCY_SIZES,
                      runner: Optional[Runner] = None):
    cells = (
        [{"kind": "raw_rtt", "network": "atm", "transport": "tcp", "nbytes": n}
         for n in sizes]
        + [{"kind": "raw_rtt", "network": "atm", "transport": "udp", "nbytes": n}
           for n in sizes]
        + [{"kind": "fore_rtt", "nbytes": n} for n in sizes]
    )
    return {
        "series": _series(cells, {"TCP": sizes, "UDP": sizes, "Fore aal4": sizes},
                          runner),
        "paper": {
            "tcp_1B": 1065.0,
            "note": "indistinguishable except at small sizes (STREAMS overhead)",
        },
    }


# ---------------------------------------------------------------------------
# Figure 5/6: TCP latency and bandwidth, Ethernet vs ATM, raw vs MPI
# ---------------------------------------------------------------------------


def fig05_tcp_latency(sizes: Sequence[int] = LATENCY_SIZES,
                      runner: Optional[Runner] = None):
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
    return {
        "series": _series(cells, {
            "mpi/tcp/atm": sizes, "mpi/tcp/eth": sizes,
            "tcp/atm": sizes, "tcp/eth": sizes,
        }, runner),
        "paper": {"tcp_eth_1B": 925.0, "tcp_atm_1B": 1065.0, "mpi_adds_per_way": 210.0},
    }


def fig06_tcp_bandwidth(sizes: Sequence[int] = BANDWIDTH_SIZES[:-1],
                        runner: Optional[Runner] = None):
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
    return {
        "series": _series(cells, {
            "mpi/tcp/atm": sizes, "mpi/tcp/eth": sizes,
            "tcp/atm": sizes, "tcp/eth": sizes,
        }, runner),
        "paper": {"note": "ATM roughly an order of magnitude above 10 Mb/s Ethernet"},
    }


# ---------------------------------------------------------------------------
# Figure 10: the Figure-1 experiment replayed on the modern fabrics
# ---------------------------------------------------------------------------


def fig10_modern_crossover(
    sizes: Sequence[int] = (256, 1024, 2048, 4096, 8192, 12288, 16384,
                            24576, 32768, 65536),
    runner: Optional[Runner] = None,
):
    """Eager vs rendezvous RTT, each forced on for all sizes, on the
    modern ``rdma`` and ``cxl`` cells — the paper's protocol-crossover
    experiment (Figure 1) replayed cross-era.  Returns one measured
    crossover per device (tables in docs/FABRICS.md)."""
    series: Dict[str, List] = {}
    crossover: Dict[str, Optional[float]] = {}
    for device in ("rdma", "cxl"):
        cells = [
            {"kind": "pingpong_rtt", "platform": "modern", "device": device,
             "nbytes": n, "config": {"eager_threshold": 10**9}}
            for n in sizes
        ] + [
            {"kind": "pingpong_rtt", "platform": "modern", "device": device,
             "nbytes": n, "config": {"eager_threshold": -1}}
            for n in sizes
        ]
        dev_series = _series(
            cells, {f"{device} eager": sizes, f"{device} rendezvous": sizes},
            runner,
        )
        series.update(dev_series)
        crossover[device] = harness.crossover(
            dev_series[f"{device} eager"], dev_series[f"{device} rendezvous"]
        )
    return {
        "series": series,
        "crossover": crossover,
        "paper": {
            "crossover": 180,
            "note": "paper-era Meiko crossover was 180 B; registration "
                    "and copy costs push the modern switch points into "
                    "the KiB range",
        },
    }


# ---------------------------------------------------------------------------
# Table 1: MPI-over-TCP overhead breakdown
# ---------------------------------------------------------------------------


def table1_overheads():
    """The rows of Table 1, measured where measurable and taken from the
    calibrated cost model where the paper instrumented kernel code."""
    from repro.mpi.device.cluster import ClusterConfig
    from repro.net.kernel import ATM_KERNEL, ETH_KERNEL

    cfg = ClusterConfig()
    rows = {}
    for network, kp in (("ATM", ATM_KERNEL), ("Ethernet", ETH_KERNEL)):
        net = "atm" if network == "ATM" else "ethernet"
        # single deterministic shots: the first exchange has no delayed-ack
        # or contention interference, so the 25-byte delta is exact
        base = harness.raw_stream_rtt(net, "tcp", 1, repeats=1)
        info = harness.raw_stream_rtt(net, "tcp", 26, repeats=1) - base
        mpi = harness.mpi_pingpong_rtt(net, "tcp", 1, repeats=1)
        rows[network] = {
            "1 byte round-trip latency": base,
            "25 byte info overhead": info,
            "Read for msg type": kp.syscall_read,
            "Read for envelope": kp.syscall_read,
            "Overheads for matching": cfg.match_cost,
            "measured MPI 1B RTT": mpi,
        }
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
    return {"rows": rows, "paper": paper}


# ---------------------------------------------------------------------------
# Figures 7-9: applications
# ---------------------------------------------------------------------------


def _app_cells(configs) -> List[dict]:
    """configs: iterable of (platform, device, nprocs, app name, kwargs)."""
    return [
        {"kind": "app_time", "platform": platform, "device": device,
         "nprocs": nprocs, "app": app, "kwargs": kwargs}
        for platform, device, nprocs, app, kwargs in configs
    ]


def fig07_linsolve(nprocs_list: Sequence[int] = (1, 2, 4, 8, 16, 32), n: int = 192,
                   runner: Optional[Runner] = None):
    """Meiko linear solver times (seconds) vs processes."""
    devices = (("mpich", "mpich"), ("lowlatency", "low latency"))
    cells = _app_cells(
        ("meiko", device, p, "linsolve", {"n": n, "seed": 0})
        for device, _ in devices for p in nprocs_list
    )
    values = _eval(cells, runner)
    series: Dict[str, List] = {}
    for i, (_, key) in enumerate(devices):
        chunk = values[i * len(nprocs_list):(i + 1) * len(nprocs_list)]
        series[key] = [(p, t / 1e6) for p, t in zip(nprocs_list, chunk)]
    return {
        "series": series,
        "paper": {"note": "hardware broadcast beats pt2pt; gap grows with P"},
    }


def fig08_meiko_nbody(nprocs_list: Sequence[int] = (1, 2, 3, 4, 6, 8),
                      nparticles: int = 24, runner: Optional[Runner] = None):
    """Meiko pairwise-interaction times (µs) vs processes."""
    devices = (("mpich", "mpich"), ("lowlatency", "low latency"))
    cells = _app_cells(
        ("meiko", device, p, "nbody_ring", {"nparticles": nparticles, "seed": 0})
        for device, _ in devices for p in nprocs_list
    )
    values = _eval(cells, runner)
    series: Dict[str, List] = {}
    for i, (_, key) in enumerate(devices):
        chunk = values[i * len(nprocs_list):(i + 1) * len(nprocs_list)]
        series[key] = list(zip(nprocs_list, chunk))
    return {
        "series": series,
        "paper": {"note": "24 particles; low latency wins (even loads, synchronized phases)"},
    }


def fig09_tcp_nbody(nprocs_list: Sequence[int] = (1, 2, 4, 8), nparticles: int = 128,
                    runner: Optional[Runner] = None):
    """Cluster pairwise-interaction times (µs) vs processes, Ethernet vs ATM."""
    platforms = (("ethernet", "Ethernet"), ("atm", "ATM"))
    cells = _app_cells(
        (platform, "tcp", p, "nbody_ring",
         {"nparticles": nparticles, "seed": 0, "flop_time": 0.03})
        for platform, _ in platforms for p in nprocs_list
    )
    values = _eval(cells, runner)
    series: Dict[str, List] = {}
    for i, (_, key) in enumerate(platforms):
        chunk = values[i * len(nprocs_list):(i + 1) * len(nprocs_list)]
        series[key] = list(zip(nprocs_list, chunk))
    return {
        "series": series,
        "paper": {"note": "ATM wins: no contention + higher bandwidth (128 particles)"},
    }
