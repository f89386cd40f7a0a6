#!/usr/bin/env python
"""Protocol anatomy: where the microseconds go.

Reproduces the paper's two key protocol studies interactively:

1. the **eager/rendezvous trade-off** on the Meiko — sweeps the
   crossover threshold and shows why 180 bytes is the right switch
   point (Figure 1);
2. the **Table 1 overhead breakdown** of MPI over TCP — the cost of
   each read syscall, the 25-byte header, and matching, on Ethernet
   and ATM.

Run:  python examples/protocol_anatomy.py
"""

from repro.bench import claims, figures, harness
from repro.bench.tables import format_series, format_table
from repro.mpi.device.lowlatency import LowLatencyConfig


def eager_vs_rendezvous():
    result = figures.fig01_transfer_mechanisms()
    print(format_series(result["series"], xlabel="bytes",
                        title="Figure 1: buffered (eager) vs no-buffering (rendezvous) RTT, us"))
    print(f"\nmeasured crossover: {result['crossover']:.0f} bytes "
          f"(paper adopted {claims.paper('fig01.crossover'):g})")


def threshold_sweep():
    """What happens if the protocol switches at the wrong size?"""
    sizes = (64, 180, 512)
    rows = []
    for threshold in (0, 64, 180, 512, 4096):
        cfg = LowLatencyConfig(eager_threshold=threshold)
        rtts = [
            harness.mpi_pingpong_rtt("meiko", "lowlatency", n, device_config=cfg)
            for n in sizes
        ]
        rows.append([threshold] + [round(r, 1) for r in rtts])
    print(format_table(
        ["threshold"] + [f"RTT@{n}B" for n in sizes],
        rows,
        title="\nAblation: eager/rendezvous threshold (us)",
    ))
    print("Too low wastes round trips on small messages; too high pays the")
    print("slow word-by-word transfer path for large ones. 180 B balances them.")


def table1():
    result = figures.table1_overheads()
    headers = ["row", "ATM", "Ethernet"]
    rows = []
    for key in (
        "1 byte round-trip latency",
        "25 byte info overhead",
        "Read for msg type",
        "Read for envelope",
        "Overheads for matching",
        "measured MPI 1B RTT",
    ):
        rows.append([key, result["rows"]["ATM"][key], result["rows"]["Ethernet"][key]])
    print(format_table(headers, rows, title="\nTable 1: MPI round-trip overheads with TCP (us)"))
    print("Every MPI message costs two extra kernel reads (type byte, then")
    print("envelope) plus matching — the price of tags and MPI_ANY_SOURCE.")


if __name__ == "__main__":
    eager_vs_rendezvous()
    threshold_sweep()
    table1()
