"""Paper-style output formatting for benchmark results.

``repro figure``/``repro sweep`` print :func:`format_figure` and
:func:`format_table1`; EXPERIMENTS.md embeds the same text.
``repro chaos --soak`` reports its failed cells with
:func:`format_soak_failures`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bench import claims
from repro.bench.ascii_chart import ascii_chart
from repro.bench.figures import FIGURES

__all__ = ["format_table", "format_series", "format_figure", "format_table1",
           "format_soak_failures"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    """A plain monospace table."""
    cols = [[str(h)] for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            if isinstance(cell, float):
                # keep 4 significant digits for small values, 1 decimal
                # for large ones
                cell = f"{cell:.4g}" if abs(cell) < 100 else f"{cell:.1f}"
            cols[i].append(str(cell))
    widths = [max(len(c) for c in col) for col in cols]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in range(1, len(cols[0])):
        lines.append("  ".join(cols[i][r].rjust(widths[i]) for i in range(len(cols))))
    return "\n".join(lines)


def format_series(
    series: Dict[str, List[Tuple[int, float]]], xlabel: str = "size", title: str = ""
) -> str:
    """Several (x, y) series as one table keyed by x."""
    names = list(series)
    xs = [x for x, _ in series[names[0]]]
    for name in names:
        if [x for x, _ in series[name]] != xs:
            raise ValueError("series must share their x samples")
    rows = []
    for i, x in enumerate(xs):
        rows.append([x] + [series[name][i][1] for name in names])
    return format_table([xlabel] + names, rows, title=title)


def format_figure(name: str, result: dict, chart: bool = False) -> str:
    """A figure's series table (titled with its unit), its measured
    crossover(s) beside the paper's, and with *chart* an ASCII chart."""
    _, xlabel, unit = FIGURES[name]
    lines = [format_series(result["series"], xlabel=xlabel, title=f"{name} ({unit})")]
    cross = result.get("crossover")
    paper = claims.paper("fig01.crossover")
    if isinstance(cross, dict):
        lines += [f"crossover[{cell}]: {value:.0f} B (paper-era: {paper:.0f} B)"
                  for cell, value in cross.items() if value]
    elif cross:
        lines.append(f"crossover: {cross:.0f} B (paper: {paper:.0f})")
    if chart:
        lines += ["", ascii_chart(result["series"], logx=xlabel == "bytes", title=name,
                                  xlabel=xlabel, ylabel=unit)]
    return "\n".join(lines)


def format_table1(result: dict) -> str:
    """Table 1: each row measured beside the paper's, ATM then Ethernet."""
    rows = result["rows"]
    return format_table(
        ["row", "ATM", "paper", "Ethernet", "paper"],
        [[row, rows["ATM"][row], atm, rows["Ethernet"][row], eth]
         for row, _, atm, eth, _ in claims.TABLE1_ROWS],
        title="Table 1: MPI round-trip overheads with TCP (us)",
    )


def format_soak_failures(rows: Sequence[Dict]) -> str:
    """One ``soak FAIL <cell>: <why>`` line per soak row that did not
    recover correctly or whose recovery trace varied across repeats
    (``""`` when every row passed)."""
    lines = []
    for r in rows:
        if r["outcome"] == "ok" and r["deterministic"]:
            continue
        why = r["diagnostic"] or (
            "non-deterministic recovery trace" if not r["deterministic"]
            else r["outcome"])
        lines.append(f"soak FAIL {r['cell']}: {why}")
    return "\n".join(lines)
