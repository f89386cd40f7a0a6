"""Benchmark harness: regenerates every figure and table of the paper.

:mod:`repro.bench.harness` has the micro-benchmark drivers (ping-pong
round trips, streaming bandwidth, raw-protocol probes);
:mod:`repro.bench.figures` produces each figure's data series;
:mod:`repro.bench.tables` formats paper-style output.

The ``benchmarks/`` directory at the repo root wraps these in
pytest-benchmark targets, one per figure/table.
"""

from importlib import import_module

#: the module behind each public name, resolved on first access (PEP
#: 562): ``import repro.bench`` — which ``import repro.cli`` and ``import
#: repro.bench.figures`` both run — loads neither, so a command that
#: simulates nothing never pays for the harness
_HARNESS, _TABLES = "repro.bench.harness", "repro.bench.tables"
_EXPORTS = {
    "mpi_pingpong_rtt": _HARNESS,
    "mpi_bandwidth": _HARNESS,
    "tport_rtt": _HARNESS,
    "tport_bandwidth": _HARNESS,
    "raw_stream_rtt": _HARNESS,
    "raw_stream_bandwidth": _HARNESS,
    "fore_rtt": _HARNESS,
    "sweep": _HARNESS,
    "crossover": _HARNESS,
    "format_table": _TABLES,
    "format_series": _TABLES,
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(module), name)
    return value
