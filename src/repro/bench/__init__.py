"""Benchmark harness: regenerates every figure and table of the paper.

:mod:`repro.bench.harness` has the micro-benchmark drivers (ping-pong
round trips, streaming bandwidth, raw-protocol probes);
:mod:`repro.bench.figures` produces each figure's data series;
:mod:`repro.bench.claims` holds the paper's numbers and shape claims,
each with its check; :mod:`repro.bench.tables` formats paper-style
output; ``python -m repro.bench.experiments`` checks every claim and
renders EXPERIMENTS.md from one batch of the figure plans.
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
