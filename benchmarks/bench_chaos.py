"""Chaos sweep — seeded packet loss over MPI workloads on both
cluster fabrics.

Not a figure from the paper: this exercises the fault-injection
subsystem end to end.  Every cell must *terminate* — recovering through
bounded retransmission (reporting its slowdown over the fault-free
baseline) or failing fast with a rank-attributed diagnostic.

Run it as a script (CI runs the smoke sweep)::

    python benchmarks/bench_chaos.py --smoke   # seconds, small sweep
    python benchmarks/bench_chaos.py           # full sweep
"""

import argparse
import sys

from repro.bench.chaos import chaos_sweep, format_chaos

SMOKE = dict(losses=(0.0, 0.05), workloads=("pingpong",), repeats=10)
FULL = dict(losses=(0.0, 0.01, 0.05, 0.10, 0.20),
            workloads=("pingpong", "nbody"), repeats=20)


def _check(rows):
    """Every cell terminated; failures carry a diagnostic."""
    for r in rows:
        assert r["outcome"] in ("ok", "net-error", "deadlock"), r
        if r["outcome"] != "ok":
            assert r["diagnostic"], f"undiagnosed failure: {r}"
    ok = [r for r in rows if r["outcome"] == "ok"]
    assert ok, "no cell completed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small fast sweep (CI)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="export the sweep's event trace (Chrome JSON)")
    args = parser.parse_args(argv)
    bus = None
    if args.trace:
        from repro.obs import EventBus

        bus = EventBus()
    rows = chaos_sweep(**(SMOKE if args.smoke else FULL), obs=bus)
    _check(rows)
    print(format_chaos(rows))
    if bus is not None:
        from repro.obs import write_trace

        write_trace(bus, args.trace, "chrome")
        print(f"trace: {len(bus)} events -> {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
