"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Platform/device inventory and calibrated endpoints.
``pingpong``
    MPI round-trip latency for one configuration and size sweep.
``bandwidth``
    One-way streaming bandwidth for one configuration.
``figure``
    Regenerate one of the paper's figures/tables (fig01..fig10, table1)
    as a table and an ASCII chart.
``app``
    Run one of the applications (linsolve, matmul, nbody, jacobi) and
    report time + verification.
``chaos``
    Sweep seeded packet loss over MPI workloads on the cluster fabrics
    and report recovery slowdown or the failure diagnostic per cell.
``phases``
    Trace a 2-rank ping-pong per message size and print the Table-1
    envelope/match/data phase breakdown from the event bus.
``perf``
    Time the simulator-kernel performance workloads (best of
    ``--repeats``), optionally under cProfile (``--profile``); each
    line gives the events, how many of them were elided (numbered
    without a heap trip) and how many resource grants were carried
    into their hold without waking the holder.
``fuzz``
    Differential MPI conformance fuzzer: generate a random program
    from a seed, run it on every device in the matrix, and assert all
    produce the identical semantic trace.  ``--corpus ci`` runs the
    pinned seed corpus; failures are shrunk to minimal repro scripts.
``sweep``
    Regenerate one or more paper figures through the parallel
    experiment engine — every sweep point is an independent cell
    fanned out over ``--workers`` processes and cached
    content-addressed under ``.repro-cache/``.

``pingpong``, ``app``, ``chaos`` and ``phases`` accept
``--trace FILE`` (+ ``--trace-format {chrome,jsonl}``) to export the
run's structured event trace — ``chrome`` loads in ``chrome://tracing``
or Perfetto.

Every simulating command builds independent cells and runs them as one
engine batch (``repro.parallel.evaluate``); this module builds no world
itself and imports no simulator — numpy, the MPI library and the machine
models load when the first cell runs, so ``--help`` and a command
answered from the cache never load them.  ``fuzz``, ``chaos`` and ``sweep`` run theirs in-process by
default, sharded over N worker processes with ``--workers N`` — stdout
does not depend on it; engine statistics go to stderr.  An integer
``--workers`` also turns the result cache on (``sweep`` caches either
way); ``--no-cache`` bypasses it.  See ``docs/PERF.md``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import List, Optional

from repro.bench import figures
from repro.bench.claims import paper
from repro.bench.figures import FIGURES
from repro.bench.tables import format_figure, format_table, format_table1
from repro.parallel import Plan, evaluate, merge_traced
from repro.platforms import DEVICE_MATRIX, PLATFORM_DEVICES

__all__ = ["main", "build_parser"]


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write the run's structured event trace to FILE")
    p.add_argument("--trace-format", default="chrome", choices=["chrome", "jsonl"],
                   help="chrome (chrome://tracing / Perfetto JSON) or jsonl")


def _add_parallel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="shard independent cells over N worker processes")
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the content-addressed result cache")


def _use_cache(args) -> bool:
    """``fuzz``/``chaos``: an integer ``--workers`` turns the result cache
    on (unless ``--no-cache``); without ``--workers`` a run is cache-free."""
    return args.workers is not None and not args.no_cache


def _make_bus(args):
    """An EventBus if ``--trace`` was given, else None (tracing off)."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.obs import EventBus

    return EventBus()


def _write_trace(bus, args, out) -> None:
    if bus is None:
        return
    from repro.obs import write_trace

    write_trace(bus, args.trace, args.trace_format)
    print(f"trace: {len(bus)} events -> {args.trace} ({args.trace_format})", file=out)


def _evaluate(cells, args):
    """A command's cells as one in-process engine batch: ``(values, bus)``.

    Commands build cells and format values; only cells build worlds
    (``repro.parallel.tasks``), so no world outlives its piece of the
    command.  With ``--trace`` every cell records into a bus of its own
    and the streams are merged in cell order into *bus* (else None).
    """
    bus = _make_bus(args)
    if bus is not None:
        cells = [dict(cell, _trace=True) for cell in cells]
    (values,), _ = evaluate(
        [Plan(cells, lambda values: merge_traced(cells, values, bus))])
    return values, bus


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Low Latency MPI for Meiko CS/2 and ATM Clusters'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="platform/device inventory")

    pp = sub.add_parser("pingpong", help="MPI round-trip latency sweep")
    pp.add_argument("--platform", default="meiko", choices=sorted(PLATFORM_DEVICES))
    pp.add_argument("--device", default=None)
    pp.add_argument("--sizes", default="1,64,256,1024",
                    help="comma-separated message sizes in bytes")
    _add_trace_args(pp)

    bw = sub.add_parser("bandwidth", help="one-way streaming bandwidth")
    bw.add_argument("--platform", default="meiko", choices=sorted(PLATFORM_DEVICES))
    bw.add_argument("--device", default=None)
    bw.add_argument("--sizes", default="4096,65536,1048576")

    fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig.add_argument("name", choices=sorted(FIGURES) + ["table1"])
    fig.add_argument("--chart", action="store_true", help="also render an ASCII chart")

    app = sub.add_parser("app", help="run an application")
    app.add_argument("name", choices=["linsolve", "matmul", "nbody", "jacobi"])
    app.add_argument("--platform", default="meiko", choices=sorted(PLATFORM_DEVICES))
    app.add_argument("--device", default=None)
    app.add_argument("--nprocs", type=int, default=4)
    app.add_argument("--size", type=int, default=None,
                     help="problem size (N / particles / grid rows)")
    _add_trace_args(app)

    ch = sub.add_parser("chaos", help="fault-injection sweep over MPI workloads")
    ch.add_argument("--platforms", default="ethernet,atm",
                    help="comma-separated cluster fabrics to sweep")
    ch.add_argument("--losses", default="0,0.01,0.05,0.1",
                    help="comma-separated packet-loss probabilities")
    ch.add_argument("--workloads", default="pingpong,nbody",
                    help="comma-separated workloads (pingpong, nbody)")
    ch.add_argument("--repeats", type=int, default=20,
                    help="ping-pong round trips per cell")
    ch.add_argument("--seed", type=int, default=1)
    ch.add_argument("--soak", action="store_true",
                    help="run the ULFM recovery soak instead of the loss "
                         "sweep: a pinned mid-run NodeCrash driven through "
                         "detect/revoke/shrink/agree + checkpoint restart "
                         "on every platform/device cell")
    ch.add_argument("--cells", default="all", metavar="CELLS",
                    help="soak mode: comma-separated platform-device cells "
                         "(default: the full device matrix)")
    ch.add_argument("--crash-at", type=float, default=None,
                    help="soak mode: simulated us at which the victim dies "
                         "(default: the platform's pinned schedule, "
                         "repro.bench.chaos.SOAK_CRASH_AT)")
    ch.add_argument("--victim", type=int, default=3,
                    help="soak mode: world rank that crashes")
    ch.add_argument("--nprocs", type=int, default=8,
                    help="soak mode: ranks in the survivable workload")
    ch.add_argument("--soak-repeat", type=int, default=2,
                    help="soak mode: seeded runs per cell whose recovery "
                         "traces must be byte-identical")
    _add_trace_args(ch)
    _add_parallel_args(ch)

    sw = sub.add_parser(
        "sweep", help="figure sweeps through the parallel experiment engine"
    )
    sw.add_argument("names", nargs="*", metavar="FIG",
                    help=f"figures to regenerate, from {', '.join(sorted(FIGURES))} "
                         "(default: fig02 fig05)")
    sw.add_argument("--chart", action="store_true", help="also render ASCII charts")
    _add_parallel_args(sw)

    ph = sub.add_parser(
        "phases", help="Table-1 phase breakdown of a traced ping-pong"
    )
    ph.add_argument("--platform", default="ethernet", choices=sorted(PLATFORM_DEVICES))
    ph.add_argument("--device", default=None)
    ph.add_argument("--sizes", default="1,16384",
                    help="comma-separated message sizes in bytes")
    _add_trace_args(ph)

    pf = sub.add_parser("perf", help="simulator-kernel performance workloads")
    pf.add_argument("--workload", default="solver",
                    help="kernel_perf workload name, or 'all' (default: solver)")
    pf.add_argument("--quick", action="store_true", help="reduced problem sizes")
    pf.add_argument("--repeats", type=int, default=3, help="best-of repetitions")
    pf.add_argument("--profile", action="store_true",
                    help="run under cProfile and print the hottest functions")
    pf.add_argument("--top", type=int, default=25,
                    help="rows of profile output (with --profile)")
    pf.add_argument("--profile-out", default=None, metavar="PATH",
                    help="also dump raw cProfile stats to PATH (with --profile)")

    fz = sub.add_parser("fuzz", help="differential MPI conformance fuzzer")
    fz.add_argument("--seed", type=int, default=None,
                    help="generate and check one program from this seed")
    fz.add_argument("--seeds", default=None,
                    help="comma-separated list of seeds to check")
    fz.add_argument("--profile", default="mixed",
                    choices=["mixed", "pt2pt", "collective", "algos",
                             "fault", "ft"],
                    help="generator op-mix profile (default: mixed); "
                         "'algos' forces a collective-algorithm style per "
                         "round; 'ft' generates ULFM crash-recovery programs")
    fz.add_argument("--nprocs", type=int, default=None,
                    help="force the rank count (default: seed-derived)")
    fz.add_argument("--corpus", default=None, choices=["ci"],
                    help="run the pinned seed corpus instead of --seed(s)")
    fz.add_argument("--budget", default=None, metavar="DURATION",
                    help="wall-clock budget, e.g. 60s or 5m; programs it "
                         "cuts short are reported as not run")
    fz.add_argument("--artifacts", default=None, metavar="DIR",
                    help="write shrunk repro scripts for failures to DIR")
    fz.add_argument("--dump-trace", action="store_true",
                    help="print the canonical reference trace per seed")
    _add_parallel_args(fz)
    return parser


def _parse_budget(text: Optional[str]) -> Optional[float]:
    if text is None:
        return None
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        scale, text = 1e-3, text[:-2]
    elif text.endswith("s"):
        scale, text = 1.0, text[:-1]
    elif text.endswith("m"):
        scale, text = 60.0, text[:-1]
    return float(text) * scale


def _parse_sizes(text: str) -> List[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def _device(args) -> str:
    return args.device or PLATFORM_DEVICES[args.platform][0]


def cmd_info(args, out) -> int:
    rtts, _ = _evaluate(
        [{"kind": "pingpong_rtt", "platform": platform, "device": device,
          "nbytes": 1} for platform, device in DEVICE_MATRIX], args)
    print(format_table(
        ["platform", "device", "1B RTT (us)"],
        [[platform, device, rtt]
         for (platform, device), rtt in zip(DEVICE_MATRIX, rtts)],
        title=f"Simulated platforms (paper: meiko {paper('fig02.lowlatency_1B'):g}/"
              f"{paper('fig02.mpich_1B'):g}; clusters {paper('fig05.tcp_eth_1B'):g}/"
              f"{paper('fig05.tcp_atm_1B'):g} + MPI overheads)",
    ), file=out)
    return 0


def _size_sweep(kind: str, column: str, what: str):
    """``pingpong`` / ``bandwidth``: one *kind* cell per message size."""

    def cmd(args, out) -> int:
        sizes = _parse_sizes(args.sizes)
        device = _device(args)
        values, bus = _evaluate(
            [{"kind": kind, "platform": args.platform, "device": device,
              "nbytes": n} for n in sizes], args)
        print(format_table(
            ["bytes", column], [[n, v] for n, v in zip(sizes, values)],
            title=f"MPI {what} on {args.platform}/{device}",
        ), file=out)
        _write_trace(bus, args, out)
        return 0

    return cmd


cmd_pingpong = _size_sweep("pingpong_rtt", "RTT (us)", "ping-pong")
cmd_bandwidth = _size_sweep("bandwidth", "MB/s", "bandwidth")


def cmd_figure(args, out) -> int:
    if args.name == "table1":
        print(format_table1(figures.table1_overheads()), file=out)
        return 0
    fn, _, _ = FIGURES[args.name]
    print(format_figure(args.name, fn(), args.chart), file=out)
    return 0


def cmd_sweep(args, out) -> int:
    names = args.names or ["fig02", "fig05"]
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        print(f"sweep: unknown figure(s) {', '.join(unknown)} "
              f"(choose from {', '.join(sorted(FIGURES))})", file=out)
        return 2
    # the cells of every requested figure in one engine batch: one cache
    # scan, one fork per worker, one merge (a fork per figure can never pay)
    results, report = evaluate(
        [FIGURES[name][0].plan() for name in names],
        workers=args.workers, cache=not args.no_cache,
    )
    for name, result in zip(names, results):
        print(format_figure(name, result, args.chart), file=out)
    print(report.stats_line(), file=sys.stderr)
    return 0


def cmd_app(args, out) -> int:
    device = _device(args)
    n = args.size or {"linsolve": 64, "nbody": args.nprocs * 8}.get(args.name, 32)
    (result,), bus = _evaluate(
        [{"kind": "app_verified", "app": args.name, "platform": args.platform,
          "device": device, "nprocs": args.nprocs, "n": n}], args)
    ok = result["ok"]
    print(
        f"{args.name} on {args.platform}/{device} x{args.nprocs}: "
        f"{result['elapsed']:.1f} us simulated, verification {'OK' if ok else 'FAILED'}",
        file=out,
    )
    _write_trace(bus, args, out)
    return 0 if ok else 1


def cmd_chaos(args, out) -> int:
    from repro.bench.chaos import chaos_sweep, format_chaos

    if args.soak:
        return _cmd_chaos_soak(args, out)
    bus = _make_bus(args)
    rows = chaos_sweep(
        platforms=[p for p in args.platforms.split(",") if p],
        losses=[float(x) for x in args.losses.split(",") if x.strip()],
        workloads=[w for w in args.workloads.split(",") if w],
        repeats=args.repeats,
        seed=args.seed,
        obs=bus,
        workers=args.workers,
        cache=_use_cache(args),
    )
    print(format_chaos(rows), file=out)
    _write_trace(bus, args, out)
    return 0


def _cmd_chaos_soak(args, out) -> int:
    """``repro chaos --soak``: the ULFM recovery gate.

    Exits non-zero unless every cell completes with the correct answer
    AND its recovery event trace is byte-identical across the repeated
    seeded runs.
    """
    from repro.bench.chaos import format_soak, soak_sweep
    from repro.platforms import DEVICE_MATRIX, device_key

    if args.cells == "all":
        cells = list(DEVICE_MATRIX)
    else:
        wanted = {c.strip() for c in args.cells.split(",") if c.strip()}
        cells = [pd for pd in DEVICE_MATRIX if device_key(*pd) in wanted]
        unknown = wanted - {device_key(*pd) for pd in cells}
        if unknown:
            print(f"unknown cells: {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
    bus = _make_bus(args)
    rows = soak_sweep(
        cells=cells, nprocs=args.nprocs, victim=args.victim,
        crash_at=args.crash_at, seed=args.seed, repeat=args.soak_repeat,
        obs=bus, workers=args.workers,
    )
    print(format_soak(rows), file=out)
    _write_trace(bus, args, out)
    bad = [r for r in rows if r["outcome"] != "ok" or not r["deterministic"]]
    if bad:
        for r in bad:
            why = r["diagnostic"] or (
                "non-deterministic recovery trace" if not r["deterministic"]
                else r["outcome"])
            print(f"soak FAIL {r['cell']}: {why}", file=sys.stderr)
        return 1
    return 0


def cmd_phases(args, out) -> int:
    device = _device(args)
    sizes = _parse_sizes(args.sizes)
    # one traced world per size; --trace exports the whole sweep
    tables, bus = _evaluate(
        [{"kind": "phases_table", "platform": args.platform, "device": device,
          "nbytes": nbytes} for nbytes in sizes], args)
    for nbytes, table in zip(sizes, tables):
        print(
            f"{nbytes}-byte ping-pong on {args.platform}/{device} "
            "(envelope/match/data us, paper Table 1):",
            file=out,
        )
        print(table, file=out)
        print(file=out)
    _write_trace(bus, args, out)
    return 0


def cmd_perf(args, out) -> int:
    """Run kernel-perf workloads, optionally under cProfile.

    ``--profile`` wraps the selected workload(s) in a profiler — the
    same in-process cells a plain run evaluates — and prints the top
    cumulative-time hot spots: the view used to drive the kernel's
    slot-dispatch and pooling optimisations.
    """
    from repro.bench.kernel_perf import WORKLOADS, plan

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or 'all'", file=out)
        return 2
    if args.profile:
        import cProfile
        import pstats

        # warm imports so they don't dominate the profile
        evaluate([plan(names, quick=True, repeats=1)])
        profiler = cProfile.Profile()
        profiler.runcall(evaluate, [plan(names, args.quick, repeats=1)])
        stats = pstats.Stats(profiler, stream=out).sort_stats("cumulative")
        print(f"profile: {', '.join(names)} "
              f"({'quick' if args.quick else 'full'} mode)", file=out)
        stats.print_stats(args.top)
        if args.profile_out:
            stats.dump_stats(args.profile_out)
            print(f"raw profile stats -> {args.profile_out}", file=out)
        return 0
    (records,), _ = evaluate([plan(names, args.quick, args.repeats)])
    for name, rec in records.items():
        print(f"{name:<12} {rec['events']:>8} events  {rec['elided']:>8} elided  "
              f"{rec['carried']:>8} carried  {rec['wall_s']:>9.4f} s  "
              f"{rec['events_per_sec']:>9} ev/s", file=out)
    return 0


def cmd_fuzz(args, out) -> int:
    from repro.conformance.corpus import run_corpus

    corpus = args.corpus is not None
    if not corpus and args.seed is None and args.seeds is None:
        print("fuzz: one of --seed, --seeds or --corpus is required", file=out)
        return 2
    seeds = [args.seed] if args.seed is not None else []
    if args.seeds:
        seeds += [int(s) for s in args.seeds.split(",") if s.strip()]

    # one runner for both modes; it prints the corpus format itself
    summary = run_corpus(
        None if corpus else [(seed, args.profile) for seed in seeds],
        nprocs=args.nprocs,
        budget_s=_parse_budget(args.budget),
        artifacts_dir=args.artifacts,
        out=out if corpus else None,
        workers=args.workers,
        cache=_use_cache(args),
    )
    if not corpus:
        for result, fault_result in filter(None, summary["verdicts"]):
            print(result.summary(), file=out)
            if result.ok and fault_result is not None:
                print(fault_result.summary() + " [fault-composed]", file=out)
            if args.dump_trace and result.reference is not None:
                print(result.canons[result.reference], file=out)
        for path in summary["artifacts"]:
            print(f"shrunk repro: {path}", file=out)
    if args.workers is not None:
        print(summary["report"].stats_line(), file=sys.stderr)
    return 1 if summary["failures"] else 0


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves it unchanged, so the
    ~1.6 ms of building it are paid once, not by every :func:`main` call."""
    return build_parser()


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    handler = {
        "info": cmd_info,
        "pingpong": cmd_pingpong,
        "bandwidth": cmd_bandwidth,
        "figure": cmd_figure,
        "app": cmd_app,
        "chaos": cmd_chaos,
        "phases": cmd_phases,
        "perf": cmd_perf,
        "fuzz": cmd_fuzz,
        "sweep": cmd_sweep,
    }[args.command]
    return handler(args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
