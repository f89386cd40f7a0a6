"""Tracked kernel performance suite — writes ``BENCH_kernel.json``.

``python benchmarks/bench_kernel_perf.py [--quick] [--workers N]
[--out PATH]`` runs the kernel workloads (see
``repro.bench.kernel_perf``), prints a table, writes the JSON report,
and exits non-zero if any workload falls below its events-per-second
floor.  ``--quick`` runs reduced problem sizes (CI smoke) and halves
the floors; ``--workers N`` overlaps the runs (one engine cell per
workload and repeat) on the parallel experiment engine (per-shard
timing lands in the report).  Floors scale by the
``REPRO_BENCH_FLOOR_SLACK`` env var (relative tolerance for slow or
contended runners).

The report is stamped with git SHA, host info, worker count, and an ISO
timestamp (``repro.bench.meta``) so the trajectory stays comparable
across commits and machines, and with ``bytes_per_rank`` — what a built
2048-rank meiko-lowlatency world costs per rank
(``kernel_perf.bytes_per_rank``, measured after the timed suite), the
number ``tests/mpi/test_world_footprint.py`` budgets.
"""

import argparse
import json
import sys

from repro.bench.kernel_perf import bytes_per_rank, effective_floor, run_suite
from repro.bench.meta import bench_metadata


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="reduced sizes, halved floors")
    ap.add_argument("--out", default="BENCH_kernel.json", help="JSON report path")
    ap.add_argument("--repeats", type=int, default=3, help="best-of repetitions")
    ap.add_argument("--workers", type=int, default=None,
                    help="overlap workloads over N worker processes")
    ap.add_argument("--no-floor", action="store_true", help="report only, never fail")
    args = ap.parse_args(argv)

    suite = run_suite(quick=args.quick, repeats=args.repeats, workers=args.workers)
    suite["meta"] = bench_metadata(workers=args.workers)
    suite["meta"]["bytes_per_rank"] = {
        "meiko-lowlatency@2048": round(bytes_per_rank(2048)["built"]),
    }
    failed = []
    print(
        f"kernel perf suite ({suite['mode']} mode, best of {args.repeats}, "
        f"{suite['workers']} worker{'s' if suite['workers'] != 1 else ''})"
    )
    for name, rec in suite["workloads"].items():
        floor = effective_floor(name, quick=args.quick)
        ok = rec["events_per_sec"] >= floor
        if not ok:
            failed.append(name)
        print(
            f"  {name:<12} {rec['events']:>8} events  {rec['elided']:>8} elided  "
            f"{rec['carried']:>8} carried  {rec['wall_s']:>9.4f} s  "
            f"{rec['events_per_sec']:>9} ev/s  (floor {floor}{'' if ok else '  ** UNDER **'})"
        )
    for shard in suite["shards"]:
        print(f"  shard {shard['shard']}: {shard['cells']} runs "
              f"in {shard['wall_s']:.3f} s")
    with open(args.out, "w") as fh:
        json.dump(suite, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({suite['meta']['git_sha']} @ {suite['meta']['timestamp']})")
    if failed and not args.no_floor:
        print(f"FAIL: under floor: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
