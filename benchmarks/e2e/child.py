"""The measuring child: one workload, one fresh interpreter.

Spawned by ``run.py`` with ``PYTHONPATH`` pointing at ``src``.  It pays
what every CLI call pays (interpreter start, ``import repro.cli``),
builds the pinned op list, runs one untimed warm-up pass and then timed
passes, and writes what it saw to ``--result``.  It judges nothing: the
parent compares digests and computes the metrics.

Modes: ``setup`` stops after the imports; ``measure`` runs timed passes
until ``--seconds`` of them have elapsed; ``trace`` runs two plain
passes, one under cProfile and one with the span wrappers installed.
"""

import argparse
import cProfile
import io
import json
import os
import resource
import shutil
import time

import layers
import ops
import spans


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_kb() -> int:
    """High-water RSS so far: this process, or its largest reaped child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def run_pass(cli_main, op_list, tmp, recorder=None):
    """Run every op once against a fresh result cache.

    Returns ``(wall_s, cpu_s, [(exit code, stdout), ...])``.  An op that
    raises is recorded with the exception as its exit code and the pass
    goes on: the parent counts it as a failed op.
    """
    cache_dir = os.path.join(tmp, "cache")
    shutil.rmtree(cache_dir, ignore_errors=True)
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    outputs = []
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for op in op_list:
        buf = io.StringIO()
        span = recorder.begin(spans.OP_SPAN) if recorder is not None else None
        try:
            code = cli_main(op.argv, out=buf)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - op boundary
            code = f"{type(exc).__name__}: {exc}"
        if recorder is not None:
            recorder.end(span)
        outputs.append((code, buf.getvalue()))
    wall = time.perf_counter() - t0
    return wall, cpu_seconds() - cpu0, outputs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--tmp", required=True, help="scratch directory (exists)")
    ap.add_argument("--spawned", type=float, required=True,
                    help="parent's time.perf_counter() just before the spawn")
    ap.add_argument("--result", required=True, help="where to write the JSON")
    args = ap.parse_args()

    import repro.cli  # here, not at the top: setup_s is measured across it

    op_list = ops.build_ops(ops.load_spec(args.workload), args.seed, args.tmp)
    result = {"setup_s": time.perf_counter() - args.spawned,
              "keys": [op.key for op in op_list]}
    passes = []     # one list of [exit code, digest] per pass, warm-up first

    def record(outputs):
        passes.append([[code, ops.digest(text, op.check, args.tmp)]
                       for op, (code, text) in zip(op_list, outputs)])

    if args.mode != "setup":
        cli_main = repro.cli.main
        wall, _, outputs = run_pass(cli_main, op_list, args.tmp)
        result["first_pass_s"] = wall
        record(outputs)
        timed = []
        measured = 0.0
        plain_passes = 2 if args.mode == "trace" else 1
        while len(timed) < plain_passes or measured < args.seconds:
            wall, cpu, outputs = run_pass(cli_main, op_list, args.tmp)
            measured += wall
            timed.append({"wall_s": wall, "cpu_s": cpu, "rss_kb": peak_rss_kb()})
            record(outputs)
        result["timed"] = timed

    if args.mode == "trace":
        package_root = os.path.dirname(os.path.abspath(repro.cli.__file__))
        profiler = cProfile.Profile()
        wall, _, outputs = profiler.runcall(run_pass, cli_main, op_list, args.tmp)
        record(outputs)
        self_s, calls = layers.bucket_profile(profiler.getstats(), package_root)
        result["profile"] = {"wall_s": wall, "self_s": self_s, "calls": calls}

        recorder = spans.Recorder()
        spans.install(recorder)
        wall, _, outputs = run_pass(cli_main, op_list, args.tmp, recorder)
        record(outputs)
        result["spans"] = {"wall_s": wall, "spans": recorder.spans}

    result["passes"] = passes
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
