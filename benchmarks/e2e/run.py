"""The wall-clock ledger: end-to-end host time of the simulator, per layer.

    python benchmarks/e2e/run.py --seed 0            # all workloads, 3 rounds
    python benchmarks/e2e/run.py --seed 0 --trace 1  # per-layer attribution
    python benchmarks/e2e/run.py --quick             # 1 round, 1 pass (CI)
    python benchmarks/e2e/run.py --selftest
    python benchmarks/e2e/run.py --compare A.json B.json
    python benchmarks/e2e/run.py --pin               # rewrite expected.json

Simulated time is the product and must not move; host time is what is
measured.  Every workload is a pinned list of ``repro.cli.main(argv)``
calls run in a fresh child interpreter (``child.py``); every call's
stdout is reduced to its numbers and verdicts, hashed, and compared
with ``expected.json``.  The value of a timing is the minimum over all
timed passes (noise on a shared box only ever adds); median, quartiles
and sample count are printed beside it.  ``README.md`` has the metric
and workload tables and how the numbers should move together.

``BENCHMARK.json`` at the repo root names the workloads, the metrics,
their units and their bounds; with ``--workload`` the last line of
stdout is the result object that file's contract asks for.
"""

import argparse
import contextlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import ops
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CONTRACT = ROOT / "BENCHMARK.json"

#: set-up samples per workload and run (each round gives one; the rest
#: come from children that stop after the imports)
SETUP_SAMPLES = 8
#: a child that has not finished by then is killed and its ops fail
CHILD_TIMEOUT_S = 150
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ------------------------------------------------------------------ children
@contextlib.contextmanager
def scratch():
    """One directory for caches, traces and child results, removed on exit.

    It sits inside the checkout (``.bench_tmp/``, git-ignored): the
    benchmark reads and writes nowhere else.
    """
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run is using it
            pass


def spawn(mode: str, workload: str, seed: int, seconds: float, tmp: str) -> dict:
    """Run one child to completion and return what it wrote.

    A child that crashes or hangs yields ``{"error": ...}``; the caller
    counts every op of the workload as failed.
    """
    result = os.path.join(tmp, "result.json")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC), TMPDIR=tmp)
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--tmp", tmp, "--result", result,
           "--spawned", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {CHILD_TIMEOUT_S}s"}
    if proc.returncode != 0:
        return {"error": f"child exited {proc.returncode}: {proc.stderr[-400:]}"}
    with open(result) as fh:
        out = json.load(fh)
    os.unlink(result)
    return out


# ------------------------------------------------------------------ checking
def check_ops(child: dict, expected: dict) -> dict:
    """Count the child's ops: attempted, failed, unpinned, and why.

    An op fails on a non-zero exit, an exception, a digest that differs
    from the pinned one, or a digest that differs between passes.
    """
    keys = child["keys"]
    first = child["passes"][0]
    failed, problems = 0, []
    for n, ops_of_pass in enumerate(child["passes"]):
        for key, (code, digest), (_, ref) in zip(keys, ops_of_pass, first):
            why = None
            if code != 0:
                why = f"exit {code}"
            elif key in expected and digest != expected[key]:
                why = f"digest {digest} != pinned {expected[key]}"
            elif digest != ref:
                why = f"digest {digest} != {ref} of the first pass"
            if why:
                failed += 1
                problems.append(f"pass {n}: {key}: {why}")
    return {
        "attempted": len(keys) * len(child["passes"]),
        "failed": failed,
        "unpinned": sum(1 for k in set(keys) if k not in expected),
        "problems": problems,
    }


# ----------------------------------------------------------------- reporting
def stat(samples: list) -> dict:
    """median / quartiles / count of one metric's samples."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def load_contract() -> dict:
    with open(CONTRACT) as fh:
        return json.load(fh)


def end_to_end(runs: list, setups: list) -> dict:
    """The end-to-end metrics of one workload from its measuring children."""
    def timing(key):
        samples = [t[key] for r in runs for t in r["timed"]]
        return dict(stat(samples), value=min(samples))

    # after the warm-up and one timed pass: a fixed point, so the number
    # of passes that fit into --seconds does not move it
    rss = [r["timed"][0]["rss_kb"] / 1024 for r in runs]
    return {
        "wall_s": timing("wall_s"),
        "cpu_s": timing("cpu_s"),
        "peak_rss_mb": dict(stat(rss), value=max(rss)),
        "setup_s": dict(stat(setups), value=min(setups)),
    }


def harness_metrics(runs: list) -> dict:
    walls = [t["wall_s"] for r in runs for t in r["timed"]]
    return {
        "harness.first_pass_s": min(r["first_pass_s"] for r in runs),
        "harness.noise": (statistics.median(walls) - min(walls)) / min(walls),
    }


def per_layer(run: dict) -> dict:
    """The per-layer metrics of one workload from its traced child."""
    metrics = spans.span_metrics(run["spans"]["spans"])
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = run["profile"]["self_s"][layer]
        metrics[f"{layer}.calls"] = run["profile"]["calls"][layer]
    metrics.update(harness_metrics([run]))
    plain = min(t["wall_s"] for t in run["timed"])
    metrics["harness.span_overhead"] = run["spans"]["wall_s"] / plain
    metrics["harness.profile_overhead_x"] = run["profile"]["wall_s"] / plain
    return metrics


def unfired_targets(workload: str, run: dict) -> list:
    """Span targets that name *workload* but recorded nothing on it."""
    seen = {s[spans.NAME] for s in run["spans"]["spans"]}
    return [t.span for t in spans.TARGETS
            if t.workload == workload and t.span not in seen]


def print_end_to_end(name: str, metrics: dict, units: dict) -> None:
    for metric, m in metrics.items():
        print(f"{name:<13} {metric:<12} {m['value']:>10.4f} {units[metric]:<3} "
              f"median {m['median']:.4f}  q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  "
              f"n={m['n']}")


def print_per_layer(name: str, run: dict, metrics: dict, units: dict) -> None:
    for metric, value in metrics.items():
        print(f"{name:<13} {metric:<28} {value:>14.6g} {units[metric]}")
    total = sum(run["profile"]["self_s"].values())
    shares = "  ".join(
        f"{layer} {100 * s / total:.1f}%"
        for layer, s in sorted(run["profile"]["self_s"].items(),
                               key=lambda kv: -kv[1]) if s / total >= 0.005)
    print(f"{name:<13} profile self-time shares: {shares}")
    for span, row in spans.summarize(run["spans"]["spans"]).items():
        print(f"{name:<13} span {span:<24} calls {row['calls']:>5}  "
              f"total {row['total_s']:.4f} s  self {row['self_s']:.4f} s")


# ----------------------------------------------------------------------- run
def judge(name: str, children: list, expected: dict, seed: int, trace: int) -> dict:
    """Ops attempted / failed / unpinned over all of a workload's children."""
    counts = {"attempted": 0, "failed": 0, "unpinned": 0, "problems": []}
    for child in children:
        if "error" in child:
            # a dead child fails one pass worth of ops
            n_ops = len(ops.build_ops(ops.load_spec(name), seed, ""))
            counts["attempted"] += n_ops
            counts["failed"] += n_ops
            counts["problems"].append(child["error"])
            continue
        checked = check_ops(child, expected)
        counts["unpinned"] = checked.pop("unpinned")
        for key, value in checked.items():
            counts[key] += value
        if trace:
            for span in unfired_targets(name, child):
                counts["failed"] += 1
                counts["problems"].append(f"span target {span} never fired")
    counts["fail_share"] = counts["failed"] / counts["attempted"]
    return counts


def run_ledger(names, seed, seconds, rounds, trace, out) -> int:
    contract = load_contract()
    expected = ops.load_expected()
    units = {m["name"]: m["unit"]
             for m in contract["per_layer" if trace else "end_to_end"]}
    runs = {name: [] for name in names}
    setups = {name: [] for name in names}
    with scratch() as tmp:
        # interleaved: a noise episode longer than a pass lands on every
        # workload's round, not on all rounds of one workload
        for _ in range(rounds):
            for name in names:
                runs[name].append(spawn("trace" if trace else "measure",
                                        name, seed, seconds, tmp))
        if not trace:
            for name in names:
                for _ in range(SETUP_SAMPLES - rounds):
                    child = spawn("setup", name, seed, 0, tmp)
                    if "error" not in child:
                        setups[name].append(child["setup_s"])
        meta = stamp(tmp) if out else None

    report = {"seed": seed, "rounds": rounds, "seconds": seconds, "trace": trace,
              "meta": meta, "workloads": {}}
    for name in names:
        entry = judge(name, runs[name], expected, seed, trace)
        good = [r for r in runs[name] if "error" not in r]
        if good and trace:
            entry["metrics"] = per_layer(good[0])
            print_per_layer(name, good[0], entry["metrics"], units)
        elif good:
            entry["metrics"] = end_to_end(
                good, setups[name] + [r["setup_s"] for r in good])
            entry["harness"] = harness_metrics(good)
            print_end_to_end(name, entry["metrics"], units)
            print(f"{name:<13} harness.first_pass_s "
                  f"{entry['harness']['harness.first_pass_s']:.4f} s  "
                  f"harness.noise {entry['harness']['harness.noise']:.4f}")
        print(f"{name:<13} fail_share {entry['fail_share']:.4f} ratio  "
              f"({entry['failed']} of {entry['attempted']} ops failed, "
              f"{entry['unpinned']} unpinned)")
        for problem in entry["problems"]:
            print(f"{name:<13} FAILED {problem}")
        report["workloads"][name] = entry
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"wrote {out}")
    failed = sum(e["failed"] for e in report["workloads"].values())
    if len(names) == 1 and "metrics" in entry:
        # the result object BENCHMARK.json's contract asks for
        print(json.dumps({
            "correct": failed == 0, "attempted": entry["attempted"], "failed": failed,
            "metrics": {k: {"value": m if trace else m["value"], "unit": units[k]}
                        for k, m in entry["metrics"].items()},
        }))
    return 0 if failed == 0 else 1


def stamp(tmp: str) -> dict:
    """``repro.bench.meta.bench_metadata()`` plus ``nproc``.

    Taken in a child so this process never imports the product (its
    memory would show up in every child's ``ru_maxrss`` floor).
    """
    code = ("import json; from repro.bench.meta import bench_metadata; "
            "print(json.dumps(bench_metadata()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=tmp),
                          capture_output=True, text=True, timeout=60, check=True)
    return dict(json.loads(proc.stdout), nproc=os.cpu_count())


# ----------------------------------------------------------------------- pin
def pin(names) -> int:
    """Rewrite ``expected.json`` from one pass of each workload at seed 0."""
    digests = {}
    with scratch() as tmp:
        for name in list(names) + ["selftest"]:
            run = spawn("measure", name, 0, 0, tmp)
            if "error" in run:
                print(f"{name}: {run['error']}")
                return 1
            counts = check_ops(run, {})
            if counts["failed"]:
                print(f"{name}: refusing to pin failing ops:",
                      *counts["problems"], sep="\n  ")
                return 1
            for key, (_, digest) in zip(run["keys"], run["passes"][0]):
                digests[key] = digest
    with open(ops.EXPECTED_FILE, "w") as fh:
        json.dump({"comment": "Per-op stdout digests at seed 0; rewritten only "
                              "by `run.py --pin`.",
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(digests)} ops -> {ops.EXPECTED_FILE}")
    return 0


# ------------------------------------------------------------------- compare
def compare(path_a: str, path_b: str) -> int:
    """Each (metric, workload) of B against A and the metric's bound.

    ``worse``: B's value is beyond the bound.  ``unresolved``: the
    samples of A or of B spread (IQR / median) wider than the bound, so
    the two cannot be told apart, unless every sample of B beats every
    sample of A.  ``fail_share`` may not rise at all.
    """
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}
    worse = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None or "metrics" not in wa or "metrics" not in wb:
            print(f"{name:<13} missing on one side")
            continue
        for metric, bound in bounds.items():
            ma, mb = wa["metrics"][metric], wb["metrics"][metric]
            ratio = mb["value"] / ma["value"]
            spread = max((m["q3"] - m["q1"]) / m["median"] for m in (ma, mb))
            if spread > bound and max(mb["samples"]) >= min(ma["samples"]):
                verdict = "unresolved"
            elif ratio > 1 + bound:
                verdict = "worse"
            else:
                verdict = "ok"
            worse += verdict == "worse"
            print(f"{name:<13} {metric:<12} {ma['value']:>10.4f} -> "
                  f"{mb['value']:>10.4f}  x{ratio:.3f}  bound {bound:.2f}  "
                  f"spread {spread:.3f}  {verdict}")
        verdict = "worse" if wb["fail_share"] > wa["fail_share"] else "ok"
        worse += verdict == "worse"
        print(f"{name:<13} {'fail_share':<12} {wa['fail_share']:>10.4f} -> "
              f"{wb['fail_share']:>10.4f}  {verdict}")
    return 1 if worse else 0


# ------------------------------------------------------------------ selftest
def selftest() -> int:
    contract = load_contract()
    workloads = ops.load_workloads()
    expected = ops.load_expected()
    checks = []

    def check(label, ok, detail=""):
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}{' - ' + detail if detail else ''}")

    package = SRC / "repro"
    stray = [str(p.relative_to(package)) for p in package.rglob("*.py")
             if layers.layer_of(str(p), str(package)) == "other"]
    check("every file under src/repro maps to a named layer", not stray,
          ", ".join(stray))

    # root(0..10) > a(1..4) > b(2..3); root > c(5..9)
    tree = [["root", 0.0, 10.0, -1, 0, None], ["a", 1.0, 4.0, 0, 0, None],
            ["b", 2.0, 3.0, 1, 0, None], ["c", 5.0, 9.0, 0, 0, None]]
    check("span self time = duration minus direct children",
          spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0])

    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in contract[kind]] + [w["name"] for w in contract["workloads"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    check("metric and workload names match [A-Za-z0-9_.-]+", not bad, ", ".join(bad))
    listed = [w["name"] for w in contract["workloads"]]
    check("BENCHMARK.json lists the workloads of workloads.json",
          listed == list(workloads))
    unpinned = [op.key for spec in [*workloads.values(), ops.load_spec("selftest")]
                for op in ops.build_ops(spec, 0, "{tmp}") if op.key not in expected]
    check("every op is pinned at seed 0", not unpinned, "; ".join(unpinned))
    unknown = sorted({t.workload for t in spans.TARGETS} - set(listed))
    check("every span target names a workload", not unknown, ", ".join(unknown))

    with scratch() as tmp:
        run = spawn("trace", "selftest", 0, 0, tmp)
    check("the selftest workload runs", "error" not in run, run.get("error", ""))
    if "error" not in run:
        counts = check_ops(run, expected)
        check("its ops pass and match their pins",
              counts["failed"] == 0 and counts["unpinned"] == 0,
              "; ".join(counts["problems"]))
        fired = {s[spans.NAME] for s in run["spans"]["spans"]}
        silent = [t.span for t in spans.TARGETS if t.span not in fired]
        check("every span target resolves and fires", not silent, ", ".join(silent))
        produced = set(per_layer(run))
        declared = {m["name"] for m in contract["per_layer"]}
        check("BENCHMARK.json per_layer = what a traced run emits",
              produced == declared, ", ".join(sorted(produced ^ declared)))
        produced = set(end_to_end([run], [run["setup_s"]]))
        declared = {m["name"] for m in contract["end_to_end"]}
        check("BENCHMARK.json end_to_end = what a run emits",
              produced == declared, ", ".join(sorted(produced ^ declared)))
        corrupt = dict(expected, **{run["keys"][0]: "0" * 16})
        check("a corrupted digest is a failed op",
              check_ops(run, corrupt)["failed"] == len(run["passes"]))
    print(f"selftest: {sum(checks)}/{len(checks)} checks passed")
    return 0 if all(checks) else 1


# ---------------------------------------------------------------------- main
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default=None,
                    help="run one workload and end with the contract's result line "
                         "(default: all of them)")
    ap.add_argument("--seed", type=int, default=0,
                    help="0 is the pinned load; another seed offsets the chaos "
                         "seeds and shuffles op order (held-out inputs)")
    ap.add_argument("--seconds", type=float, default=3.0,
                    help="timed passes per child go on until this much has been "
                         "measured (default 3)")
    ap.add_argument("--rounds", type=int, default=3,
                    help="fresh children per workload, interleaved (default 3)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: the per-layer run (spans + cProfile), one round, "
                         "never mixed into the end-to-end numbers")
    ap.add_argument("--quick", action="store_true",
                    help="1 round, 1 timed pass, same ops, same checks")
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="also write the meta-stamped result JSON here")
    ap.add_argument("--pin", action="store_true", help="rewrite expected.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"run.py: no product to measure: {SRC / 'repro' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    names = list(ops.load_workloads())
    if args.pin:
        return pin(names)
    if args.workload is not None:
        if args.workload not in names:
            ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
        names = [args.workload]
    # the traced run takes a fixed number of passes, whatever --seconds says
    rounds, seconds = ((1, 0.0) if args.quick or args.trace
                       else (args.rounds, args.seconds))
    return run_ledger(names, args.seed, seconds, rounds, args.trace, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
