"""The simulator stack has one load point per process tree.

Before it forks, the engine imports in the parent what the batch's
pending cells will import (``repro.parallel.tasks.load_for``: the needs
each task kind names beside its function, the rows of
``repro.platforms.DEVICE_CLASSES`` the cells name), so a forked worker
imports *nothing* — it reports the ``repro.*`` / ``numpy.*`` modules it
still had to load, and the contract is the empty list.  That report is
what keeps ``load_for`` complete with no module list to maintain: a kind
whose needs fall behind its imports fails here, by name.

Whether a worker had something left to import can only be seen from a
process that has not imported it yet, so the probes run in fresh
interpreters; each probe forks its own throw-away parent from a pristine
one (numpy's top level pre-imported once — re-importing 150 ms of it per
probe would dominate the test; ``numpy.random`` and friends are not).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.parallel import TASKS, engine, run_cells
from repro.platforms import DEVICE_MATRIX

ROOT = Path(__file__).resolve().parents[2]


def _spawn(code: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code], text=True, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}"))


def _finish(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out


def _python(code: str) -> str:
    return _finish(_spawn(code))


# ------------------------------------------------ every kind x every cell
def _program(profile, seed):
    from repro.conformance.grammar import generate

    return generate(seed, profile=profile).to_dict()


#: kind -> cells to probe on one (platform, device); a kind that takes no
#: platform is probed once (on the first matrix cell)
PROBES = {
    "pingpong_rtt": lambda p, d: [
        {"kind": "pingpong_rtt", "platform": p, "device": d, "nbytes": 64}],
    "bandwidth": lambda p, d: [
        {"kind": "bandwidth", "platform": p, "device": d, "nbytes": 4096}],
    "app_time": lambda p, d: [
        {"kind": "app_time", "platform": p, "device": d, "nprocs": 2,
         "app": "linsolve", "kwargs": {"n": 8, "seed": 0}}],
    "app_verified": lambda p, d: [
        {"kind": "app_verified", "app": "nbody", "platform": p, "device": d,
         "nprocs": 2, "n": 8}],
    "phases_table": lambda p, d: [
        {"kind": "phases_table", "platform": p, "device": d, "nbytes": 180}],
    "soak_cell": lambda p, d: [
        {"kind": "soak_cell", "platform": p, "device": d, "nprocs": 4,
         "victim": 3, "crash_at": None, "n": 16, "iters": 6,
         "checkpoint_every": 2, "seed": 1, "_nocache": True}],
    "conformance_cell": lambda p, d: [
        {"kind": "conformance_cell", "platform": p, "device": d,
         "program": _program(profile, seed),
         "fault": profile == "fault"}
        for profile, seed in (("mixed", 1), ("fault", 31), ("ft", 41))
        if profile != "fault" or p in ("atm", "ethernet")],
    "chaos_cell": lambda p, d: [
        {"kind": "chaos_cell", "platform": p, "workload": workload, "loss": 0.05,
         "nprocs": nprocs, "nbytes": 16, "repeats": 2, "seed": 1}
        for workload, nprocs in (("pingpong", 2), ("nbody", 4))
    ] if (p in ("atm", "ethernet") and d == "tcp") else [],
    "tport_rtt": lambda p, d: [{"kind": "tport_rtt", "nbytes": 64}],
    "tport_bandwidth": lambda p, d: [{"kind": "tport_bandwidth", "nbytes": 4096}],
    "raw_rtt": lambda p, d: [
        {"kind": "raw_rtt", "network": net, "transport": tr, "nbytes": 64}
        for net in ("atm", "ethernet") for tr in ("tcp", "udp")],
    "raw_bandwidth": lambda p, d: [
        {"kind": "raw_bandwidth", "network": "atm", "transport": tr,
         "nbytes": 4096} for tr in ("tcp", "udp")],
    "fore_rtt": lambda p, d: [{"kind": "fore_rtt", "nbytes": 64}],
    "kernel_workload": lambda p, d: [
        {"kind": "kernel_workload", "name": name, "quick": True, "_nocache": True}
        for name in ("timer_churn", "chaos", "solver")],
    "_selftest": lambda p, d: [{"kind": "_selftest", "i": 0}],
    "_flaky_selftest": lambda p, d: [{"kind": "_flaky_selftest", "i": 0}],
}
PLATFORM_FREE = ("tport_rtt", "tport_bandwidth", "raw_rtt", "raw_bandwidth",
                 "fore_rtt", "kernel_workload", "_selftest", "_flaky_selftest")


def probe_every_kind(matrix):
    """Run in a fresh interpreter: one JSON line per probed cell of
    *matrix* — ``{"cell": label, "imports": [...], "forks": n}``."""
    import numpy  # noqa: F401 - the one thing the probes share (see above)

    engine.MIN_CELLS_PER_WORKER = 1     # a probe is one cell, dealt to two workers
    for platform, device in matrix:
        for kind, build in PROBES.items():
            if kind in PLATFORM_FREE and (platform, device) != DEVICE_MATRIX[0]:
                continue
            for cell in build(platform, device):
                label = f"{kind} {platform}-{device} " + " ".join(
                    str(cell[key]) for key in ("app", "workload", "name",
                                               "network", "transport") if key in cell)
                if kind == "conformance_cell":
                    label += f"seed {cell['program']['seed']}"
                pid = os.fork()
                if pid == 0:  # a throw-away parent: loads, forks, reports
                    status = 1
                    try:
                        report = run_cells([cell, cell], workers=2, cache=False)
                        print(json.dumps({"cell": label, "forks": report.forks,
                                          "imports": report.worker_imports}),
                              flush=True)
                        status = 0
                    finally:
                        os._exit(status)
                assert os.waitpid(pid, 0)[1] == 0, label


def test_every_kind_names_what_it_imports_on_every_cell():
    assert set(PROBES) == set(TASKS), "a new task kind needs a probe here"
    # two interpreters side by side, four matrix cells each
    halves = [_spawn(
        "from tests.parallel.test_load_once import probe_every_kind\n"
        f"probe_every_kind({DEVICE_MATRIX[half::2]!r})") for half in (0, 1)]
    probed = [json.loads(line) for proc in halves
              for line in _finish(proc).splitlines()]
    assert len(probed) == 8 * 8 + 4 + 4 + 14  # + fault, chaos, platform-free
    assert all(row["forks"] == 2 for row in probed)
    assert {row["cell"]: row["imports"] for row in probed if row["imports"]} == {}


# ------------------------------------------- the ledger's engine_pool commands
LEDGER_COMMANDS = [
    "sweep fig01 fig02 fig03 fig04 fig05 fig06 fig08 fig09 fig10 --workers 2 --no-cache",
    "chaos --platforms ethernet,atm --losses 0,0.01,0.05,0.1 --repeats 60 --workers 2 --no-cache",
    "fuzz --seeds 1,2,3,4,5,6,7,8,93 --profile mixed --workers 2 --no-cache",
]


@pytest.mark.parametrize("command", LEDGER_COMMANDS, ids=lambda c: c.split()[0])
def test_ledger_commands_fork_workers_that_import_nothing(command):
    """Strict: a fresh interpreter per command, nothing pre-imported."""
    out = _python(
        "import io, json\n"
        "from repro.cli import main\n"
        "from repro.parallel import engine\n"
        "real, reports = engine.run_cells, []\n"
        "def run_cells(cells, **kw):\n"
        "    reports.append(real(cells, **kw))\n"
        "    return reports[-1]\n"
        "engine.run_cells = run_cells\n"
        f"assert main({command.split()!r}, out=io.StringIO()) == 0\n"
        "(r,) = reports\n"
        "print(json.dumps([r.forks, r.worker_imports, r.load_s,\n"
        "                  [s.first_cell_s for s in r.shards], r.executed]))")
    forks, imports, load_s, first_cells, executed = json.loads(out)
    assert forks == 2 and imports == [] and executed > 0
    # the stack was loaded, once, by the parent — not by the first cells
    assert load_s > max(first_cells)


# ------------------------------------------------- driven by the batch only
def test_an_in_process_batch_loads_nothing_ahead(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "load_for", calls.append)
    cells = [{"kind": "_selftest", "i": i} for i in range(9)]
    assert run_cells(cells, cache=False).forks == 0           # no workers asked
    assert run_cells(cells[:7], workers=2, cache=False).forks == 0  # too small
    assert calls == []
    assert run_cells(cells, workers=2, cache=False).forks == 2
    assert calls == [cells]                                   # the pending cells, once


def test_loading_for_a_meiko_batch_leaves_the_other_fabrics_alone():
    out = _python(
        "import sys\n"
        "from repro.parallel import load_for\n"
        "load_for([{'kind': 'pingpong_rtt', 'platform': 'meiko', 'device': d,\n"
        "           'nbytes': 1} for d in ('lowlatency', 'mpich')]\n"
        "         + [{'kind': 'tport_rtt', 'nbytes': 1}, {'kind': 'no_such_kind'}])\n"
        "print([m in sys.modules for m in ('repro.hw.meiko', 'repro.mpi',\n"
        "       'repro.net.tcp', 'repro.hw.cluster', 'repro.hw.modern')])")
    assert out.strip() == "[True, True, False, False, False]"
