"""One engine batch per command: ``sweep``, ``fuzz`` and ``chaos``.

``repro sweep`` submits the cells of every requested figure,
``repro fuzz`` (``--seeds`` and ``--corpus`` alike) the cells of *every*
program — matrix runs, the style-stripped reference run of a styled
program, the lossy runs of a fault-carrying one — and ``repro chaos``
(loss sweep or ``--soak``) every scenario, each in a single
``run_cells``, with or without ``--workers``.  The contract: stdout does
not depend on ``--workers``, one set of forked workers per command, and —
every fuzz run being a cacheable cell — a warm re-run simulates nothing:
zero cells executed, zero ``World`` objects built in the parent, nothing
forked.  These counts, not a timing assertion, are the guard against a
fork per figure or per seed, or a second hand-written loop, growing back.
"""

import io

import pytest

from repro.cli import main
from repro.mpi.world import World
from repro.parallel import engine

#: the two paths that cross the process boundary only since the one-batch
#: rewrite: fault-composed (lossy) runs and the styled-reference run
COMMANDS = [
    ["fuzz", "--profile", "fault", "--seeds", "31,94", "--dump-trace"],
    ["fuzz", "--profile", "algos", "--seeds", "51,96", "--dump-trace"],
]
#: matrix + lossy runs / matrix + styled-reference run, two seeds each
CELLS = {"fault": 2 * (8 + 4), "algos": 2 * (8 + 1)}


def _run(argv, capsys):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue(), capsys.readouterr().err


@pytest.fixture
def counters(tmp_path, monkeypatch):
    """Count engine batches, forked workers and parent-side World builds."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    seen = {"batches": [], "forks": 0, "worlds": 0}
    real_run_cells, real_init = engine.run_cells, World.__init__

    def counting_run_cells(cells, **kwargs):
        seen["batches"].append(len(cells))
        report = real_run_cells(cells, **kwargs)
        seen["forks"] += report.forks
        return report

    def counting_init(self, *args, **kwargs):
        seen["worlds"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(engine, "run_cells", counting_run_cells)
    monkeypatch.setattr(World, "__init__", counting_init)
    return seen


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[2])
def test_workers_match_serial_in_one_batch_then_warm_simulates_nothing(
        argv, counters, capsys):
    ncells = CELLS[argv[2]]
    code, serial_text, serial_err = _run(argv, capsys)
    assert code == 0
    assert counters["batches"] == [ncells] and counters["forks"] == 0
    assert counters["worlds"] == ncells   # serial: every run in-process
    assert serial_err == ""               # no engine, no engine statistics

    counters.update(batches=[], worlds=0)
    code, cold_text, cold_err = _run(argv + ["--workers", "2"], capsys)
    assert code == 0
    assert cold_text == serial_text       # byte-identical, traces included
    assert counters["batches"] == [ncells] and counters["forks"] == 2
    assert counters["worlds"] == 0        # every run in a worker
    assert f"workers=2 cells={ncells} cached=0 executed={ncells}" in cold_err
    assert "forks=2" in cold_err and "imports=0" in cold_err

    counters.update(batches=[], forks=0)
    code, warm_text, warm_err = _run(argv + ["--workers", "2"], capsys)
    assert code == 0
    assert warm_text == serial_text
    assert counters["batches"] == [ncells] and counters["forks"] == 0
    assert counters["worlds"] == 0        # nothing simulated anywhere
    assert f"workers=1 cells={ncells} cached={ncells} executed=0" in warm_err


def test_workers_one_uses_the_cache_too(counters, capsys):
    """Any integer --workers, including 1, turns the cache on (the
    caller-side rule, ``cli._use_cache``)."""
    argv = ["fuzz", "--profile", "fault", "--seeds", "31", "--workers", "1"]
    _, cold_text, cold_err = _run(argv, capsys)
    assert "cached=0 executed=12" in cold_err
    _, warm_text, warm_err = _run(argv, capsys)
    assert "cached=12 executed=0" in warm_err
    assert warm_text == cold_text and counters["forks"] == 0
    _, _, nocache_err = _run(argv + ["--no-cache"], capsys)
    assert "cached=0 executed=12" in nocache_err


@pytest.mark.parametrize("argv, ncells", [
    (["fuzz", "--corpus", "ci"], None),
    (["chaos", "--repeats", "2"], 2 * 2 * 4),
    (["chaos", "--soak", "--cells",
      "meiko-lowlatency,atm-udp,ethernet-tcp,modern-cxl"], 4 * 2),
], ids=["corpus", "chaos", "soak"])
def test_corpus_chaos_and_soak_are_one_batch_each(argv, ncells, counters, capsys):
    """In-process or over forked workers, the command is one ``run_cells``."""
    if ncells is None:
        from repro.conformance.corpus import CI_CORPUS
        from repro.conformance.executor import cells
        from repro.conformance.grammar import generate

        ncells = sum(len(cells(generate(seed, profile=profile)))
                     for seed, profile in CI_CORPUS)
    code, text, err = _run(argv, capsys)
    assert code == 0
    assert counters["batches"] == [ncells] and counters["forks"] == 0
    assert counters["worlds"] == ncells and err == ""

    counters.update(batches=[], worlds=0)
    code, pool_text, err = _run(argv + ["--workers", "2", "--no-cache"], capsys)
    assert code == 0
    assert counters["batches"] == [ncells] and counters["forks"] == 2
    assert counters["worlds"] == 0
    if argv[0] == "fuzz":  # the corpus summary line carries wall seconds
        text, pool_text = (t.rsplit(" in ", 1)[0] for t in (text, pool_text))
    assert pool_text == text


def test_multi_figure_sweep_is_one_batch(counters, capsys, tmp_path):
    """However many figures, one ``run_cells`` and one fork per worker (a
    figure is 20-70 ms of simulation: a fork per figure can never pay)."""
    code, sweep_text, _ = _run(
        ["sweep", "fig02", "fig10", "--workers", "2", "--no-cache"], capsys)
    assert code == 0
    assert counters["batches"] == [24 + 40]  # fig02's cells, both fig10 devices'
    assert counters["forks"] == 2
    assert not (tmp_path / "cache").exists()  # --no-cache wrote nothing

    counters.update(batches=[], forks=0)
    _, fig02_text, _ = _run(["figure", "fig02"], capsys)
    _, fig10_text, _ = _run(["figure", "fig10"], capsys)
    assert sweep_text == fig02_text + fig10_text
    # a figure on its own is one in-process batch
    assert counters["batches"] == [24, 40] and counters["forks"] == 0


def test_a_small_batch_runs_in_process_whatever_workers_says(counters, capsys):
    """``--workers N`` is never slower than serial: below four pending
    cells per worker nothing is forked (and nothing loaded ahead), the
    cells run in this process, and stdout is the same."""
    argv = ["chaos", "--platforms", "ethernet", "--workloads", "pingpong",
            "--losses", "0,0.05", "--repeats", "2"]
    _, serial_text, _ = _run(argv, capsys)
    counters.update(batches=[], worlds=0)
    code, text, err = _run(argv + ["--workers", "2", "--no-cache"], capsys)
    assert code == 0 and text == serial_text
    assert counters["batches"] == [2] and counters["forks"] == 0
    assert counters["worlds"] == 2        # built here, not in a worker
