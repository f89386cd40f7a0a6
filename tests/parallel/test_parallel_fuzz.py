"""Pool/in-process equivalence of the fuzz-corpus runner.

``run_corpus`` has one path — the programs' ``conformance_cell``s as one
engine batch — and ``workers`` only says where the cells execute.  A
4-worker run must produce byte-identical merged semantic traces (the
per-entry printed lines and the reference canonical traces) and
identical shrunk repro artifacts versus the in-process (``workers=None``)
run — plus, with a warm cache, a re-run of an unchanged tree must
simulate nothing.
"""

import io

from repro.conformance.corpus import run_corpus
from repro.conformance.executor import DifferentialResult, cells
from repro.conformance.grammar import generate
from repro.parallel import ResultCache

#: small cross-profile slice of the pinned corpus (kept fault-free so the
#: injected-failure test below exercises only the differential path)
ENTRIES = [(1, "mixed"), (11, "pt2pt"), (21, "collective"),
           (2, "mixed"), (12, "pt2pt"), (31, "fault")]


def _lines(buf):
    """Per-entry output lines; the trailing summary line carries a
    wall-clock elapsed figure, so it is compared field-wise instead."""
    lines = buf.getvalue().splitlines()
    assert lines[-1].startswith("corpus ")
    return lines[:-1]


#: every run of every entry is its own cell: matrix + lossy runs
NCELLS = sum(len(cells(generate(seed, profile=profile)))
             for seed, profile in ENTRIES)


# ------------------------------------------------- byte-identical merge
def test_four_worker_run_matches_serial():
    serial_out, parallel_out = io.StringIO(), io.StringIO()
    serial = run_corpus(ENTRIES, out=serial_out)
    parallel = run_corpus(ENTRIES, out=parallel_out, workers=4)

    assert _lines(parallel_out) == _lines(serial_out)
    for field in ("total", "ran", "passed", "failures", "truncated"):
        assert parallel[field] == serial[field]
    # the merged semantic traces: reference canonical trace per entry
    assert parallel["canons"] == serial["canons"]
    assert len(serial["canons"]) == len(ENTRIES)
    for summary, workers in ((serial, 1), (parallel, 4)):
        report = summary["report"]
        assert report.workers == workers
        assert report.executed == NCELLS > len(ENTRIES)
        assert len(report.shards) == workers


# ----------------------------------------------------------- warm cache
def test_warm_cache_skips_every_entry(tmp_path):
    entries = ENTRIES[:4]
    cache = ResultCache(str(tmp_path / "cache"))
    cold = run_corpus(entries, workers=2, cache=cache)
    assert cold["report"].executed == len(cold["report"].results) > 0
    # warm: in-process this time — the cache is shared, not per-path
    warm = run_corpus(entries, cache=cache)
    assert warm["report"].executed == 0
    assert warm["report"].cached == len(cold["report"].results)
    assert warm["canons"] == cold["canons"]
    assert warm["passed"] == cold["passed"]


# ------------------------------------------------------ shrunk artifacts
def _has_collective(program):
    return any(r.kind == "collective" for r in program.rounds)


def _inject_collective_failure(monkeypatch):
    """Replace the oracle with a deterministic structural predicate: any
    program containing a collective round 'fails' — in ``judge`` (the
    verdict on the batch's results, decided parent-side) and in the
    ``differential`` the shrinker re-checks candidates with."""

    def fake_differential(program, matrix=None, **kwargs):
        return DifferentialResult(program=program, ok=not _has_collective(program))

    monkeypatch.setattr(
        "repro.conformance.executor.judge",
        lambda program, results: (fake_differential(program), None),
    )
    monkeypatch.setattr(
        "repro.conformance.corpus.differential", fake_differential
    )


def test_shrunk_repros_identical_serial_vs_parallel(tmp_path, monkeypatch):
    _inject_collective_failure(monkeypatch)
    entries = [(11, "pt2pt"), (21, "collective")]
    assert _has_collective(generate(21, profile="collective"))

    serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
    serial = run_corpus(entries, artifacts_dir=str(serial_dir),
                        shrink_budget=40)
    parallel = run_corpus(entries, artifacts_dir=str(parallel_dir),
                          shrink_budget=40, workers=4)

    assert serial["failures"] and parallel["failures"]
    assert [f[:2] for f in parallel["failures"]] == \
        [f[:2] for f in serial["failures"]]

    serial_files = sorted(p.name for p in serial_dir.iterdir())
    parallel_files = sorted(p.name for p in parallel_dir.iterdir())
    assert parallel_files == serial_files
    assert serial_files == ["repro_collective_seed21.json",
                            "repro_collective_seed21.py"]
    for name in serial_files:
        assert (parallel_dir / name).read_bytes() == \
            (serial_dir / name).read_bytes()
