"""What a ``repro`` command pays before it knows whether it will simulate.

numpy is 150 of the 180 ms a cold ``import repro.cli`` used to cost, and
the MPI library, the machines and the stacks come on top; none of it is
needed to parse arguments, build cells, read a warm cache and format
tables.  Every check here runs in a fresh interpreter (``sys.modules`` of
the test process proves nothing) and asserts on module *names*, never on
milliseconds: ``import repro.cli`` loads no simulator, the lazy
``repro.bench`` exports still resolve, and a command answered entirely
from the cache — or ``--help`` — ends with numpy never imported.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the stack: none of it may load before a cell has to run
HEAVY = ("numpy", "repro.mpi", "repro.hw", "repro.net", "repro.conformance",
         "repro.bench.harness", "repro.bench.chaos", "repro.apps", "repro.faults")


def _python(code: str, **env):
    """Run *code* in a fresh interpreter: the finished process."""
    proc = subprocess.run(
        [sys.executable, "-c", code], text=True, capture_output=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=SRC, **env))
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_the_cli_loads_no_simulator():
    loaded = _python(
        "import sys, repro.cli\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])").stdout
    assert loaded.strip() == "[]"


def test_lazy_bench_exports_still_resolve():
    out = _python(
        "import sys, repro.bench\n"
        "assert 'repro.bench.harness' not in sys.modules\n"
        "from repro.bench import mpi_pingpong_rtt, format_table\n"
        "from repro.bench import figures, harness\n"
        "assert mpi_pingpong_rtt is harness.mpi_pingpong_rtt\n"
        "names = sorted(repro.bench.__all__)\n"
        "assert all(callable(getattr(repro.bench, n)) for n in names)\n"
        "try:\n"
        "    repro.bench.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise SystemExit('a typo must stay an AttributeError')\n"
        "print(len(names), 'numpy' in sys.modules)").stdout
    # the harness itself is light too: only running a driver loads numpy
    assert out.split() == ["11", "False"]


#: one figure with a crossover and one without, a loss sweep and a fuzz
#: seed: the three commands of the ledger's ``engine_pool``, cut down
COMMANDS = [
    ["sweep", "fig01", "fig02", "--workers", "2"],
    ["chaos", "--platforms", "ethernet", "--repeats", "2", "--workers", "2"],
    ["fuzz", "--seeds", "1", "--workers", "2"],
]

RUN = (
    "import io, sys\n"
    "from repro.cli import main\n"
    f"for argv in {COMMANDS!r}:\n"
    "    assert main(argv, out=io.StringIO()) == 0\n"
    "print('numpy' in sys.modules, 'repro.mpi' in sys.modules)")


def test_a_fully_cached_command_never_loads_the_stack(tmp_path):
    cold = _python(RUN, REPRO_CACHE_DIR=str(tmp_path))
    assert cold.stdout.split() == ["True", "True"]  # it simulated: of course
    assert "executed=0" not in cold.stderr

    warm = _python(RUN, REPRO_CACHE_DIR=str(tmp_path))
    assert warm.stderr.count("executed=0") == 2  # sweep and fuzz print stats
    assert warm.stdout.split() == ["False", "False"]


def test_help_never_loads_the_stack():
    out = _python(
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "for argv in (['--help'], ['sweep', '--help'], ['fuzz', '--help']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            main(argv)\n"
        "        except SystemExit as done:\n"
        "            assert done.code == 0\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])").stdout
    assert out.strip() == "[]"
