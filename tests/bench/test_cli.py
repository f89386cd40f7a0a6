"""CLI tests (python -m repro ...)."""

import hashlib
import io
import json
import re

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info_lists_all_configurations():
    code, text = run_cli("info")
    assert code == 0
    for token in ("meiko", "lowlatency", "mpich", "ethernet", "atm", "tcp", "udp"):
        assert token in text


def test_pingpong_table():
    code, text = run_cli("pingpong", "--platform", "meiko", "--sizes", "1,64")
    assert code == 0
    assert "RTT (us)" in text
    assert "64" in text


def test_pingpong_default_device_per_platform():
    code, text = run_cli("pingpong", "--sizes", "1")
    assert code == 0
    assert "lowlatency" in text


def test_bandwidth_table():
    code, text = run_cli("bandwidth", "--platform", "meiko", "--sizes", "65536")
    assert code == 0
    assert "MB/s" in text


def test_figure_with_chart():
    code, text = run_cli("figure", "fig02", "--chart")
    assert code == 0
    assert "Meiko tport" in text
    assert "o=MPI(mpich)" in text  # the chart legend


def test_figure_table1():
    code, text = run_cli("figure", "table1")
    assert code == 0
    assert "Read for msg type" in text


def test_figure_fig01_reports_crossover():
    code, text = run_cli("figure", "fig01")
    assert code == 0
    assert "crossover" in text


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        run_cli("figure", "fig99")


def test_sweep_matches_figure_output(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    _, figure_text = run_cli("figure", "fig02")
    code, sweep_text = run_cli("sweep", "fig02", "--workers", "2")
    assert code == 0
    assert sweep_text == figure_text  # engine stats go to stderr only


def test_sweep_rejects_unknown_figure():
    code, text = run_cli("sweep", "fig99")
    assert code == 2
    assert "unknown figure" in text


@pytest.mark.parametrize("app", ["linsolve", "matmul", "nbody", "jacobi"])
def test_apps_verify(app):
    code, text = run_cli("app", app, "--nprocs", "2", "--size", "8")
    assert code == 0
    assert "verification OK" in text


# ---------------------------------------------------------------------------
# The simulating commands are "build cells -> evaluate -> format" (the
# cells build the worlds); what they print and trace is pinned to what the
# hand-rolled commands printed before.  Regenerate only on a deliberate
# change of simulated numbers or wording.
# ---------------------------------------------------------------------------

STDOUT_AT_PARENT = {
    'info': (
        'Simulated platforms (paper: meiko 104/210; clusters 925/1065 + MPI overheads)\n'
        'platform      device  1B RTT (us)\n'
        '---------------------------------\n'
        '   meiko  lowlatency        104.1\n'
        '   meiko       mpich        208.4\n'
        '     atm         tcp       1647.5\n'
        '     atm         udp       1170.3\n'
        'ethernet         tcp       1308.9\n'
        'ethernet         udp       1082.5\n'
        '  modern        rdma        2.806\n'
        '  modern         cxl        2.563\n'
    ),
    'pingpong --platform meiko --sizes 1,64,256': (
        'MPI ping-pong on meiko/lowlatency\n'
        'bytes  RTT (us)\n'
        '---------------\n'
        '    1     104.1\n'
        '   64     123.6\n'
        '  256     171.0\n'
    ),
    'pingpong --platform ethernet --device udp --sizes 1,1024': (
        'MPI ping-pong on ethernet/udp\n'
        'bytes  RTT (us)\n'
        '---------------\n'
        '    1    1082.5\n'
        ' 1024    2821.6\n'
    ),
    'bandwidth --platform meiko --sizes 4096,65536': (
        'MPI bandwidth on meiko/lowlatency\n'
        'bytes   MB/s\n'
        '------------\n'
        ' 4096  17.36\n'
        '65536  36.18\n'
    ),
    'bandwidth --platform modern --device cxl --sizes 65536': (
        'MPI bandwidth on modern/cxl\n'
        'bytes     MB/s\n'
        '--------------\n'
        '65536  11076.4\n'
    ),
    'app linsolve --nprocs 2 --size 8': (
        'linsolve on meiko/lowlatency x2: 545.8 us simulated, verification OK\n'
    ),
    'app nbody --platform atm --nprocs 4': (
        'nbody on atm/tcp x4: 5258.2 us simulated, verification OK\n'
    ),
    'app matmul --platform modern --device cxl --nprocs 2 --size 8': (
        'matmul on modern/cxl x2: 18.6 us simulated, verification OK\n'
    ),
    'app jacobi --platform meiko --device mpich --nprocs 2 --size 8': (
        'jacobi on meiko/mpich x2: 2532.1 us simulated, verification OK\n'
    ),
    'phases --platform ethernet --sizes 1,16384': (
        '1-byte ping-pong on ethernet/tcp (envelope/match/data us, paper Table 1):\n'
        ' src->dst   tag    bytes  proto   envelope      match       data      total  flags\n'
        '----------------------------------------------------------------------------------\n'
        '   0->1        1        1  eager     621.12      35.00       0.00     656.12  \n'
        '   1->0        2        1  eager     611.12      35.00       0.00     646.12  \n'
        '\n'
        '16384-byte ping-pong on ethernet/tcp (envelope/match/data us, paper Table 1):\n'
        ' src->dst   tag    bytes  proto   envelope      match       data      total  flags\n'
        '----------------------------------------------------------------------------------\n'
        '   0->1        1    16384  eager   15519.37      35.00       0.00   15554.37  \n'
        '   1->0        2    16384  eager   15498.96      35.00       0.00   15533.96  \n'
        '\n'
    ),
    'phases --platform meiko --device mpich --sizes 180': (
        '180-byte ping-pong on meiko/mpich (envelope/match/data us, paper Table 1):\n'
        ' src->dst   tag    bytes  proto   envelope      match       data      total  flags\n'
        '----------------------------------------------------------------------------------\n'
        '   0->1        1      180  tport          ?          ?          ?          ?  \n'
        '   1->0        2      180  tport          ?          ?          ?          ?  \n'
        '\n'
    ),
    'figure table1': (
        'Table 1: MPI round-trip overheads with TCP (us)\n'
        '                      row     ATM   paper  Ethernet  paper\n'
        '----------------------------------------------------------\n'
        '1 byte round-trip latency  1063.2  1065.0     906.5  925.0\n'
        '    25 byte info overhead     3.7       5      35.7     45\n'
        '        Read for msg type      85      85        65     65\n'
        '        Read for envelope      85      85        65     65\n'
        '   Overheads for matching      35      35        35     35\n'
    ),
}


#: argv -> (run labels in order, event count, sha256 of the jsonl trace)
TRACES_AT_PARENT = {
    'pingpong --platform meiko --sizes 1,256': (
        ['pingpong/meiko/lowlatency/1B', 'pingpong/meiko/lowlatency/256B'],
        632, "5dac6cb2ecf7f4dba1ab4f74d03cf9dcd34a643f771cbae94f03d7b211248df0",
    ),
    'app linsolve --platform ethernet --nprocs 2 --size 8': (
        ['app/linsolve/ethernet/tcp'],
        451, "50df34bd3eb1e6f84b0d30341ae563d6ab0a42efb5d63c58fac7518dfcbfa69e",
    ),
    'phases --platform atm --device udp --sizes 1,16384': (
        ['phases/atm/udp/1B', 'phases/atm/udp/16384B'],
        310, "3099169eabd19e64f37ebd06411e6c3e4a102523f321654ac050db73f3357487",
    ),
}


@pytest.mark.parametrize("argv", sorted(STDOUT_AT_PARENT))
def test_stdout_is_byte_identical_to_the_hand_rolled_commands(argv):
    code, text = run_cli(*argv.split())
    assert code == 0
    assert text == STDOUT_AT_PARENT[argv]


def test_perf_prints_the_deterministic_event_count():
    code, text = run_cli("perf", "--workload", "ring_1k", "--quick", "--repeats", "2")
    assert code == 0
    assert re.fullmatch(
        r"ring_1k         37886 events  [ \d]{7}\d elided  [ \d]{7}\d carried  "
        r"[ \d]{4}\.\d{4} s  [ \d]{9} ev/s\n",
        text), text


def test_perf_rejects_unknown_workload():
    code, text = run_cli("perf", "--workload", "nope")
    assert code == 2
    assert "unknown workload" in text


def test_perf_profile_profiles_the_cell_path(tmp_path):
    raw = tmp_path / "solver.pstats"
    code, text = run_cli("perf", "--workload", "solver", "--quick", "--profile",
                         "--top", "60", "--profile-out", str(raw))
    assert code == 0
    assert "profile: solver (quick mode)" in text
    assert "run_cell" in text          # the region is inside the profile ...
    assert "_resume" in text           # ... and so is the kernel under it
    assert raw.stat().st_size > 0


@pytest.mark.parametrize("argv", sorted(TRACES_AT_PARENT))
def test_trace_files_carry_the_same_runs_and_events(argv, tmp_path):
    runs, events, sha = TRACES_AT_PARENT[argv]
    path = tmp_path / "trace.jsonl"
    code, text = run_cli(*argv.split(), "--trace", str(path),
                         "--trace-format", "jsonl")
    assert code == 0
    assert text.endswith(f"trace: {events} events -> {path} (jsonl)\n")
    data = path.read_bytes()
    seen = []
    for line in data.decode().splitlines():
        run = json.loads(line).get("run")
        if run not in seen:
            seen.append(run)
    assert seen == runs
    assert len(data.splitlines()) == events
    assert hashlib.sha256(data).hexdigest() == sha


def test_traced_command_prints_what_the_untraced_one_does(tmp_path):
    argv = ["pingpong", "--platform", "atm", "--device", "udp", "--sizes", "1,20000"]
    _, plain = run_cli(*argv)
    _, traced = run_cli(*argv, "--trace", str(tmp_path / "t.json"))
    assert traced.startswith(plain)
    assert traced[len(plain):].startswith("trace: ")


def test_consecutive_calls_print_what_fresh_parsers_print(tmp_path, monkeypatch):
    """main() parses with one parser per process; a call must not see
    the flags or subcommand of the call before it."""
    import repro.cli

    trace = str(tmp_path / "t.json")
    calls = [
        ["pingpong", "--platform", "meiko", "--sizes", "1", "--trace", trace],
        ["pingpong", "--platform", "meiko", "--sizes", "1"],
        ["app", "linsolve", "--nprocs", "2", "--size", "8", "--trace", trace,
         "--trace-format", "jsonl"],
        ["app", "linsolve", "--nprocs", "2", "--size", "8"],
        ["figure", "fig01"],
    ]
    cached = [run_cli(*argv) for argv in calls]
    assert repro.cli._parser() is repro.cli._parser()
    for argv in calls:
        assert vars(repro.cli._parser().parse_args(argv)) == vars(build_parser().parse_args(argv))
    monkeypatch.setattr(repro.cli, "_parser", build_parser)
    assert cached == [run_cli(*argv) for argv in calls]
    assert "trace:" not in cached[1][1] and "trace:" not in cached[3][1]


def test_cli_builds_no_world():
    """One execution path: commands build cells, cells build worlds."""
    import inspect

    import repro.cli

    assert "World(" not in inspect.getsource(repro.cli)
