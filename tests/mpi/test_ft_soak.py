"""The chaos-soak gate: pinned mid-run crash through ULFM recovery.

The acceptance scenario for survivable MPI: 8 ranks, rank 3 crashes
mid-relaxation (t=900 µs on the paper-era platforms, t=40 µs on the
modern fabrics, where the whole job runs in ~90 µs), and on **every**
device cell the survivors detect, revoke, shrink, agree, restore the
last committed checkpoint, and finish with the right answer — with a
byte-identical recovery trace (``trace_sha``) across repeated seeded
runs *and* across revisions (the pinned ``SOAK_TRACE_SHA`` goldens).
This is what the ``chaos-soak`` CI job runs via ``repro chaos --soak``.
"""

import io
import re

import pytest

from repro.bench.chaos import format_soak, soak_cell, soak_sweep
from repro.mpi.ft import DETECT_DELAY
from repro.platforms import DEVICE_MATRIX, device_key

PHASES = ("crash", "detect", "revoke", "shrink", "agree")

#: golden recovery-trace digests of the pinned soak scenario, one per
#: matrix cell.  A digest shift means the recovery path's event
#: sequence changed — bump deliberately, never accidentally.
SOAK_TRACE_SHA = {
    "meiko-lowlatency": "1e9fa1699053de1d93f1c21375149a2d3e3060ab4e9cb90c168783ba87fe251e",
    "meiko-mpich": "7f4e795140af3ad21d80b6edd62d144c04a8b60b87f8b2ade10515e1ff84bf90",
    "atm-tcp": "03ab96dcbbde56fa15e4ae690537d43cbb74ceccc49aa394b761ab9d24829a0d",
    "atm-udp": "b876a930efff6c1d1b789be82747c3928527b10c167f61b56a1c6e82dacf45f8",
    "ethernet-tcp": "74b50a231869f77b9c2b7e8fdc16a4b5118f28f6da89b3022936cc3df46beada",
    "ethernet-udp": "7ce63bd2b2d02b5b91c09c969c9ed9a5bd750526b2bd7779a543d2ff50d566f2",
    "modern-rdma": "df5945e07ff072507477afaa1ee94d297223a15ba9535cf87266cecfbb409246",
    "modern-cxl": "b1610aa1d07e1593a11a4be8451133cc0dfd8764932c1f3e12f3a8a5511f1a7d",
}


def test_soak_cell_recovers(all_devices):
    platform, device = all_devices
    row = soak_cell(platform, device)
    assert row["outcome"] == "ok", row["diagnostic"]
    assert row["recoveries"] >= 1
    assert row["survivors"] == 7  # 8 ranks, one dead
    tl = row["timeline"]
    assert set(PHASES) <= set(tl)
    assert tl["crash"] <= tl["detect"] <= tl["revoke"] <= tl["shrink"] \
        <= tl["agree"]
    # detection latency is the platform's failure-detector delay
    assert row["detect_us"] == pytest.approx(DETECT_DELAY[platform])
    assert row["recover_us"] > 0
    assert re.fullmatch(r"[0-9a-f]{64}", row["trace_sha"])
    assert row["trace_sha"] == SOAK_TRACE_SHA[row["cell"]]


def test_soak_cell_is_deterministic(all_devices):
    platform, device = all_devices
    assert soak_cell(platform, device) == soak_cell(platform, device)


def test_soak_sweep_gate():
    """The gate itself: every cell of the device matrix recovers, and
    every repetition reproduces the recovery trace byte-for-byte."""
    rows = soak_sweep(repeat=2)
    assert len(rows) == len(DEVICE_MATRIX)
    assert {r["cell"] for r in rows} == {
        device_key(p, d) for p, d in DEVICE_MATRIX
    }
    for row in rows:
        assert row["outcome"] == "ok", (row["cell"], row["diagnostic"])
        assert row["deterministic"], row["cell"]
        assert row["trace_sha"] == SOAK_TRACE_SHA[row["cell"]], row["cell"]


def test_soak_sweep_parallel_matches_serial():
    """One path: forked workers only move where the cells execute (eight
    runs, so that two workers are forked at all)."""
    cells = [("meiko", "lowlatency"), ("atm", "udp"), ("ethernet", "tcp"),
             ("modern", "cxl")]
    serial = soak_sweep(cells=cells, repeat=2)
    par = soak_sweep(cells=cells, repeat=2, workers=2)
    assert par == serial


def test_traced_soak_trace_is_byte_identical_across_workers(tmp_path):
    from repro.obs import EventBus
    from repro.obs.export import write_trace

    cells = [("meiko", "lowlatency"), ("atm", "udp"), ("ethernet", "tcp"),
             ("modern", "cxl")]
    for workers in (None, 2):
        bus = EventBus()
        rows = soak_sweep(cells=cells, repeat=2, obs=bus, workers=workers)
        assert all(r["deterministic"] for r in rows)
        write_trace(bus, str(tmp_path / f"soak-{workers}.json"))
    in_process = (tmp_path / "soak-None.json").read_bytes()
    assert len(in_process) > 1000
    assert (tmp_path / "soak-2.json").read_bytes() == in_process


def test_format_soak_renders_every_cell():
    rows = soak_sweep(cells=[("meiko", "lowlatency")], repeat=1)
    text = format_soak(rows)
    assert "meiko-lowlatency" in text
    assert "ok" in text
    assert rows[0]["trace_sha"][:12] in text


def test_traced_sweep_exports_a_valid_chrome_trace(tmp_path):
    """Balanced B/E spans even though the victim's generator dies
    mid-call: its open spans must be closed inside its own run, not
    leak from the garbage collector into a later cell's trace."""
    import json

    from repro.obs import EventBus
    from repro.obs.export import write_trace
    from repro.obs.schema import validate_chrome_trace

    bus = EventBus()
    soak_sweep(cells=[("meiko", "lowlatency"), ("meiko", "mpich")],
               repeat=1, obs=bus)
    path = tmp_path / "soak.json"
    write_trace(bus, str(path))
    assert validate_chrome_trace(json.loads(path.read_text())) == []


def test_cli_soak_smoke(tmp_path):
    from repro.cli import main

    trace = tmp_path / "soak-trace.json"
    out = io.StringIO()
    rc = main(["chaos", "--soak", "--cells", "meiko-lowlatency",
               "--trace", str(trace)], out=out)
    assert rc == 0
    assert "meiko-lowlatency" in out.getvalue()
    assert trace.exists()


def test_cli_soak_fails_loudly_on_bad_cell():
    from repro.cli import main

    rc = main(["chaos", "--soak", "--cells", "nonexistent-cell"],
              out=io.StringIO())
    assert rc != 0


@pytest.fixture()
def built_worlds(monkeypatch):
    """Every ``World`` built while the test runs, in order."""
    from repro.mpi import World

    built = []
    init = World.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(World, "__init__", recording_init)
    return built


def test_witness_reps_and_untraced_soaks_build_no_bus(built_worlds):
    """The digest comes from ``world.ft.log``, so only the traced first
    rep of a traced sweep attaches a bus; witnesses and every run of an
    untraced sweep run on the bus-free path."""
    from repro.obs import EventBus

    cells = [("meiko", "lowlatency"), ("modern", "cxl")]
    untraced = soak_sweep(cells=cells, repeat=2)
    assert [w.sim.obs for w in built_worlds] == [None] * 4
    built_worlds.clear()
    traced = soak_sweep(cells=cells, repeat=2, obs=EventBus())
    assert [w.sim.obs is not None for w in built_worlds] == [True, False, True, False]
    assert traced == untraced
    assert [r["trace_sha"] for r in traced] == [SOAK_TRACE_SHA[device_key(*c)] for c in cells]


def test_ft_log_is_the_buses_ft_slice(built_worlds):
    from repro.obs import EventBus

    bus = EventBus()
    row = soak_cell("atm", "udp", obs=bus)
    (world,) = built_worlds
    assert world.ft.log == [(e.t, e.kind, e.rank, e.detail)
                            for e in bus.events if e.layer == "ft"]
    kinds = {kind for _, kind, _, _ in world.ft.log}
    assert {"failure.crash", "failure.detect", "comm.revoke", "comm.shrink",
            "agree", "checkpoint.save", "checkpoint.commit"} <= kinds
    assert row["trace_sha"] == SOAK_TRACE_SHA["atm-udp"]
