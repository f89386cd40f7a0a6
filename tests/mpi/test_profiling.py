"""Tests for the PMPI-style profiling wrapper."""

import numpy as np

from repro.mpi import PROC_NULL
from repro.mpi.profiling import profile
from tests.conftest import run_world


def test_counts_and_bytes(meiko_device):
    platform, device = meiko_device

    def main(comm):
        p = profile(comm)
        if comm.rank == 0:
            yield from p.send(bytes(100), dest=1, tag=1)
            yield from p.send(bytes(50), dest=1, tag=2)
            data, _ = yield from p.recv(source=1, tag=3)
            return (dict(p.stats.calls), p.stats.bytes_sent, p.stats.bytes_received)
        else:
            yield from comm.recv(source=0, tag=1)
            yield from comm.recv(source=0, tag=2)
            yield from comm.send(bytes(25), dest=0, tag=3)

    calls, sent, received = run_world(2, main, platform, device)[0]
    assert calls["send"] == 2
    assert calls["recv"] == 1
    assert sent == 150
    assert received == 25


def test_time_in_mpi_accumulates(meiko_device):
    platform, device = meiko_device

    def main(comm):
        p = profile(comm)
        if comm.rank == 0:
            yield from p.send(b"x", dest=1, tag=1)
            return p.stats.time_in_mpi
        else:
            yield comm.endpoint.sim.timeout(500.0)
            yield from comm.recv(source=0, tag=1)

    t = run_world(2, main, platform, device)[0]
    assert t > 0


def test_blocking_time_counted():
    """A receive that waits 5 ms shows ~5 ms inside MPI."""

    def main(comm):
        p = profile(comm)
        if comm.rank == 0:
            data, _ = yield from p.recv(source=1, tag=1)
            return p.stats.time_by_call["recv"]
        else:
            yield comm.endpoint.sim.timeout(5000.0)
            yield from comm.send(b"x", dest=0, tag=1)

    t = run_world(2, main)[0]
    assert t >= 4500.0


def test_collectives_tracked():
    def main(comm):
        p = profile(comm)
        buf = np.zeros(8) if comm.rank else np.ones(8)
        yield from p.bcast(buf, root=0)
        yield from p.barrier()
        result = yield from p.allreduce(np.ones(2))
        return (dict(p.stats.calls), float(result[0]))

    res = run_world(3, main)
    calls, total = res[0]
    assert calls == {"bcast": 1, "barrier": 1, "allreduce": 1}
    assert total == 3.0


def test_passthrough_attributes():
    def main(comm):
        p = profile(comm)
        yield comm.endpoint.sim.timeout(0)
        return (p.rank, p.size, p.context_id == comm.context_id)

    res = run_world(2, main)
    assert res[0] == (0, 2, True)
    assert res[1] == (1, 2, True)


def test_summary_renders():
    def main(comm):
        p = profile(comm)
        other = 1 - comm.rank
        yield from p.sendrecv(b"hi", dest=other, source=other)
        return p.stats.summary()

    text = run_world(2, main)[0]
    assert "sendrecv" in text and "MPI calls:" in text


def test_sends_to_proc_null_count_no_bytes():
    """Nothing leaves for MPI_PROC_NULL, so nothing is counted as sent."""

    def main(comm):
        p = profile(comm)
        other = 1 - comm.rank
        yield from p.send(bytes(64), dest=PROC_NULL)
        yield from p.sendrecv(bytes(32), dest=PROC_NULL, source=PROC_NULL)
        yield from p.sendrecv(bytes(16), dest=other, source=other)
        return p.stats.calls["send"], p.stats.calls["sendrecv"], p.stats.bytes_sent

    assert run_world(2, main) == [(1, 2, 16), (1, 2, 16)]
