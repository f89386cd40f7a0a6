"""Extension-feature tests: persistent requests, cancel, completion
variants, sendrecv_replace, prefix collectives."""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, World
from repro.mpi import coll
from repro.mpi.exceptions import MPIError
from tests.conftest import run_world


# ---------------------------------------------------------------------------
# persistent requests
# ---------------------------------------------------------------------------


def test_persistent_ring_reuse(meiko_device):
    """A Send_init/Recv_init pair restarted across iterations."""
    platform, device = meiko_device
    iters = 5

    def main(comm):
        other = 1 - comm.rank
        sendbuf = np.zeros(4, dtype=np.float64)
        recvbuf = np.zeros(4, dtype=np.float64)
        sreq = comm.send_init(sendbuf, dest=other, tag=3)
        rreq = comm.recv_init(recvbuf, source=other, tag=3)
        out = []
        for i in range(iters):
            sendbuf[:] = comm.rank * 100 + i
            yield from comm.startall([rreq, sreq])
            yield from comm.waitall([sreq, rreq])
            out.append(recvbuf[0])
        return out

    res = run_world(2, main, platform, device)
    assert res[0] == [100.0 + i for i in range(iters)]
    assert res[1] == [0.0 + i for i in range(iters)]


def test_persistent_inactive_wait_returns_immediately(meiko_device):
    platform, device = meiko_device

    def main(comm):
        req = comm.send_init(b"x", dest=1 - comm.rank, tag=1)
        status = yield from comm.wait(req)  # never started
        return status.count_bytes

    assert run_world(2, main, platform, device) == [0, 0]


def test_persistent_double_start_rejected(meiko_device):
    platform, device = meiko_device

    def main(comm):
        if comm.rank == 0:
            buf = np.zeros(2)
            req = comm.recv_init(buf, source=1, tag=1)
            yield from comm.start(req)
            with pytest.raises(MPIError):
                yield from comm.start(req)
            yield from comm.wait(req)
            return buf[0]
        else:
            yield from comm.send(np.array([7.0, 8.0]), dest=0, tag=1)

    assert run_world(2, main, platform, device)[0] == 7.0


def test_persistent_ssend_mode(meiko_device):
    platform, device = meiko_device
    delay = 3000.0

    def main(comm):
        if comm.rank == 0:
            req = comm.ssend_init(b"sync", dest=1, tag=1)
            t0 = comm.wtime()
            yield from comm.start(req)
            yield from comm.wait(req)
            return comm.wtime() - t0
        else:
            yield comm.endpoint.sim.timeout(delay)
            data, _ = yield from comm.recv(source=0, tag=1)
            return bytes(data)

    res = run_world(2, main, platform, device)
    assert res[0] >= delay * 0.9
    assert res[1] == b"sync"


# ---------------------------------------------------------------------------
# cancel
# ---------------------------------------------------------------------------


def test_cancel_unmatched_recv(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            req = yield from comm.irecv(source=1, tag=99)
            ok = yield from comm.cancel(req)
            assert ok
            status = yield from comm.wait(req)
            assert status.cancelled
            # the channel still works afterwards
            data, _ = yield from comm.recv(source=1, tag=1)
            return bytes(data)
        else:
            yield from comm.send(b"after-cancel", dest=0, tag=1)

    assert run_world(2, main, platform, device)[0] == b"after-cancel"


def test_cancel_matched_recv_fails(meiko_device):
    platform, device = meiko_device

    def main(comm):
        if comm.rank == 0:
            req = yield from comm.irecv(source=1, tag=1)
            yield from comm.wait(req)  # delivery happens
            ok = yield from comm.cancel(req)
            return ok
        else:
            yield from comm.send(b"x", dest=0, tag=1)

    assert run_world(2, main, platform, device)[0] is False


def test_cancel_send_rejected(meiko_device):
    platform, device = meiko_device

    def main(comm):
        if comm.rank == 0:
            req = yield from comm.isend(b"x", dest=1, tag=1)
            with pytest.raises(MPIError):
                yield from comm.cancel(req)
            yield from comm.wait(req)
        else:
            yield from comm.recv(source=0, tag=1)

    run_world(2, main, platform, device)


def test_cancelled_recv_does_not_steal_message(meiko_device):
    """A message sent after the cancel must match a *new* receive."""
    platform, device = meiko_device

    def main(comm):
        if comm.rank == 0:
            req = yield from comm.irecv(source=1, tag=5)
            yield from comm.cancel(req)
            yield from comm.send(b"go", dest=1, tag=0)  # unblock the sender
            data, _ = yield from comm.recv(source=1, tag=5)
            return bytes(data)
        else:
            yield from comm.recv(source=0, tag=0)
            yield from comm.send(b"fresh", dest=0, tag=5)

    assert run_world(2, main, platform, device)[0] == b"fresh"


# ---------------------------------------------------------------------------
# completion variants
# ---------------------------------------------------------------------------


def test_waitsome(meiko_device):
    platform, device = meiko_device

    def main(comm):
        if comm.rank == 0:
            r1 = yield from comm.irecv(source=1, tag=1)
            r2 = yield from comm.irecv(source=1, tag=2)
            r3 = yield from comm.irecv(source=1, tag=3)
            indices, statuses = yield from comm.waitsome([r1, r2, r3])
            # tags 1 and 2 were sent promptly, tag 3 much later
            yield from comm.waitall([r3])
            return sorted(indices)
        else:
            yield from comm.send(b"a", dest=0, tag=1)
            yield from comm.send(b"b", dest=0, tag=2)
            yield comm.endpoint.sim.timeout(50_000.0)
            yield from comm.send(b"c", dest=0, tag=3)

    got = run_world(2, main, platform, device)[0]
    assert got and set(got) <= {0, 1}


def test_testall_testany(meiko_device):
    platform, device = meiko_device

    def main(comm):
        if comm.rank == 0:
            r1 = yield from comm.irecv(source=1, tag=1)
            r2 = yield from comm.irecv(source=1, tag=2)
            flag, _ = yield from comm.testall([r1, r2])
            assert not flag  # nothing sent yet
            yield from comm.send(b"", dest=1, tag=0)
            # after the first message only, testany finds one
            found = False
            while not found:
                found, idx, status = yield from comm.testany([r1, r2])
                yield comm.endpoint.sim.timeout(20.0)
            assert idx == 0 and status.tag == 1
            yield from comm.waitall([r2])
            flag, statuses = yield from comm.testall([r1, r2])
            assert flag and [s.tag for s in statuses] == [1, 2]
            return True
        else:
            yield from comm.recv(source=0, tag=0)
            yield from comm.send(b"x", dest=0, tag=1)
            yield comm.endpoint.sim.timeout(5_000.0)
            yield from comm.send(b"y", dest=0, tag=2)

    assert run_world(2, main, platform, device)[0] is True


def test_sendrecv_replace(any_device):
    platform, device = any_device

    def main(comm):
        other = 1 - comm.rank
        buf = np.full(4, float(comm.rank))
        status = yield from comm.sendrecv_replace(buf, dest=other, source=other,
                                                  sendtag=1, recvtag=1)
        return buf.copy(), status.source

    res = run_world(2, main, platform, device)
    assert np.all(res[0][0] == 1.0) and res[0][1] == 1
    assert np.all(res[1][0] == 0.0) and res[1][1] == 0


# ---------------------------------------------------------------------------
# prefix collectives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", [1, 2, 5])
def test_scan(meiko_device, nprocs):
    platform, device = meiko_device

    def main(comm):
        local = np.array([float(comm.rank + 1)])
        result = yield from comm.scan(local)
        return float(result[0])

    res = run_world(nprocs, main, platform, device)
    assert res == [sum(range(1, r + 2)) for r in range(nprocs)]


def test_exscan(meiko_device):
    platform, device = meiko_device

    def main(comm):
        local = np.array([float(comm.rank + 1)])
        result = yield from comm.exscan(local)
        return None if result is None else float(result[0])

    res = run_world(4, main, platform, device)
    assert res == [None, 1.0, 3.0, 6.0]


def test_scan_prod(meiko_device):
    platform, device = meiko_device

    def main(comm):
        local = np.array([2.0])
        result = yield from comm.scan(local, op=coll.PROD)
        return float(result[0])

    assert run_world(3, main, platform, device) == [2.0, 4.0, 8.0]


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_reduce_scatter(meiko_device, nprocs):
    platform, device = meiko_device

    def main(comm):
        # every rank contributes [rank, rank, ...] over size blocks of 2
        local = np.full(comm.size * 2, float(comm.rank))
        mine = yield from comm.reduce_scatter(local)
        return mine.tolist()

    res = run_world(nprocs, main, platform, device)
    total = float(sum(range(nprocs)))
    for r in res:
        assert r == [total, total]


def test_reduce_scatter_indivisible_rejected(meiko_device):
    platform, device = meiko_device

    def main(comm):
        with pytest.raises(MPIError):
            yield from comm.reduce_scatter(np.zeros(3))
        yield from comm.barrier()

    run_world(2, main, platform, device)


# ---------------------------------------------------------------------------
# dynamic connection setup (handshake mesh)
# ---------------------------------------------------------------------------


def test_handshake_mesh_delivers_everything():
    """The dynamically connected mesh behaves identically to the static
    one (messages queued during setup drain in order)."""
    from repro.mpi.device.cluster import ClusterConfig

    def main(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        out = []
        for i in range(4):
            req = yield from comm.isend(bytes([comm.rank, i]) * 30, dest=right, tag=i)
            data, _ = yield from comm.recv(source=left, tag=i)
            yield from comm.wait(req)
            out.append(bytes(data))
        return out

    res = run_world(4, main, "atm", "tcp",
                    device_config=ClusterConfig(handshake=True))
    for rank in range(4):
        left = (rank - 1) % 4
        assert res[rank] == [bytes([left, i]) * 30 for i in range(4)]


def test_handshake_costs_show_on_first_message():
    """Dynamic setup pays the 3-way handshake on the first exchange —
    the cost the paper's static connections avoid."""
    from repro.mpi.device.cluster import ClusterConfig

    def main(comm):
        if comm.rank == 0:
            t0 = comm.wtime()
            yield from comm.send(b"x", dest=1, tag=1)
            yield from comm.recv(source=1, tag=2)
            first = comm.wtime() - t0
            t0 = comm.wtime()
            yield from comm.send(b"x", dest=1, tag=1)
            yield from comm.recv(source=1, tag=2)
            return first, comm.wtime() - t0
        else:
            for _ in range(2):
                data, _ = yield from comm.recv(source=0, tag=1)
                yield from comm.send(data, dest=0, tag=2)

    static = run_world(2, main, "atm", "tcp")[0]
    dynamic = run_world(2, main, "atm", "tcp",
                        device_config=ClusterConfig(handshake=True))[0]
    assert dynamic[0] > static[0] + 300.0  # handshake on the first RTT
    assert abs(dynamic[1] - static[1]) < 50.0  # steady state identical
