"""Collective-operation tests, parametrized over every device."""

import numpy as np
import pytest

from repro.mpi import World
from repro.mpi import coll
from tests.mpi.conftest import run_world


# ---------------------------------------------------------------------------
# bcast
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 8])
def test_bcast_array(any_device, nprocs):
    platform, device = any_device

    def main(comm):
        buf = np.arange(32, dtype=np.float64) if comm.rank == 0 else np.zeros(32)
        yield from comm.bcast(buf, root=0)
        return buf.copy()

    res = run_world(nprocs, main, platform, device)
    for r in res:
        assert np.array_equal(r, np.arange(32, dtype=np.float64))


def test_bcast_nonzero_root(any_device):
    platform, device = any_device

    def main(comm):
        buf = np.full(8, comm.rank, dtype=np.int32)
        yield from comm.bcast(buf, root=2)
        return buf.copy()

    res = run_world(4, main, platform, device)
    for r in res:
        assert np.all(r == 2)


def test_bcast_bytes_buffer(any_device):
    platform, device = any_device

    def main(comm):
        buf = bytearray(b"root-data") if comm.rank == 0 else bytearray(9)
        yield from comm.bcast(buf, root=0)
        return bytes(buf)

    assert set(run_world(3, main, platform, device)) == {b"root-data"}


def test_bcast_large_payload(any_device):
    platform, device = any_device
    n = 32768

    def main(comm):
        buf = np.arange(n, dtype=np.float64) if comm.rank == 0 else np.zeros(n)
        yield from comm.bcast(buf, root=0)
        return float(buf.sum())

    res = run_world(4, main, platform, device)
    assert all(v == float(np.arange(n).sum()) for v in res)


def test_hardware_bcast_faster_than_pt2pt():
    """Figure 7's mechanism: the low-latency device's hardware broadcast
    beats MPICH's point-to-point broadcast, and the gap grows with P."""

    def main(comm):
        buf = np.zeros(128, dtype=np.float64)
        yield from comm.barrier()
        t0 = comm.wtime()
        yield from comm.bcast(buf, root=0)
        yield from comm.barrier()
        return comm.wtime() - t0

    def bcast_time(device, nprocs):
        return max(run_world(nprocs, main, "meiko", device))

    for nprocs in (4, 16):
        hw = bcast_time("lowlatency", nprocs)
        sw = bcast_time("mpich", nprocs)
        assert hw < sw, f"hardware bcast {hw} not faster than pt2pt {sw} at P={nprocs}"


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", [2, 3, 7])
def test_barrier_synchronizes(any_device, nprocs):
    """No rank leaves the barrier before the last one has entered."""
    platform, device = any_device

    def main(comm):
        yield comm.endpoint.sim.timeout(100.0 * comm.rank)
        entered = comm.wtime()
        yield from comm.barrier()
        left = comm.wtime()
        return (entered, left)

    res = run_world(nprocs, main, platform, device)
    last_entry = max(t for t, _ in res)
    for _, left in res:
        assert left >= last_entry


# ---------------------------------------------------------------------------
# reduce / allreduce
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", [1, 2, 5, 8])
def test_reduce_sum(any_device, nprocs):
    platform, device = any_device

    def main(comm):
        local = np.full(4, float(comm.rank + 1))
        result = yield from comm.reduce(local, root=0)
        return None if result is None else result.copy()

    res = run_world(nprocs, main, platform, device)
    expected = np.full(4, sum(range(1, nprocs + 1)), dtype=float)
    assert np.array_equal(res[0], expected)
    assert all(r is None for r in res[1:])


def test_reduce_max_min(any_device):
    platform, device = any_device

    def main(comm):
        local = np.array([float(comm.rank), float(-comm.rank)])
        mx = yield from comm.reduce(local, root=0, op=coll.MAX)
        yield from comm.barrier()
        mn = yield from comm.reduce(local, root=0, op=coll.MIN)
        if comm.rank == 0:
            return (mx.tolist(), mn.tolist())

    res = run_world(4, main, platform, device)
    assert res[0] == ([3.0, 0.0], [0.0, -3.0])


def test_allreduce_everywhere(any_device):
    platform, device = any_device

    def main(comm):
        local = np.array([comm.rank + 1.0])
        result = yield from comm.allreduce(local)
        return float(result[0])

    res = run_world(5, main, platform, device)
    assert res == [15.0] * 5


def test_reduce_nonroot_gets_none_and_root_nonzero(any_device):
    platform, device = any_device

    def main(comm):
        result = yield from comm.reduce(np.ones(2), root=2)
        return result is not None

    res = run_world(4, main, platform, device)
    assert res == [False, False, True, False]


# ---------------------------------------------------------------------------
# gather / scatter / allgather / alltoall
# ---------------------------------------------------------------------------


def test_gather(any_device):
    platform, device = any_device

    def main(comm):
        out = yield from comm.gather(("rank", comm.rank), root=0)
        return out

    res = run_world(4, main, platform, device)
    assert res[0] == [("rank", i) for i in range(4)]
    assert res[1] is None


def test_scatter(any_device):
    platform, device = any_device

    def main(comm):
        chunks = [f"part{i}" for i in range(comm.size)] if comm.rank == 1 else None
        part = yield from comm.scatter(chunks, root=1)
        return part

    assert run_world(3, main, platform, device) == ["part0", "part1", "part2"]


def test_scatter_wrong_length_rejected(any_device):
    platform, device = any_device

    def main(comm):
        from repro.mpi.exceptions import MPIError

        if comm.size == 1:
            with pytest.raises(MPIError):
                yield from comm.scatter([1, 2], root=0)
        return True

    run_world(1, main, platform, device)


@pytest.mark.parametrize("nprocs", [1, 2, 4, 6])
def test_allgather(any_device, nprocs):
    platform, device = any_device

    def main(comm):
        out = yield from comm.allgather(comm.rank * 10)
        return out

    res = run_world(nprocs, main, platform, device)
    for r in res:
        assert r == [i * 10 for i in range(nprocs)]


@pytest.mark.parametrize("nprocs", [2, 4])
def test_alltoall(any_device, nprocs):
    platform, device = any_device

    def main(comm):
        objs = [(comm.rank, dst) for dst in range(comm.size)]
        out = yield from comm.alltoall(objs)
        return out

    res = run_world(nprocs, main, platform, device)
    for rank, r in enumerate(res):
        assert r == [(src, rank) for src in range(nprocs)]


# ---------------------------------------------------------------------------
# communicator management
# ---------------------------------------------------------------------------


def test_dup_isolates_traffic(any_device):
    """A message on the dup'ed communicator must not match a receive on
    the original, even with identical (source, tag)."""
    platform, device = any_device

    def main(comm):
        comm2 = yield from comm.dup()
        assert comm2.context_id != comm.context_id
        if comm.rank == 0:
            yield from comm2.send(b"on-dup", dest=1, tag=1)
            yield from comm.send(b"on-world", dest=1, tag=1)
        else:
            data, _ = yield from comm.recv(source=0, tag=1)
            data2, _ = yield from comm2.recv(source=0, tag=1)
            return (bytes(data), bytes(data2))

    assert run_world(2, main, platform, device)[1] == (b"on-world", b"on-dup")


def test_split_into_halves(any_device):
    platform, device = any_device

    def main(comm):
        color = comm.rank % 2
        sub = yield from comm.split(color, key=comm.rank)
        # exchange within the subcommunicator
        local = np.array([float(comm.rank)])
        result = yield from sub.allreduce(local)
        return (sub.rank, sub.size, float(result[0]))

    res = run_world(4, main, platform, device)
    # evens: world ranks 0,2 -> sum 2; odds: 1,3 -> sum 4
    assert res[0] == (0, 2, 2.0)
    assert res[2] == (1, 2, 2.0)
    assert res[1] == (0, 2, 4.0)
    assert res[3] == (1, 2, 4.0)


def test_split_undefined_color(any_device):
    platform, device = any_device

    def main(comm):
        color = None if comm.rank == 0 else 7
        sub = yield from comm.split(color)
        if sub is None:
            return None
        return (sub.rank, sub.size)

    res = run_world(3, main, platform, device)
    assert res[0] is None
    assert res[1] == (0, 2)
    assert res[2] == (1, 2)


def test_split_key_orders_ranks(any_device):
    platform, device = any_device

    def main(comm):
        # reverse the ordering via the key
        sub = yield from comm.split(0, key=-comm.rank)
        return sub.rank

    res = run_world(3, main, platform, device)
    assert res == [2, 1, 0]


def test_wildcard_recv_does_not_steal_collective_traffic(any_device):
    """An outstanding ANY_SOURCE/ANY_TAG irecv must not intercept
    a concurrent broadcast's internal messages."""
    platform, device = any_device

    def main(comm):
        req = yield from comm.irecv()  # wildcard, matched only at the end
        buf = np.full(4, comm.rank, dtype=np.float64)
        yield from comm.bcast(buf, root=0)
        if comm.rank == 0:
            yield from comm.send(b"direct", dest=1, tag=3)
            return buf.tolist()
        elif comm.rank == 1:
            status = yield from comm.wait(req)
            return (bytes(req.data), status.tag, buf.tolist())
        else:
            # cancel never-matched wildcard by sending to self? Simply
            # send the expected message from rank 0 only to rank 1; other
            # ranks leave the request pending and just return.
            return buf.tolist()

    res = run_world(3, main, platform, device)
    assert res[1][0] == b"direct"
    assert res[1][1] == 3
    assert res[1][2] == [0.0, 0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# scan / exscan / reduce_scatter — non-power-of-two and 1-rank edges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", [1, 2, 3, 5, 6])
def test_scan_prefix_sums(all_devices, nprocs):
    platform, device = all_devices

    def main(comm):
        local = np.full(4, float(comm.rank + 1))
        out = yield from comm.scan(local)
        return out.copy()

    res = run_world(nprocs, main, platform, device)
    for rank, out in enumerate(res):
        expect = sum(range(1, rank + 2))  # inclusive prefix of 1..rank+1
        assert np.array_equal(out, np.full(4, float(expect)))


@pytest.mark.parametrize("nprocs", [1, 3, 5])
def test_exscan_exclusive_prefix(all_devices, nprocs):
    platform, device = all_devices

    def main(comm):
        local = np.full(2, float(comm.rank + 1))
        out = yield from comm.exscan(local)
        return None if out is None else out.copy()

    res = run_world(nprocs, main, platform, device)
    assert res[0] is None  # MPI_Exscan is undefined at rank 0
    for rank in range(1, nprocs):
        expect = sum(range(1, rank + 1))  # exclusive prefix of 1..rank
        assert np.array_equal(res[rank], np.full(2, float(expect)))


def test_scan_max_operator(all_devices):
    platform, device = all_devices

    def main(comm):
        local = np.array([float((comm.rank * 3) % 5)])
        out = yield from comm.scan(local, op=coll.MAX)
        return float(out[0])

    res = run_world(5, main, platform, device)
    values = [(r * 3) % 5 for r in range(5)]
    assert res == [float(max(values[: i + 1])) for i in range(5)]


@pytest.mark.parametrize("nprocs", [1, 3, 5, 6])
def test_reduce_scatter_blocks(all_devices, nprocs):
    platform, device = all_devices
    block = 3

    def main(comm):
        send = np.arange(block * comm.size, dtype=np.float64) + comm.rank
        out = yield from comm.reduce_scatter(send)
        return out.copy()

    res = run_world(nprocs, main, platform, device)
    rank_sum = sum(range(nprocs))
    for rank, out in enumerate(res):
        base = np.arange(block * nprocs, dtype=np.float64) * nprocs + rank_sum
        assert np.array_equal(out, base[rank * block : (rank + 1) * block])


def test_reduce_scatter_single_element_blocks(all_devices):
    """nelems == nprocs: each rank's block is exactly one element."""
    platform, device = all_devices

    def main(comm):
        send = np.full(comm.size, float(comm.rank))
        out = yield from comm.reduce_scatter(send)
        return out.copy()

    res = run_world(3, main, platform, device)
    for out in res:
        assert np.array_equal(out, np.array([3.0]))  # 0+1+2
