"""Point-to-point semantics, parametrized over every device.

Every test runs on the low-latency Meiko device (SPARC matching), the
MPICH/tport device (Elan matching), and the TCP/UDP cluster devices on
both fabrics — the semantics must be identical even though the
protocols differ completely.
"""

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, PROC_NULL, World
from repro.mpi.exceptions import BufferError_, MPIError, TruncationError
from tests.mpi.conftest import run_world


# ---------------------------------------------------------------------------
# basic delivery
# ---------------------------------------------------------------------------


def test_send_recv_bytes(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(b"payload", dest=1, tag=3)
        else:
            data, status = yield from comm.recv(source=0, tag=3)
            return (bytes(data), status.source, status.tag, status.count_bytes)

    res = run_world(2, main, platform, device)
    assert res[1] == (b"payload", 0, 3, 7)


def test_send_recv_numpy_array(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(np.arange(16, dtype=np.float64), dest=1)
        else:
            buf = np.zeros(16, dtype=np.float64)
            _, status = yield from comm.recv(source=0, buf=buf)
            return buf.copy(), status.count_bytes

    res = run_world(2, main, platform, device)
    buf, nbytes = res[1]
    assert np.array_equal(buf, np.arange(16, dtype=np.float64))
    assert nbytes == 128


@pytest.mark.parametrize("nbytes", [0, 1, 179, 180, 181, 200, 4096, 65536])
def test_all_protocol_sizes(any_device, nbytes):
    """Delivery is correct across the eager/rendezvous boundary."""
    platform, device = any_device
    payload = bytes(range(256)) * (nbytes // 256 + 1)
    payload = payload[:nbytes]

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(payload, dest=1, tag=1)
        else:
            data, status = yield from comm.recv(source=0, tag=1)
            return bytes(data)

    assert run_world(2, main, platform, device)[1] == payload


def test_any_source(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 2:
            seen = set()
            for _ in range(2):
                data, status = yield from comm.recv(source=ANY_SOURCE, tag=1)
                seen.add((status.source, bytes(data)))
            return seen
        else:
            yield from comm.send(bytes([comm.rank]), dest=2, tag=1)

    res = run_world(3, main, platform, device)
    assert res[2] == {(0, b"\x00"), (1, b"\x01")}


def test_any_tag_reports_actual(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(b"a", dest=1, tag=42)
        else:
            data, status = yield from comm.recv(source=0, tag=ANY_TAG)
            return status.tag

    assert run_world(2, main, platform, device)[1] == 42


def test_tag_selectivity(any_device):
    """A tagged receive must skip an earlier message with another tag."""
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(b"first", dest=1, tag=1)
            yield from comm.send(b"second", dest=1, tag=2)
        else:
            d2, _ = yield from comm.recv(source=0, tag=2)
            d1, _ = yield from comm.recv(source=0, tag=1)
            return (bytes(d1), bytes(d2))

    assert run_world(2, main, platform, device)[1] == (b"first", b"second")


def test_nonovertaking_same_tag(any_device):
    """Messages with identical envelopes arrive in send order."""
    platform, device = any_device
    N = 12

    def main(comm):
        if comm.rank == 0:
            for i in range(N):
                yield from comm.send(bytes([i]), dest=1, tag=1)
        else:
            out = []
            for _ in range(N):
                data, _ = yield from comm.recv(source=0, tag=1)
                out.append(data[0])
            return out

    assert run_world(2, main, platform, device)[1] == list(range(N))


def test_nonovertaking_across_protocols(any_device):
    """Eager and rendezvous messages from one sender must not overtake."""
    platform, device = any_device
    sizes = [10, 5000, 20, 9000, 1]  # alternating eager / rendezvous

    def main(comm):
        if comm.rank == 0:
            for i, n in enumerate(sizes):
                yield from comm.send(bytes([i]) * n, dest=1, tag=7)
        else:
            out = []
            for n in sizes:
                data, st = yield from comm.recv(source=0, tag=7)
                out.append((st.count_bytes, data[0]))
            return out

    expected = [(n, i) for i, n in enumerate(sizes)]
    assert run_world(2, main, platform, device)[1] == expected


def test_unexpected_messages_buffered(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(b"early", dest=1, tag=1)
        else:
            # let the message arrive long before the receive is posted
            yield comm.endpoint.sim.timeout(2000.0)
            data, _ = yield from comm.recv(source=0, tag=1)
            return bytes(data)

    assert run_world(2, main, platform, device)[1] == b"early"


def test_bidirectional_simultaneous(any_device):
    """Head-to-head sends must not deadlock (eager buffering)."""
    platform, device = any_device

    def main(comm):
        other = 1 - comm.rank
        yield from comm.send(bytes([comm.rank]), dest=other, tag=1)
        data, _ = yield from comm.recv(source=other, tag=1)
        return data[0]

    assert run_world(2, main, platform, device) == [1, 0]


# ---------------------------------------------------------------------------
# nonblocking operations
# ---------------------------------------------------------------------------


def test_isend_irecv_waitall(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            reqs = []
            for i in range(4):
                r = yield from comm.isend(bytes([i]) * 8, dest=1, tag=i)
                reqs.append(r)
            yield from comm.waitall(reqs)
        else:
            reqs = []
            for i in range(4):
                r = yield from comm.irecv(source=0, tag=i)
                reqs.append(r)
            statuses = yield from comm.waitall(reqs)
            return [(r.data[0], s.tag) for r, s in zip(reqs, statuses)]

    assert run_world(2, main, platform, device)[1] == [(i, i) for i in range(4)]


def test_waitany_returns_a_completed_one(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield comm.endpoint.sim.timeout(500.0)
            yield from comm.send(b"late", dest=1, tag=2)
        elif comm.rank == 2:
            yield from comm.send(b"soon", dest=1, tag=1)
        else:
            r1 = yield from comm.irecv(source=0, tag=2)
            r2 = yield from comm.irecv(source=2, tag=1)
            idx, status = yield from comm.waitany([r1, r2])
            return (idx, status.source)

    res = run_world(3, main, platform, device)
    assert res[1] == (1, 2)  # the early sender completes first


def test_test_polls_without_blocking(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield comm.endpoint.sim.timeout(300.0)
            yield from comm.send(b"x", dest=1, tag=1)
        else:
            req = yield from comm.irecv(source=0, tag=1)
            flag, _ = yield from comm.test(req)
            polls = 0
            while not flag:
                polls += 1
                yield comm.endpoint.sim.timeout(50.0)
                flag, status = yield from comm.test(req)
            return polls > 0

    assert run_world(2, main, platform, device)[1] is True


def test_sendrecv(any_device):
    platform, device = any_device

    def main(comm):
        other = 1 - comm.rank
        data, status = yield from comm.sendrecv(
            bytes([comm.rank]) * 4, dest=other, source=other, sendtag=1, recvtag=1
        )
        return data[0]

    assert run_world(2, main, platform, device) == [1, 0]


# ---------------------------------------------------------------------------
# send modes
# ---------------------------------------------------------------------------


def test_ssend_completes_only_after_match(any_device):
    """MPI_Ssend must not complete before the receive is posted."""
    platform, device = any_device
    post_delay = 3000.0

    def main(comm):
        if comm.rank == 0:
            t0 = comm.wtime()
            yield from comm.ssend(b"sync", dest=1, tag=1)
            return comm.wtime() - t0
        else:
            yield comm.endpoint.sim.timeout(post_delay)
            data, _ = yield from comm.recv(source=0, tag=1)
            return bytes(data)

    res = run_world(2, main, platform, device)
    assert res[0] >= post_delay * 0.9  # sender waited for the match
    assert res[1] == b"sync"


def test_standard_send_small_completes_before_match(any_device):
    """A small standard send is buffered: it completes long before the
    receive is posted (the eager path the paper optimizes)."""
    platform, device = any_device
    post_delay = 5000.0

    def main(comm):
        if comm.rank == 0:
            t0 = comm.wtime()
            yield from comm.send(b"eager", dest=1, tag=1)
            return comm.wtime() - t0
        else:
            yield comm.endpoint.sim.timeout(post_delay)
            data, _ = yield from comm.recv(source=0, tag=1)

    res = run_world(2, main, platform, device)
    assert res[0] < post_delay / 2


def test_ssend_large_rendezvous(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield from comm.ssend(bytes(10000), dest=1, tag=1)
        else:
            data, st = yield from comm.recv(source=0, tag=1)
            return st.count_bytes

    assert run_world(2, main, platform, device)[1] == 10000


def test_bsend_requires_attached_buffer(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            with pytest.raises(BufferError_):
                yield from comm.bsend(b"x" * 64, dest=1, tag=1)
            yield from comm.send(b"done", dest=1, tag=2)
        else:
            yield from comm.recv(source=0, tag=2)

    run_world(2, main, platform, device)


def test_bsend_completes_locally(any_device):
    platform, device = any_device
    post_delay = 5000.0

    def main(comm):
        if comm.rank == 0:
            comm.buffer_attach(4096)
            t0 = comm.wtime()
            yield from comm.bsend(bytes(1000), dest=1, tag=1)
            elapsed = comm.wtime() - t0
            return elapsed
        else:
            yield comm.endpoint.sim.timeout(post_delay)
            data, st = yield from comm.recv(source=0, tag=1)
            return st.count_bytes

    res = run_world(2, main, platform, device)
    assert res[0] < post_delay / 2  # completed locally
    assert res[1] == 1000


def test_bsend_buffer_exhaustion(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            comm.buffer_attach(100)
            with pytest.raises(BufferError_):
                yield from comm.bsend(bytes(200), dest=1, tag=1)
            yield from comm.send(b"done", dest=1, tag=2)
        else:
            yield from comm.recv(source=0, tag=2)

    run_world(2, main, platform, device)


def test_rsend_with_posted_receive(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            # wait long enough that the receive is certainly posted
            yield comm.endpoint.sim.timeout(1000.0)
            yield from comm.rsend(b"ready", dest=1, tag=1)
        else:
            data, _ = yield from comm.recv(source=0, tag=1)
            return bytes(data)

    assert run_world(2, main, platform, device)[1] == b"ready"


def test_truncation_error(any_device):
    """Too large for the receive buffer, both eager and — at 65 536 B,
    above every cell's eager threshold — on the rendezvous path, where
    the payload lands after the match."""
    platform, device = any_device

    def main(comm, nbytes):
        if comm.rank == 0:
            yield from comm.send(bytes(nbytes), dest=1, tag=1)
        else:
            buf = np.zeros(4, dtype=np.uint8)  # too small
            with pytest.raises(TruncationError):
                yield from comm.recv(source=0, tag=1, buf=buf)

    for nbytes in (64, 65536):
        run_world(2, main, platform, device, nbytes)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def test_probe_then_recv(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(bytes(37), dest=1, tag=9)
        else:
            status = yield from comm.probe(source=0, tag=9)
            data, _ = yield from comm.recv(source=status.source, tag=status.tag)
            return (status.count_bytes, len(data))

    assert run_world(2, main, platform, device)[1] == (37, 37)


def test_iprobe_no_message(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 1:
            flag, status = yield from comm.iprobe(source=0, tag=1)
            assert not flag and status is None
            yield from comm.recv(source=0, tag=2)
        else:
            yield from comm.send(b"x", dest=1, tag=2)

    run_world(2, main, platform, device)


def test_iprobe_sees_pending(any_device):
    platform, device = any_device

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(b"abc", dest=1, tag=5)
        else:
            yield comm.endpoint.sim.timeout(2000.0)
            flag, status = yield from comm.iprobe(source=ANY_SOURCE, tag=ANY_TAG)
            assert flag
            data, _ = yield from comm.recv(source=status.source, tag=status.tag)
            return (status.source, status.tag, status.count_bytes)

    assert run_world(2, main, platform, device)[1] == (0, 5, 3)


# ---------------------------------------------------------------------------
# PROC_NULL / validation
# ---------------------------------------------------------------------------


def test_proc_null_send_recv(any_device):
    platform, device = any_device

    def main(comm):
        yield from comm.send(b"void", dest=PROC_NULL, tag=1)
        data, status = yield from comm.recv(source=PROC_NULL, tag=1)
        return (data, status.source, status.count_bytes)

    res = run_world(1, main, platform, device)
    assert res[0] == (None, PROC_NULL, 0)


def test_invalid_ranks_rejected(any_device):
    platform, device = any_device

    def main(comm):
        from repro.mpi.exceptions import CommunicatorError

        with pytest.raises(CommunicatorError):
            yield from comm.send(b"x", dest=5, tag=1)
        with pytest.raises(CommunicatorError):
            yield from comm.recv(source=-7, tag=1)
        with pytest.raises(MPIError):
            yield from comm.send(b"x", dest=1, tag=-2)
        yield from comm.send(b"fin", dest=1 - comm.rank, tag=0)
        yield from comm.recv(source=1 - comm.rank, tag=0)

    run_world(2, main, platform, device)


def test_flow_control_slot_reuse(any_device):
    """Many rapid sends to one receiver (single envelope slot on the
    low-latency device; tport buffering on MPICH) all arrive in order."""
    platform, device = any_device
    N = 20

    def main(comm):
        if comm.rank == 0:
            reqs = []
            for i in range(N):
                r = yield from comm.isend(bytes([i]) * 16, dest=1, tag=1)
                reqs.append(r)
            yield from comm.waitall(reqs)
        else:
            yield comm.endpoint.sim.timeout(1000.0)
            out = []
            for _ in range(N):
                data, _ = yield from comm.recv(source=0, tag=1)
                out.append(data[0])
            return out

    assert run_world(2, main, platform, device)[1] == list(range(N))


def test_many_to_one_fan_in(any_device):
    platform, device = any_device
    P = 6

    def main(comm):
        if comm.rank == 0:
            total = 0
            for _ in range(P - 1):
                data, st = yield from comm.recv(source=ANY_SOURCE, tag=1)
                total += data[0]
            return total
        else:
            yield from comm.send(bytes([comm.rank]), dest=0, tag=1)

    assert run_world(P, main, platform, device)[0] == sum(range(1, P))
