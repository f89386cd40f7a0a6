"""Cancelled retransmission timers must never fire.

Before cancellable timers, every segment left a sleeping retransmit
process in the heap that woke at the RTO just to discover its data had
been ACKed.  Now the ACK cancels the timer outright; on a lossless
network the retransmit callback must never run at all.  The timer is
the stream engine's, so ``test_udp_rudp.py`` runs these on RUDP too.
"""

from repro.hw.cluster import ClusterMachine
from repro.sim import Simulator


def _pingpong(stream_pair, rounds=20, payload=512):
    sim = Simulator()
    m = ClusterMachine(sim, 2, network="ethernet")
    a, b = stream_pair(m)

    fires = []
    for conn in (a, b):
        orig = conn._on_retx_timer

        def counted(_event=None, _orig=orig, _conn=conn):
            fires.append(_conn.local_port)
            _orig(_event)

        conn._on_retx_timer = counted

    def side(conn, first):
        def gen(sim):
            data = bytes(payload)
            for _ in range(rounds):
                if first:
                    yield from conn.send(data)
                    yield from conn.recv_exact(payload)
                else:
                    yield from conn.recv_exact(payload)
                    yield from conn.send(data)

        return gen

    sim.process(side(a, True)(sim))
    sim.process(side(b, False)(sim))
    sim.run()
    return a, b, fires


def test_lossless_run_never_fires_retx_timer(stream_pair):
    a, b, fires = _pingpong(stream_pair)
    assert fires == [], "retransmit timer fired on a lossless network"
    assert a.retransmissions == 0
    assert b.retransmissions == 0
    assert a.error is None and b.error is None


def test_lossless_run_leaves_no_armed_timers(stream_pair):
    a, b, _ = _pingpong(stream_pair, rounds=5)
    for conn in (a, b):
        assert conn._retx_timer is None
        timer = conn._ack_timer
        assert timer is None or timer._cancelled or timer.processed
