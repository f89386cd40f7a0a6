"""MPI over kernel TCP: the paper's cluster implementation.

A full mesh of TCP connections (one per rank pair).  By default the
mesh is static and pre-established, exactly the setup the paper
measures — "connections are static, so connection setup time is not of
major importance".  With ``ClusterConfig(handshake=True)`` the mesh is
built with real 3-way handshakes at startup instead (the lower rank of
each pair actively connects to the higher rank's listener); MPI
operations issued before a pair's connection completes simply queue.
"""

from __future__ import annotations

from repro.mpi.device.cluster import StreamEndpoint
from repro.net.tcp import TcpLayer

__all__ = ["TcpEndpoint"]

#: TCP ports: the connection between ranks i and j uses BASE+j at i
_PORT_BASE = 30000
#: listener ports for handshake mode: rank r listens on BASE2 + r
_LISTEN_BASE = 31000


class TcpEndpoint(StreamEndpoint):
    """One rank's endpoint over per-peer TCP connections."""

    @classmethod
    def wire(cls, machine, endpoints) -> None:
        if endpoints and endpoints[0].config.handshake:
            cls._wire_handshake(machine, endpoints)
        else:
            super().wire(machine, endpoints)

    @staticmethod
    def _connect_pair_now(ep_i, ep_j) -> None:
        i, j = ep_i.world_rank, ep_j.world_rank
        conn_i, conn_j = TcpLayer.connect_pair(
            ep_i.kernel, ep_j.kernel, _PORT_BASE + j, _PORT_BASE + i
        )
        ep_i.attach_conn(j, conn_i)
        ep_j.attach_conn(i, conn_j)

    @classmethod
    def _wire_handshake(cls, machine, endpoints) -> None:
        """Dynamic mesh: the lower rank of each pair actively connects."""
        n = len(endpoints)
        listeners = {}
        # every rank except 0 listens (it accepts from all lower ranks)
        for ep in endpoints:
            if ep.world_rank > 0:
                listeners[ep.world_rank] = ep.kernel.tcp.listen(
                    _LISTEN_BASE + ep.world_rank
                )

        def connector(ep_i, j):
            conn = yield from ep_i.kernel.tcp.connect(
                endpoints[j].kernel.host.hostid, _LISTEN_BASE + j
            )
            ep_i.attach_conn(j, conn)
            ep_i.kick.set()

        def acceptor(ep_j, expected):
            lst = listeners[ep_j.world_rank]
            for _ in range(expected):
                conn = yield from lst.accept()
                ep_j.attach_conn(conn.remote_host, conn)
                ep_j.kick.set()

        sim = machine.sim
        for i, ep_i in enumerate(endpoints):
            for j in range(i + 1, n):
                sim.process(connector(ep_i, j), name=f"tcp-connect-{i}-{j}")
        for j, ep_j in enumerate(endpoints):
            if j > 0:
                sim.process(acceptor(ep_j, j), name=f"tcp-accept-{j}")
