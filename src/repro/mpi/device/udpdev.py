"""MPI over reliable UDP.

The identical device protocol as :class:`TcpEndpoint`, but each rank
pair communicates over a user-level reliable-UDP stream
(:class:`~repro.net.rudp.RudpConnection`).  The paper found this
"very similar to that of TCP" — the reliability work just moves from
the kernel to user space, paying the same syscalls per packet.
"""

from __future__ import annotations

from repro.mpi.device.cluster import StreamEndpoint
from repro.net.rudp import RudpConnection

__all__ = ["UdpEndpoint"]

#: UDP ports: the socket at rank i talking to rank j is BASE + j
_PORT_BASE = 40000


class UdpEndpoint(StreamEndpoint):
    """One rank's endpoint over per-peer reliable-UDP streams."""

    @staticmethod
    def _connect_pair_now(ep_i, ep_j) -> None:
        i, j = ep_i.world_rank, ep_j.world_rank
        sock_i = ep_i.kernel.udp.bind(_PORT_BASE + j)
        sock_j = ep_j.kernel.udp.bind(_PORT_BASE + i)
        conn_i = RudpConnection(ep_i.kernel, sock_i, j, _PORT_BASE + i)
        conn_j = RudpConnection(ep_j.kernel, sock_j, i, _PORT_BASE + j)
        ep_i.attach_conn(j, conn_i)
        ep_j.attach_conn(i, conn_j)
