"""MPI devices: the transport-specific protocol engines.

========================  ==================================================
:class:`LowLatencyEndpoint`  the paper's Meiko implementation (SPARC
                             matching, 180-byte eager/rendezvous hybrid)
:class:`MpichEndpoint`       MPICH layered over the tport widget (Elan
                             matching) — the paper's comparison baseline
:class:`TcpEndpoint`         envelopes + piggybacked data over TCP with
                             credit flow control (ATM/Ethernet cluster)
:class:`UdpEndpoint`         the same protocol over reliable UDP
:class:`RdmaEndpoint`        RDMA-write eager / RDMA-READ rendezvous with
                             a registration cache (modern fabric)
:class:`CxlEndpoint`         load/store shared-memory eager / zero-copy
                             handoff rendezvous (modern fabric)
========================  ==================================================

The last four are one protocol engine (:mod:`repro.mpi.device.flow`)
over two channel families: byte streams (:mod:`~repro.mpi.device.cluster`)
and NIC-to-NIC fabrics (:mod:`~repro.mpi.device.modern`).
"""

from repro.mpi.device.base import Endpoint
from repro.mpi.device.cxl import CxlConfig, CxlEndpoint
from repro.mpi.device.lowlatency import LowLatencyEndpoint, LowLatencyConfig
from repro.mpi.device.mpich import MpichEndpoint, MpichConfig
from repro.mpi.device.rdma import RdmaConfig, RdmaEndpoint, RegistrationCache

__all__ = [
    "Endpoint",
    "LowLatencyEndpoint",
    "LowLatencyConfig",
    "MpichEndpoint",
    "MpichConfig",
    "RdmaEndpoint",
    "RdmaConfig",
    "RegistrationCache",
    "CxlEndpoint",
    "CxlConfig",
]
