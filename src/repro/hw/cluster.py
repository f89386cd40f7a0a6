"""The workstation cluster: SGI hosts on Ethernet or ATM.

Models the paper's testbed: eight SGI Indys (plus a Challenge) with
64 MB RAM each, connected by a 10 Mb/s shared Ethernet *and* a Fore
ASX-200 ATM switch.  A :class:`ClusterMachine` is built over one fabric
at a time (the platform choice selects which figure's configuration you
get); each host runs a kernel protocol stack charged to its CPU.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.errors import ConfigurationError
from repro.hw.atm import AtmNic, AtmParams, AtmSwitch
from repro.hw.ethernet import EthernetNic, EthernetParams, Medium
from repro.hw.node import Host
from repro.net.ip import IP_HEADER
from repro.net.kernel import ATM_KERNEL, ETH_KERNEL, Kernel, KernelParams
from repro.net.tcp import TCP_HEADER
from repro.sim import Simulator

__all__ = ["ClusterMachine"]


class ClusterMachine:
    """*n* workstations on one fabric ('ethernet' or 'atm')."""

    def __init__(
        self,
        sim: Simulator,
        nhosts: int,
        network: str = "ethernet",
        params: Any = None,
        kernel_params: Optional[KernelParams] = None,
        seed: int = 0,
        host_speeds: Optional[List[float]] = None,
        faults=None,
    ):
        if nhosts < 1:
            raise ConfigurationError(f"nhosts must be >= 1, got {nhosts}")
        if network not in ("ethernet", "atm"):
            raise ConfigurationError(f"network must be 'ethernet' or 'atm', got {network!r}")
        if host_speeds is not None and len(host_speeds) != nhosts:
            raise ConfigurationError(
                f"host_speeds has {len(host_speeds)} entries for {nhosts} hosts"
            )
        self.sim = sim
        self.network = network
        speeds = host_speeds or [1.0] * nhosts
        self.hosts: List[Host] = [
            Host(sim, i, name=f"sgi{i}", seed=seed, speed=speeds[i]) for i in range(nhosts)
        ]
        self.kernels: List[Kernel] = []
        injector = faults.injector(network, sim, seed) if faults is not None else None
        if network == "ethernet":
            self.params = params or EthernetParams()
            self.fabric = Medium(sim, self.params, injector=injector)
            kparams = kernel_params or ETH_KERNEL
            for host in self.hosts:
                nic = EthernetNic(host, self.fabric)
                self.fabric.attach(nic)
                self._finish_host(host, nic, kparams)
        else:
            self.params = params or AtmParams()
            self.fabric = AtmSwitch(
                sim, self.params, nports=max(8, nhosts), injector=injector,
            )
            kparams = kernel_params or ATM_KERNEL
            for host in self.hosts:
                nic = AtmNic(host, self.fabric)
                self._finish_host(host, nic, kparams)
        self._fore_apis = {}

    def _finish_host(self, host: Host, nic, kparams: KernelParams) -> None:
        mss = nic.max_payload - IP_HEADER - TCP_HEADER
        kernel = Kernel(host, kparams, nic, mss)
        # NIC deliveries go to the kernel's interrupt path
        if self.network == "ethernet":
            nic.rx_handler = lambda frame, k=kernel: k.enqueue_rx(frame.payload)
        else:
            nic.rx_handler = lambda pdu, k=kernel: k.enqueue_rx(pdu.payload)
        host.nic = nic
        host.stack = kernel
        self.kernels.append(kernel)

    @property
    def nhosts(self) -> int:
        return len(self.hosts)

    def fore(self, hostid: int):
        """The host's Fore API instance (ATM clusters only; lazy)."""
        if self.network != "atm":
            raise ConfigurationError("the Fore API needs the ATM cluster")
        if hostid not in self._fore_apis:
            from repro.net.fore import ForeApi

            self._fore_apis[hostid] = ForeApi(self.kernels[hostid])
        return self._fore_apis[hostid]

    def connect_endpoints(self, endpoints) -> None:
        """Let the device type wire its full mesh of connections."""
        if endpoints:
            type(endpoints[0]).wire(self, endpoints)
