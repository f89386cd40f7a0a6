"""Platform builders: assemble a machine + MPI endpoints for a World.

==========  ======================  =============================
platform    machine                 devices
==========  ======================  =============================
meiko       Meiko CS/2 (fat tree)   lowlatency (default), mpich
atm         SGI cluster + ATM       tcp (default), udp
ethernet    SGI cluster + Ethernet  tcp (default), udp
modern      RDMA / CXL testbed      rdma (default), cxl
==========  ======================  =============================

The ``modern`` platform is the cross-era control group: the same
protocol questions (matching locus, eager/rendezvous crossover, credit
flow control) on today's fabrics — an RDMA NIC (MVAPICH-style) and a
CXL shared-memory switch (cMPI-style).  See docs/FABRICS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.sim import Simulator

__all__ = [
    "Platform",
    "build_platform",
    "device_key",
    "device_modules",
    "DEFAULT_DEVICES",
    "PLATFORM_DEVICES",
    "DEVICE_MATRIX",
    "DEVICE_CLASSES",
    "COLL_TUNING",
]


def device_key(platform: str, device: str) -> str:
    """Canonical ``"platform-device"`` cell label.

    This is the key used everywhere a (platform, device) pair names an
    experiment cell: differential-conformance results, parallel-engine
    cache entries, and test parametrisation ids.
    """
    return f"{platform}-{device}"

DEFAULT_DEVICES = {
    "meiko": "lowlatency", "atm": "tcp", "ethernet": "tcp", "modern": "rdma",
}

#: every device available on each platform (the default listed first)
PLATFORM_DEVICES = {
    "meiko": ("lowlatency", "mpich"),
    "atm": ("tcp", "udp"),
    "ethernet": ("tcp", "udp"),
    "modern": ("rdma", "cxl"),
}

#: the full (platform, device) matrix — the paper's device
#: implementations (lowlatency, mpich, and the cluster tcp/udp
#: endpoints on both fabrics) plus the modern rdma/cxl cells.  Test
#: fixtures and the conformance fuzzer iterate this.  Order matters:
#: the modern cells are appended *last* so the legacy cell order (and
#: the fuzzer's reference cell, the first entry) is untouched and the
#: pinned determinism goldens stay byte-identical.
DEVICE_MATRIX = tuple(
    (platform, device)
    for platform in ("meiko", "atm", "ethernet", "modern")
    for device in PLATFORM_DEVICES[platform]
)

#: where each cell's (machine, endpoint) classes live, as ``"module:Class"``.
#: Nothing named here is imported until a world of that cell is built —
#: importing this module costs no simulator — and the table is read twice:
#: by the builders below, and by ``repro.parallel.tasks.load_for``, which
#: imports a batch's modules once before the engine forks.
DEVICE_CLASSES = {
    ("meiko", "lowlatency"): ("repro.hw.meiko:MeikoMachine",
                              "repro.mpi.device.lowlatency:LowLatencyEndpoint"),
    ("meiko", "mpich"): ("repro.hw.meiko:MeikoMachine",
                         "repro.mpi.device.mpich:MpichEndpoint"),
    ("atm", "tcp"): ("repro.hw.cluster:ClusterMachine",
                     "repro.mpi.device.tcpdev:TcpEndpoint"),
    ("atm", "udp"): ("repro.hw.cluster:ClusterMachine",
                     "repro.mpi.device.udpdev:UdpEndpoint"),
    ("ethernet", "tcp"): ("repro.hw.cluster:ClusterMachine",
                          "repro.mpi.device.tcpdev:TcpEndpoint"),
    ("ethernet", "udp"): ("repro.hw.cluster:ClusterMachine",
                          "repro.mpi.device.udpdev:UdpEndpoint"),
    ("modern", "rdma"): ("repro.hw.modern:ModernMachine",
                         "repro.mpi.device.rdma:RdmaEndpoint"),
    ("modern", "cxl"): ("repro.hw.modern:ModernMachine",
                        "repro.mpi.device.cxl:CxlEndpoint"),
}


def device_modules(platform: str, device: Optional[str] = None) -> Tuple[str, ...]:
    """The modules a world on (*platform*, *device*) imports to build its
    machine and endpoints — empty for a cell the table does not have
    (``build_platform`` is what rejects it, with the message)."""
    refs = DEVICE_CLASSES.get((platform, device or DEFAULT_DEVICES.get(platform)), ())
    return tuple(ref.partition(":")[0] for ref in refs)


def _device_classes(platform: str, device: str):
    """``(Machine, Endpoint)`` of a cell, imported now."""
    try:
        refs = DEVICE_CLASSES[platform, device]
    except KeyError:
        choices = " or ".join(repr(d) for d in PLATFORM_DEVICES[platform])
        raise ConfigurationError(
            f"device {device!r} not available on the {platform} platform "
            f"(choose {choices})"
        ) from None
    return tuple(
        getattr(import_module(module), name)
        for module, _, name in (ref.partition(":") for ref in refs)
    )


# Per-cell collective tuning tables consumed by the auto-selector in
# repro.mpi.coll.registry (schema documented there; catalog + measured
# crossover numbers in docs/COLLECTIVES.md).  The "small" entries are
# exactly the paper-era defaults, so worlds in the golden determinism
# regimes (<= 8 ranks, sub-crossover payloads) run byte-identical
# traffic; "large"/"wide" entries switch to bandwidth/latency shapes
# where the defaults stop scaling.  Stamped onto every endpoint as
# ``ep.coll_tuning`` by the platform builders.

def _cluster_tuning(shared_medium: bool = False) -> dict:
    # on the shared 10 Mb/s Ethernet every byte serializes onto one
    # wire, so the scatter-allgather broadcast's extra messages never
    # pay off (measured: docs/COLLECTIVES.md) — only the switched ATM
    # fabric gets the large-payload bcast crossover
    bcast = {"small": "linear", "wide": "binomial", "wide_ranks": 16}
    if not shared_medium:
        bcast.update({"large": "scatter_allgather", "large_bytes": 65536,
                      "large_max_ranks": 64})
    return {
        "bcast": bcast,
        "allreduce": {"small": "reduce_bcast", "large": "ring",
                      "large_bytes": 65536, "large_max_ranks": 64},
        "reduce": {"small": "binomial"},
        "barrier": {"small": "dissemination", "wide": "tree", "wide_ranks": 512},
        "gather": {"small": "linear", "wide": "binomial", "wide_ranks": 16},
        "scatter": {"small": "linear", "wide": "binomial", "wide_ranks": 16},
        "allgather": {"small": "ring", "wide": "gather_bcast", "wide_ranks": 16},
    }


def _modern_tuning() -> dict:
    # switched, full-bisection fabrics: MPICH-style defaults with the
    # bandwidth crossovers pushed out (the wire is ~2 orders of
    # magnitude faster than ATM, so latency shapes win until well past
    # the paper-era 64 KiB switch point — measured: docs/FABRICS.md)
    return {
        "bcast": {"small": "binomial", "large": "scatter_allgather",
                  "large_bytes": 131072, "large_max_ranks": 128},
        "allreduce": {"small": "reduce_bcast", "large": "ring",
                      "large_bytes": 131072, "large_max_ranks": 128},
        "reduce": {"small": "binomial"},
        "barrier": {"small": "dissemination", "wide": "tree", "wide_ranks": 512},
        "gather": {"small": "linear", "wide": "binomial", "wide_ranks": 16},
        "scatter": {"small": "linear", "wide": "binomial", "wide_ranks": 16},
        "allgather": {"small": "ring", "wide": "gather_bcast", "wide_ranks": 16},
    }


COLL_TUNING = {
    # the CS/2 hardware broadcast beats every point-to-point tree at
    # all sizes measured (docs/COLLECTIVES.md), so bcast never crosses
    # over; allreduce still profits from ring reduce-scatter bandwidth
    "meiko-lowlatency": {
        "bcast": {"small": "hardware"},
        "allreduce": {"small": "reduce_bcast", "large": "ring",
                      "large_bytes": 65536, "large_max_ranks": 128},
        "reduce": {"small": "binomial"},
        "barrier": {"small": "dissemination", "wide": "tree", "wide_ranks": 512},
        "gather": {"small": "linear", "wide": "binomial", "wide_ranks": 16},
        "scatter": {"small": "linear", "wide": "binomial", "wide_ranks": 16},
        "allgather": {"small": "ring", "wide": "gather_bcast", "wide_ranks": 16},
    },
    "meiko-mpich": {
        "bcast": {"small": "binomial", "large": "scatter_allgather",
                  "large_bytes": 65536, "large_max_ranks": 128},
        "allreduce": {"small": "reduce_bcast", "large": "ring",
                      "large_bytes": 65536, "large_max_ranks": 128},
        "reduce": {"small": "binomial"},
        "barrier": {"small": "dissemination", "wide": "tree", "wide_ranks": 512},
        "gather": {"small": "linear", "wide": "binomial", "wide_ranks": 16},
        "scatter": {"small": "linear", "wide": "binomial", "wide_ranks": 16},
        "allgather": {"small": "ring", "wide": "gather_bcast", "wide_ranks": 16},
    },
    "atm-tcp": _cluster_tuning(),
    "atm-udp": _cluster_tuning(),
    "ethernet-tcp": _cluster_tuning(shared_medium=True),
    "ethernet-udp": _cluster_tuning(shared_medium=True),
    "modern-rdma": _modern_tuning(),
    "modern-cxl": _modern_tuning(),
}


@dataclass
class Platform:
    """A built machine: hosts + one MPI endpoint per rank."""

    name: str
    device: str
    sim: Simulator
    hosts: List[Any]
    endpoints: List[Any]
    machine: Any = None
    extra: dict = field(default_factory=dict)


def build_platform(
    platform: str,
    device: Optional[str],
    nprocs: int,
    sim: Simulator,
    seed: int = 0,
    machine_params: Any = None,
    device_config: Any = None,
    host_speeds: Any = None,
    kernel_params: Any = None,
    faults: Any = None,
) -> Platform:
    """Build *platform* with *nprocs* ranks on *sim*.

    ``faults`` (a :class:`repro.faults.FaultPlan`) is valid on every
    platform.
    """
    if nprocs < 1:
        raise ConfigurationError(f"nprocs must be >= 1, got {nprocs}")
    if platform not in DEFAULT_DEVICES:
        raise ConfigurationError(
            f"unknown platform {platform!r}; choose from {sorted(DEFAULT_DEVICES)}"
        )
    device = device or DEFAULT_DEVICES[platform]
    if platform == "meiko":
        if host_speeds is not None or kernel_params is not None:
            raise ConfigurationError(
                "host_speeds/kernel_params apply to the workstation clusters only"
            )
        return _build_meiko(
            device, nprocs, sim, seed, machine_params, device_config, faults
        )
    if platform == "modern":
        if host_speeds is not None or kernel_params is not None:
            raise ConfigurationError(
                "host_speeds/kernel_params apply to the workstation clusters only"
            )
        return _build_modern(
            device, nprocs, sim, seed, machine_params, device_config, faults
        )
    return _build_cluster(
        platform, device, nprocs, sim, seed, machine_params, device_config,
        host_speeds, kernel_params, faults,
    )


def _build_meiko(
    device, nprocs, sim, seed, machine_params, device_config, faults=None
) -> Platform:
    Machine, Endpoint = _device_classes("meiko", device)
    machine = Machine(sim, nprocs, params=machine_params, seed=seed, faults=faults)
    if device == "mpich":  # layered over the tport widget
        tports = machine.tports()
        endpoints = [
            Endpoint(i, machine.nodes[i], tports[i], config=device_config)
            for i in range(nprocs)
        ]
    else:
        endpoints = [
            Endpoint(i, machine.nodes[i], config=device_config)
            for i in range(nprocs)
        ]
    tuning = COLL_TUNING[device_key("meiko", device)]
    for ep in endpoints:
        ep.peers = endpoints
        ep.coll_tuning = tuning
    return Platform("meiko", device, sim, list(machine.nodes), endpoints, machine)


def _build_modern(
    device, nprocs, sim, seed, machine_params, device_config, faults=None
) -> Platform:
    Machine, Endpoint = _device_classes("modern", device)
    machine = Machine(
        sim, nprocs, network=device, params=machine_params, seed=seed,
        faults=faults,
    )
    return _connected("modern", device, sim, machine, Endpoint, device_config)


def _build_cluster(
    platform, device, nprocs, sim, seed, machine_params, device_config,
    host_speeds=None, kernel_params=None, faults=None,
) -> Platform:
    Machine, Endpoint = _device_classes(platform, device)
    machine = Machine(
        sim, nprocs, network=platform, params=machine_params, seed=seed,
        host_speeds=host_speeds, kernel_params=kernel_params, faults=faults,
    )
    return _connected(platform, device, sim, machine, Endpoint, device_config)


def _connected(platform, device, sim, machine, Endpoint, device_config) -> Platform:
    """One endpoint per host of a host-based *machine*, wired to it."""
    endpoints = [
        Endpoint(i, host, config=device_config)
        for i, host in enumerate(machine.hosts)
    ]
    tuning = COLL_TUNING[device_key(platform, device)]
    for ep in endpoints:
        ep.peers = endpoints
        ep.coll_tuning = tuning
    machine.connect_endpoints(endpoints)
    return Platform(platform, device, sim, list(machine.hosts), endpoints, machine)
