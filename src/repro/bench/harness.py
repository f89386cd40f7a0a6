"""Micro-benchmark drivers.

All functions build a fresh deterministic world per measurement and
report **simulated** microseconds (or MB/s = bytes/µs).  One warm-up
exchange precedes each timed measurement so one-time effects
(rendezvous state, ARP-less static connections) don't skew the number,
matching how the paper's curves were taken.

Importing this module loads nothing: each driver imports the kernel,
machine, stack or MPI library it measures when it is called, so
``crossover`` — all a fully cached figure needs from here — costs no
simulator and no numpy.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

__all__ = [
    "cold_pingpong",
    "mpi_pingpong_rtt",
    "mpi_bandwidth",
    "app_verified",
    "tport_rtt",
    "tport_bandwidth",
    "raw_stream_rtt",
    "raw_stream_bandwidth",
    "fore_rtt",
    "sweep",
    "crossover",
]


# ---------------------------------------------------------------------------
# MPI-level drivers
# ---------------------------------------------------------------------------


def _pingpong_main(nbytes: int, repeats: int):
    def main(comm):
        payload = bytes(nbytes)
        if comm.rank == 0:
            # warm-up
            yield from comm.send(payload, dest=1, tag=0)
            yield from comm.recv(source=1, tag=0)
            t0 = comm.wtime()
            for _ in range(repeats):
                yield from comm.send(payload, dest=1, tag=1)
                data, _ = yield from comm.recv(source=1, tag=2)
            return (comm.wtime() - t0) / repeats
        else:
            yield from comm.recv(source=0, tag=0)
            yield from comm.send(payload, dest=0, tag=0)
            for _ in range(repeats):
                data, _ = yield from comm.recv(source=0, tag=1)
                yield from comm.send(data, dest=0, tag=2)

    return main


def cold_pingpong(nbytes: int, repeats: int = 1):
    """A 2-rank ``main``: *repeats* round trips with **no** warm-up, so
    the first exchange's one-time costs are part of what is observed —
    what the chaos sweep, the kernel-perf chaos workload and
    ``repro phases`` run.  Returns each rank's finish time."""

    def main(comm):
        payload = bytes(nbytes)
        for _ in range(repeats):
            if comm.rank == 0:
                yield from comm.send(payload, dest=1, tag=1)
                yield from comm.recv(source=1, tag=2)
            else:
                data, _ = yield from comm.recv(source=0, tag=1)
                yield from comm.send(data, dest=0, tag=2)
        return comm.wtime()

    return main


def mpi_pingpong_rtt(
    platform: str,
    device: str,
    nbytes: int,
    repeats: int = 3,
    device_config=None,
    machine_params=None,
    obs=None,
) -> float:
    """Mean MPI round-trip time (µs) for *nbytes* messages.

    Pass an :class:`~repro.obs.bus.EventBus` as *obs* to trace the run.
    """
    from repro.mpi import World

    world = World(
        2,
        platform=platform,
        device=device,
        device_config=device_config,
        machine_params=machine_params,
        obs=obs,
    )
    return world.run(_pingpong_main(nbytes, repeats))[0]


def mpi_bandwidth(
    platform: str,
    device: str,
    nbytes: int,
    device_config=None,
) -> float:
    """One-way streaming bandwidth (MB/s) for one *nbytes* message."""
    from repro.mpi import World

    def main(comm):
        payload = bytes(nbytes)
        if comm.rank == 0:
            yield from comm.send(b"w", dest=1, tag=0)  # warm-up
            yield from comm.recv(source=1, tag=0)
            t0 = comm.wtime()
            yield from comm.send(payload, dest=1, tag=1)
            yield from comm.recv(source=1, tag=2)  # tiny completion ack
            return nbytes / (comm.wtime() - t0)
        else:
            yield from comm.recv(source=0, tag=0)
            yield from comm.send(b"w", dest=0, tag=0)
            yield from comm.recv(source=0, tag=1)
            yield from comm.send(b"k", dest=0, tag=2)

    world = World(2, platform=platform, device=device, device_config=device_config)
    return world.run(main)[0]


def app_verified(
    name: str, platform: str, device: str, nprocs: int, n: int, obs=None
) -> dict:
    """Run application *name* (linsolve, matmul, nbody, jacobi) at
    problem size *n* and check rank 0's answer against a serial
    reference: ``{"elapsed": simulated µs, "ok": bool}``."""
    import numpy as np

    from repro import apps
    from repro.mpi import World

    flop_time = 0.1 if platform == "meiko" else 0.03

    def linsolve_ok(x):
        a, b = apps.generate_system(n, seed=1)
        return np.allclose(a @ x, b, atol=1e-8)

    def matmul_ok(c):
        rng = np.random.default_rng(1)
        return np.allclose(c, rng.standard_normal((n, n)) @ rng.standard_normal((n, n)))

    # the app, its own arguments, and the check of rank 0's answer
    app, kwargs, verified = {
        "linsolve": (apps.linsolve, {"n": n, "seed": 1}, linsolve_ok),
        "matmul": (apps.matmul, {"n": n, "seed": 1}, matmul_ok),
        "nbody": (apps.nbody_ring, {"nparticles": n, "seed": 1}, lambda f: np.allclose(
            f, apps.reference_forces(apps.generate_particles(n, seed=1)), atol=1e-9)),
        "jacobi": (apps.jacobi_heat, {"nx": n, "ny": n, "iters": 10}, lambda g: np.allclose(
            g, apps.reference_jacobi(apps.initial_grid(n, n), 10))),
    }[name]

    def main(comm):
        answer, elapsed = yield from app(comm, flop_time=flop_time, **kwargs)
        return answer, elapsed

    results = World(nprocs, platform=platform, device=device, obs=obs).run(main)
    return {"elapsed": max(r[1] for r in results),
            "ok": bool(verified(results[0][0]))}


# ---------------------------------------------------------------------------
# tport-level drivers (Figure 2/3 baselines)
# ---------------------------------------------------------------------------


def _tport_world(machine_params=None):
    from repro.hw.meiko import MeikoMachine
    from repro.sim import Simulator

    sim = Simulator()
    machine = MeikoMachine(sim, 2, params=machine_params)
    return sim, machine.tports()


def tport_rtt(nbytes: int, repeats: int = 3, machine_params=None) -> float:
    """Bare tport widget round-trip time (µs)."""
    sim, tp = _tport_world(machine_params)

    def ping(sim):
        yield from tp[0].tsend(1, tag=0, data=bytes(nbytes))  # warm-up
        yield from tp[0].trecv(tag=100)
        t0 = sim.now
        for _ in range(repeats):
            yield from tp[0].tsend(1, tag=1, data=bytes(nbytes))
            yield from tp[0].trecv(tag=2)
        return (sim.now - t0) / repeats

    def pong(sim):
        yield from tp[1].trecv(tag=0)
        yield from tp[1].tsend(0, tag=100, data=b"")
        for _ in range(repeats):
            data, _, _ = yield from tp[1].trecv(tag=1)
            yield from tp[1].tsend(0, tag=2, data=data)

    p = sim.process(ping(sim))
    sim.process(pong(sim))
    sim.run()
    return p.value


def tport_bandwidth(nbytes: int, machine_params=None) -> float:
    """Bare tport one-way bandwidth (MB/s)."""
    sim, tp = _tport_world(machine_params)

    def sender(sim):
        t0 = sim.now
        yield from tp[0].tsend(1, tag=1, data=bytes(nbytes))
        yield from tp[0].trecv(tag=2)
        return nbytes / (sim.now - t0)

    def receiver(sim):
        yield from tp[1].trecv(tag=1)
        yield from tp[1].tsend(0, tag=2, data=b"")

    p = sim.process(sender(sim))
    sim.process(receiver(sim))
    sim.run()
    return p.value


# ---------------------------------------------------------------------------
# raw cluster-protocol drivers (Figure 4/5/6 baselines)
# ---------------------------------------------------------------------------


def _cluster(network: str, kernel_params=None):
    from repro.hw.cluster import ClusterMachine
    from repro.sim import Simulator

    sim = Simulator()
    machine = ClusterMachine(sim, 2, network=network, kernel_params=kernel_params)
    return sim, machine


def _stream_pair(machine, transport: str):
    if transport == "tcp":
        from repro.net.tcp import TcpLayer

        return TcpLayer.connect_pair(machine.kernels[0], machine.kernels[1], 5000, 5000)
    if transport == "udp":
        from repro.net.rudp import RudpConnection

        s0 = machine.kernels[0].udp.bind(7000)
        s1 = machine.kernels[1].udp.bind(7000)
        a = RudpConnection(machine.kernels[0], s0, 1, 7000)
        b = RudpConnection(machine.kernels[1], s1, 0, 7000)
        return a, b
    raise ValueError(f"unknown transport {transport!r}")


def raw_stream_rtt(network: str, transport: str, nbytes: int, repeats: int = 3) -> float:
    """Raw TCP or reliable-UDP round-trip time (µs), no MPI."""
    sim, machine = _cluster(network)
    a, b = _stream_pair(machine, transport)

    def client(sim):
        yield from a.send(bytes(max(1, nbytes)))  # warm-up
        yield from a.recv_exact(max(1, nbytes))
        t0 = sim.now
        for _ in range(repeats):
            yield from a.send(bytes(max(1, nbytes)))
            yield from a.recv_exact(max(1, nbytes))
        return (sim.now - t0) / repeats

    def server(sim):
        for _ in range(repeats + 1):
            data = yield from b.recv_exact(max(1, nbytes))
            yield from b.send(data)

    p = sim.process(client(sim))
    sim.process(server(sim))
    sim.run()
    return p.value


def raw_stream_bandwidth(network: str, transport: str, nbytes: int) -> float:
    """Raw one-way streaming bandwidth (MB/s)."""
    sim, machine = _cluster(network)
    a, b = _stream_pair(machine, transport)

    def client(sim):
        t0 = sim.now
        yield from a.send(bytes(nbytes))
        yield from a.recv_exact(1)
        return nbytes / (sim.now - t0)

    def server(sim):
        yield from b.recv_exact(nbytes)
        yield from b.send(b"k")

    p = sim.process(client(sim))
    sim.process(server(sim))
    sim.run()
    return p.value


def fore_rtt(nbytes: int, repeats: int = 3) -> float:
    """Fore API (AAL3/4) round-trip time (µs) on the ATM cluster."""
    sim, machine = _cluster("atm")
    fa, fb = machine.fore(0), machine.fore(1)
    fa.bind(1)
    fb.bind(1)

    def client(sim):
        yield from fa.send(1, 1, bytes(max(1, nbytes)))  # warm-up
        yield from fa.recv(1)
        t0 = sim.now
        for _ in range(repeats):
            yield from fa.send(1, 1, bytes(max(1, nbytes)))
            yield from fa.recv(1)
        return (sim.now - t0) / repeats

    def server(sim):
        for _ in range(repeats + 1):
            data = yield from fb.recv(1)
            yield from fb.send(0, 1, data)

    p = sim.process(client(sim))
    sim.process(server(sim))
    sim.run()
    return p.value


# ---------------------------------------------------------------------------
# sweeps and crossovers
# ---------------------------------------------------------------------------


def sweep(fn: Callable[[int], float], sizes: Sequence[int]) -> List[Tuple[int, float]]:
    """Evaluate ``fn(size)`` over *sizes*."""
    return [(s, fn(s)) for s in sizes]


def crossover(
    series_a: Sequence[Tuple[int, float]], series_b: Sequence[Tuple[int, float]]
) -> Optional[float]:
    """The x where series A (lower at small x) crosses above series B.

    Linear interpolation between the bracketing sample points; None if
    they never cross in the sampled range.
    """
    if len(series_a) != len(series_b):
        raise ValueError("series must sample the same sizes")
    prev = None
    for (xa, ya), (xb, yb) in zip(series_a, series_b):
        if xa != xb:
            raise ValueError("series must sample the same sizes")
        diff = ya - yb
        if prev is not None and prev[1] < 0 <= diff:
            x0, d0 = prev
            return x0 + (xa - x0) * (-d0) / (diff - d0)
        prev = (xa, diff)
    return None
