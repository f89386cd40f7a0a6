"""Application tests: numerical correctness on every device + the
paper's qualitative performance claims."""

import numpy as np
import pytest

from repro.apps import (
    generate_particles,
    generate_system,
    linsolve,
    matmul,
    nbody_ring,
    reference_forces,
)
from repro.errors import ConfigurationError
from repro.mpi import World
from tests.conftest import run_world


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_linsolve_correct(meiko_device, nprocs):
    platform, device = meiko_device
    n = 24

    def main(comm):
        x, elapsed = yield from linsolve(comm, n=n, seed=3)
        return x, elapsed

    res = run_world(nprocs, main, platform, device)
    x, elapsed = res[0]
    a, b = generate_system(n, seed=3)
    assert np.allclose(a @ x, b, atol=1e-8)
    assert elapsed > 0
    assert all(r[0] is None for r in res[1:])


def test_linsolve_on_cluster():
    def main(comm):
        x, _ = yield from linsolve(comm, n=12, seed=1, flop_time=0.03)
        return x

    res = run_world(3, main, "atm", "tcp")
    a, b = generate_system(12, seed=1)
    assert np.allclose(a @ res[0], b, atol=1e-8)


def test_linsolve_explicit_system(meiko_device):
    platform, device = meiko_device
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([3.0, 5.0])

    def main(comm):
        x, _ = yield from linsolve(comm, n=2, a=a, b=b)
        return x

    res = run_world(2, main, platform, device)
    assert np.allclose(res[0], np.linalg.solve(a, b))


def _linsolve_by_masks(n, size, seed):
    """linsolve's arithmetic with every rank's elimination written as a
    boolean row mask, fancy indexing and ``np.outer``: the reference the
    slicing elimination must match bit for bit."""
    a, b = generate_system(n, seed)
    rows = [np.arange(r, n, size) for r in range(size)]
    chunks = [(a[rows[r]].copy(), b[rows[r]].copy()) for r in range(size)]
    pivot = np.empty(n + 1, dtype=np.float64)
    for k in range(n):
        owner = k % size
        pivot[:n] = chunks[owner][0][(k - owner) // size]
        pivot[n] = chunks[owner][1][(k - owner) // size]
        for r, (my_a, my_b) in enumerate(chunks):
            below = rows[r] > k
            if below.sum():
                factors = my_a[below, k] / pivot[k]
                my_a[below, k:] -= np.outer(factors, pivot[k:n])
                my_b[below] -= factors * pivot[n]
    u, c = np.empty((n, n)), np.empty(n)
    for r, (my_a, my_b) in enumerate(chunks):
        u[rows[r]] = my_a
        c[rows[r]] = my_b
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (c[k] - u[k, k + 1:] @ x[k + 1:]) / u[k, k]
    return x


@pytest.mark.parametrize("platform,device,n,nprocs", [
    ("meiko", "lowlatency", 37, 5),
    ("meiko", "mpich", 24, 8),
    ("atm", "tcp", 13, 4),
])
def test_linsolve_eliminates_bit_identically_to_the_mask_formulation(
        platform, device, n, nprocs):
    def main(comm):
        x, _ = yield from linsolve(comm, n=n, seed=5)
        return x

    x = run_world(nprocs, main, platform, device)[0]
    assert x.tobytes() == _linsolve_by_masks(n, nprocs, seed=5).tobytes()


def test_linsolve_rejects_bad_n():
    def main(comm):
        with pytest.raises(ConfigurationError):
            yield from linsolve(comm, n=0)
        return True

    assert run_world(1, main)[0] is True


def test_linsolve_lowlatency_beats_mpich():
    """Figure 7: the hardware-broadcast implementation is faster, and
    relatively more so with more processes."""

    def main(comm):
        _, elapsed = yield from linsolve(comm, n=32, seed=0)
        return elapsed

    def time_of(device, nprocs):
        return max(run_world(nprocs, main, "meiko", device))

    for nprocs in (4, 8):
        ll = time_of("lowlatency", nprocs)
        mp = time_of("mpich", nprocs)
        assert ll < mp, f"P={nprocs}: lowlatency {ll} not faster than mpich {mp}"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_matmul_correct(meiko_device, nprocs):
    platform, device = meiko_device
    n = 16

    def main(comm):
        c, elapsed = yield from matmul(comm, n=n, seed=5)
        return c

    res = run_world(nprocs, main, platform, device)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    assert np.allclose(res[0], a @ b)


def test_matmul_explicit_inputs():
    a = np.eye(3) * 2
    b = np.arange(9, dtype=float).reshape(3, 3)

    def main(comm):
        c, _ = yield from matmul(comm, n=3, a=a, b=b)
        return c

    res = run_world(3, main)
    assert np.allclose(res[0], a @ b)


# ---------------------------------------------------------------------------
# nbody
# ---------------------------------------------------------------------------


def test_reference_forces_antisymmetric():
    p = generate_particles(6, seed=2)
    f = reference_forces(p)
    # total force on a closed system is ~zero (Newton's third law)
    assert np.allclose(f.sum(axis=0), 0.0, atol=1e-10)


@pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
def test_nbody_matches_reference(meiko_device, nprocs):
    platform, device = meiko_device
    n = 24

    def main(comm):
        f, elapsed = yield from nbody_ring(comm, nparticles=n, seed=7)
        return f

    res = run_world(nprocs, main, platform, device)
    expected = reference_forces(generate_particles(n, seed=7))
    assert np.allclose(res[0], expected, atol=1e-9)


def test_nbody_on_cluster_devices():
    n = 16

    def main(comm):
        f, _ = yield from nbody_ring(comm, nparticles=n, seed=4, flop_time=0.03)
        return f

    expected = reference_forces(generate_particles(n, seed=4))
    for platform, device in [("ethernet", "tcp"), ("atm", "udp")]:
        res = run_world(4, main, platform, device)
        assert np.allclose(res[0], expected, atol=1e-9)


def test_nbody_requires_divisible():
    def main(comm):
        with pytest.raises(ConfigurationError):
            yield from nbody_ring(comm, nparticles=25)
        return True

    run_world(2, main)


def test_nbody_atm_beats_ethernet_at_scale():
    """Figure 9: for 128 particles, the ATM cluster outperforms the
    shared Ethernet, and the gap grows with processes."""

    def main(comm):
        _, elapsed = yield from nbody_ring(
            comm, nparticles=128, seed=0, flop_time=0.03
        )
        return elapsed

    def time_of(platform, nprocs):
        return max(run_world(nprocs, main, platform, "tcp"))

    for nprocs in (4, 8):
        atm = time_of("atm", nprocs)
        eth = time_of("ethernet", nprocs)
        assert atm < eth, f"P={nprocs}: atm {atm} not faster than ethernet {eth}"


def test_nbody_meiko_low_latency_helps():
    """Figure 8's mechanism: with small messages and synchronized
    phases, the low-latency implementation beats MPICH."""

    def main(comm):
        _, elapsed = yield from nbody_ring(comm, nparticles=24, seed=0)
        return elapsed

    ll = max(run_world(8, main, "meiko", "lowlatency"))
    mp = max(run_world(8, main, "meiko", "mpich"))
    assert ll < mp
