"""Distributed linear equation solver (paper, Section 6.1).

Gaussian elimination with row-cyclic distribution:

1. the initiator generates the system and scatters the rows
   (the "initial phase of computation by the initiator");
2. N phases: the owner of pivot row k **broadcasts** it, every process
   eliminates its rows below k (this is the only communication, so the
   program's scaling is dominated by broadcast quality — hardware
   broadcast vs point-to-point, Figure 7);
3. the initiator gathers the triangularized system and back-substitutes
   (the "final phase of result gathering").

Floating-point work is charged to the simulated CPU at ``flop_time``
µs/flop and *also actually performed* with NumPy, so results are
verifiable.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["generate_system", "linsolve"]

#: default per-flop cost, µs (a 40 MHz SPARC doing ~10 MFLOPS)
DEFAULT_FLOP_TIME = 0.1


def generate_system(n: int, seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """A well-conditioned random n×n system (diagonally dominant)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += np.eye(n) * n  # diagonal dominance: no pivoting needed
    b = rng.standard_normal(n)
    return a, b


def linsolve(
    comm,
    n: int = 64,
    seed: int = 0,
    flop_time: float = DEFAULT_FLOP_TIME,
    quantum: float = 50.0,
    a: Optional[np.ndarray] = None,
    b: Optional[np.ndarray] = None,
):
    """Generator: solve an n×n system on *comm*.

    Returns ``(x, elapsed_us)`` at rank 0 and ``(None, elapsed_us)``
    elsewhere.  ``a``/``b`` may be supplied at rank 0 (otherwise a
    seeded random system is generated there).
    """
    size, rank = comm.size, comm.rank
    host = comm.endpoint.host
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")

    # --- initial phase: the initiator builds and distributes the system
    if rank == 0:
        if a is None or b is None:
            a, b = generate_system(n, seed)
        else:
            a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        if a.shape != (n, n) or b.shape != (n,):
            raise ConfigurationError(f"system shape mismatch for n={n}")
        chunks = [
            (a[np.arange(r, n, size)].copy(), b[np.arange(r, n, size)].copy())
            for r in range(size)
        ]
    else:
        chunks = None
    my_a, my_b = yield from comm.scatter(chunks, root=0)
    my_rows = np.arange(rank, n, size)

    t0 = comm.wtime()
    # --- N phases of broadcast + elimination
    pivot = np.empty(n + 1, dtype=np.float64)
    for k in range(n):
        owner = k % size
        if rank == owner:
            local_idx = (k - rank) // size
            pivot[:n] = my_a[local_idx]
            pivot[n] = my_b[local_idx]
        yield from comm.bcast(pivot, root=owner)
        # my rows below k (rank, rank+size, ... > k) are a suffix of mine
        first = 0 if k < rank else (k - rank) // size + 1
        nbelow = len(my_a) - first
        if nbelow > 0:
            factors = my_a[first:, k] / pivot[k]
            my_a[first:, k:] -= factors[:, None] * pivot[k:n]
            my_b[first:] -= factors * pivot[n]
            # 2 flops per updated element, plus the factor divisions
            flops = nbelow * (2 * (n - k) + 1)
            yield from host.compute(flops * flop_time, quantum=quantum)

    # --- final phase: gather at the initiator and back-substitute
    gathered = yield from comm.gather((my_rows, my_a, my_b), root=0)
    elapsed = comm.wtime() - t0
    if rank != 0:
        return None, elapsed

    u = np.empty((n, n))
    c = np.empty(n)
    for rows, ra, rb in gathered:
        u[rows] = ra
        c[rows] = rb
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (c[k] - u[k, k + 1:] @ x[k + 1:]) / u[k, k]
    yield from host.compute(n * n * flop_time, quantum=quantum)
    return x, elapsed
