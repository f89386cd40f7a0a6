"""Properties of the collective-algorithm registry and auto-selector.

Three families of guarantees (see ``docs/COLLECTIVES.md``):

* **selection is pure** — :func:`repro.mpi.coll.registry.select` is a
  function of ``(collective, nbytes, nranks, table)`` only, so every
  rank of a communicator picks the same algorithm without negotiation;
* **styles never change results** — every registered algorithm of every
  collective produces the identical result on power-of-two,
  non-power-of-two, and single-rank communicators;
* **resolution precedence** — explicit ``style=`` beats the platform
  tuning table, which has a row for every styled collective on every
  cell; the process environment plays no part (it is not in the result
  cache's key).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mpi import World
from repro.mpi.coll import registry
from repro.platforms import COLL_TUNING
from tests.mpi.conftest import run_world

#: collectives with a forced-style knob and at least two algorithms
STYLED = ["bcast", "allreduce", "barrier", "gather", "scatter", "allgather"]
#: every collective whose dispatcher calls ``registry.resolve``
RESOLVED = STYLED + ["reduce"]


# ---------------------------------------------------------------- selection
def test_select_is_pure_and_names_registered_algorithms():
    """Same inputs, same answer — over every shipped tuning table, and
    every answer is a registered algorithm of that collective."""
    sizes = [0, 1, 1024, 16384, 65536, 1 << 20]
    ranks = [1, 2, 8, 64, 128, 512, 10_000]
    for cell, table in COLL_TUNING.items():
        for coll in list(table) + ["scan"]:
            for nbytes in sizes:
                for nranks in ranks:
                    a = registry.select(coll, nbytes, nranks, table)
                    b = registry.select(coll, nbytes, nranks, table)
                    assert a == b, (cell, coll, nbytes, nranks)
                    if a is not None:
                        assert a in registry.algorithms(coll), (cell, coll, a)


def test_select_precedence_large_beats_wide_beats_small():
    table = {"bcast": {
        "small": "linear", "wide": "binomial", "wide_ranks": 16,
        "large": "scatter_allgather", "large_bytes": 4096,
        "large_max_ranks": 64,
    }}
    # below both crossovers
    assert registry.select("bcast", 8, 4, table) == "linear"
    # wide crossover
    assert registry.select("bcast", 8, 16, table) == "binomial"
    # large beats wide while under the rank cap
    assert registry.select("bcast", 4096, 32, table) == "scatter_allgather"
    # the rank cap pushes a large payload back to the wide choice
    assert registry.select("bcast", 4096, 65, table) == "binomial"
    # no table / no entry -> None
    assert registry.select("bcast", 8, 4, None) is None
    assert registry.select("scan", 8, 4, table) is None


def test_documented_crossovers_per_platform():
    """The crossover shape docs/COLLECTIVES.md documents, pinned."""
    ll = COLL_TUNING["meiko-lowlatency"]
    # the hardware broadcast never crosses over on the low-latency device
    for nbytes, nranks in [(8, 2), (1 << 20, 8), (64, 10_000)]:
        assert registry.select("bcast", nbytes, nranks, ll) == "hardware"
    # allreduce: ring takes over at 64 KiB but only up to 128 ranks
    assert registry.select("allreduce", 16384, 8, ll) == "reduce_bcast"
    assert registry.select("allreduce", 65536, 128, ll) == "ring"
    assert registry.select("allreduce", 65536, 256, ll) == "reduce_bcast"
    # barrier: dissemination small, tree from 512 ranks
    assert registry.select("barrier", 0, 8, ll) == "dissemination"
    assert registry.select("barrier", 0, 512, ll) == "tree"
    # mpich: binomial small, scatter-allgather from 64 KiB
    mp = COLL_TUNING["meiko-mpich"]
    assert registry.select("bcast", 16384, 16, mp) == "binomial"
    assert registry.select("bcast", 65536, 16, mp) == "scatter_allgather"
    for cell in ("atm-tcp", "atm-udp", "ethernet-tcp", "ethernet-udp"):
        table = COLL_TUNING[cell]
        assert registry.select("bcast", 64, 4, table) == "linear"
        assert registry.select("bcast", 64, 16, table) == "binomial"
        assert registry.select("allreduce", 65536, 32, table) == "ring"
        assert registry.select("allreduce", 65536, 128, table) == "reduce_bcast"
    # scatter-allgather bcast pays off on switched ATM, never on the
    # shared-medium Ethernet (one wire serializes every byte anyway)
    for cell in ("atm-tcp", "atm-udp"):
        assert registry.select("bcast", 65536, 32,
                               COLL_TUNING[cell]) == "scatter_allgather"
    for cell in ("ethernet-tcp", "ethernet-udp"):
        assert registry.select("bcast", 65536, 32,
                               COLL_TUNING[cell]) == "binomial"


# ------------------------------------------------------- style equivalence
def _equivalence_main(comm):
    size = comm.size
    # bcast: every style delivers the root's buffer, nonzero root too
    expect = np.arange(17, dtype=np.int64)
    for style in [None] + registry.algorithms("bcast"):
        for root in (0, size - 1):
            buf = expect.copy() if comm.rank == root \
                else np.zeros(17, dtype=np.int64)
            yield from comm.bcast(buf, root=root, style=style)
            assert np.array_equal(buf, expect), (style, root)
    # allreduce: all styles bit-identical (exact int arithmetic)
    send = np.arange(size + 3, dtype=np.int64) + comm.rank
    base = yield from comm.allreduce(send)
    for style in registry.algorithms("allreduce"):
        res = yield from comm.allreduce(send, style=style)
        assert np.array_equal(res, base), style
    # reduce
    for style in [None] + registry.algorithms("reduce"):
        r = yield from comm.reduce(
            np.full(4, comm.rank + 1, dtype=np.int64), root=0, style=style
        )
        if comm.rank == 0:
            assert int(r[0]) == size * (size + 1) // 2, style
    # barrier: completing at all is the property
    for style in [None] + registry.algorithms("barrier"):
        yield from comm.barrier(style=style)
    # gather / scatter / allgather on objects, nonzero roots included
    want = [b"r%d" % r for r in range(size)]
    for style in [None] + registry.algorithms("gather"):
        for root in (0, size - 1):
            out = yield from comm.gather(b"r%d" % comm.rank, root=root,
                                         style=style)
            if comm.rank == root:
                assert out == want, (style, root)
            else:
                assert out is None
    for style in [None] + registry.algorithms("scatter"):
        for root in (0, size - 1):
            chunks = want if comm.rank == root else None
            mine = yield from comm.scatter(chunks, root=root, style=style)
            assert mine == b"r%d" % comm.rank, (style, root)
    for style in [None] + registry.algorithms("allgather"):
        out = yield from comm.allgather(b"r%d" % comm.rank, style=style)
        assert out == want, style
    return True


@pytest.mark.parametrize("nprocs", [1, 3, 5, 8])
@pytest.mark.parametrize(
    "platform, device", [("meiko", "lowlatency"), ("ethernet", "tcp")]
)
def test_every_style_matches_the_default(platform, device, nprocs):
    """All registered algorithms agree on power-of-two, odd, and
    single-rank communicators, on a Meiko and a cluster fabric."""
    assert all(run_world(nprocs, _equivalence_main, platform, device))


def test_registry_has_multiple_algorithms_per_collective():
    for coll in STYLED:
        assert len(registry.algorithms(coll)) >= 2, coll
    assert registry.algorithms("bcast") == [
        "linear", "binomial", "hardware", "scatter_allgather"
    ]


def test_unknown_style_raises_naming_the_options():
    def main(comm):
        yield from comm.barrier(style="bogus")

    with pytest.raises(ValueError, match="unknown barrier style 'bogus'"):
        World(2, platform="meiko", device="lowlatency").run(main)


# ------------------------------------------------------------- resolution
class _StubEndpoint:
    coll_tuning = {"bcast": {"small": "linear"}}


class _StubComm:
    size = 8
    endpoint = _StubEndpoint()


def test_resolve_precedence(monkeypatch):
    comm = _StubComm()
    # table only
    assert registry.resolve(comm, "bcast", None, 64) == "linear"
    # the removed process-wide override no longer reaches resolution
    monkeypatch.setenv("REPRO_COLL_BCAST", "binomial")
    assert registry.resolve(comm, "bcast", None, 64) == "linear"
    # explicit style beats the table
    assert registry.resolve(comm, "bcast", "scatter_allgather", 64) \
        == "scatter_allgather"
    # there is no third tier: a table without the row is an error
    with pytest.raises(ConfigurationError, match="no 'barrier' row"):
        registry.resolve(comm, "barrier", None, 0)


def test_every_cell_resolves_every_styled_collective():
    """Resolution is total: each shipped table names a registered
    default for every collective that resolves a style."""
    for cell, table in COLL_TUNING.items():
        for coll in RESOLVED:
            assert table[coll]["small"] in registry.algorithms(coll), (cell, coll)
