"""The RDMA registration cache is a pure latency optimization.

Pinning memory is the RDMA rendezvous path's signature cost; the cache
(keyed by buffer identity, MVAPICH-style) may only make runs *faster*,
never change what they compute.  Property checked two ways:

* semantics — for a spread of fuzzed programs, the canonical semantic
  trace on ``modern-rdma`` is byte-identical with the cache disabled
  (``RdmaConfig(reg_cache=False)``);
* latency — a repeated-buffer rendezvous ping-pong is strictly slower
  with the cache off (every iteration pays the full pin cost).

The hit/miss counters surface through ``state_snapshot()`` (the same
dump the deadlock watchdog attaches), so a hung run also shows whether
registrations were being cached.
"""

from functools import partial

import pytest

from repro.bench.harness import mpi_pingpong_rtt
from repro.conformance.executor import canonical_trace, differential, run_program
from repro.conformance.grammar import generate
from repro.mpi import World
from repro.mpi.device import rdma
from repro.mpi.device.rdma import RdmaConfig, RegistrationCache

RDV_BYTES = 65536  # far above the 8 KiB eager threshold
NO_CACHE = RdmaConfig(reg_cache=False)


def _cache_off(monkeypatch):
    """Every rdma endpoint built without a config gets the cache off
    (for entry points that take no ``device_config``)."""
    monkeypatch.setattr(rdma, "RdmaConfig", partial(RdmaConfig, reg_cache=False))
    endpoint = World(1, platform="modern", device="rdma").platform.endpoints[0]
    assert endpoint.reg_cache.enabled is False


def _canon(program):
    return canonical_trace(run_program(program, "modern", "rdma"))


@pytest.mark.parametrize("seed", [1, 11, 21, 31])
def test_disabled_cache_is_byte_identical(seed, monkeypatch):
    program = generate(seed, profile="mixed")
    with_cache = _canon(program)
    _cache_off(monkeypatch)
    without_cache = _canon(program)
    assert with_cache == without_cache


def test_disabled_cache_still_passes_the_differential(monkeypatch):
    """The no-cache rdma cell still agrees with the whole matrix."""
    _cache_off(monkeypatch)
    result = differential(generate(7, profile="pt2pt"))
    assert result.ok, result.summary()


def test_cache_is_a_pure_latency_win():
    """Rendezvous on a reused buffer: cache off = strictly slower,
    eager (no registration on the bounce path) = identical timing."""
    warm = mpi_pingpong_rtt("modern", "rdma", RDV_BYTES, repeats=3)
    cold = mpi_pingpong_rtt("modern", "rdma", RDV_BYTES, repeats=3,
                            device_config=NO_CACHE)
    assert cold > warm
    eager_on = mpi_pingpong_rtt("modern", "rdma", 1024, repeats=3)
    eager_off = mpi_pingpong_rtt("modern", "rdma", 1024, repeats=3,
                                 device_config=NO_CACHE)
    assert eager_on == eager_off


def test_counters_exposed_through_state_snapshot():
    world = World(2, platform="modern", device="rdma")

    def main(comm):
        payload = bytes(RDV_BYTES)
        for tag in (1, 2, 3):
            if comm.rank == 0:
                yield from comm.send(payload, dest=1, tag=tag)
            else:
                yield from comm.recv(source=0, tag=tag)

    world.run(main)
    for ep in world.platform.endpoints:
        cache = ep.state_snapshot()["flow"]["registration_cache"]
        assert cache["enabled"] is True
        assert cache["hits"] + cache["misses"] >= 1
    sender = world.platform.endpoints[0].state_snapshot()
    # same payload object re-pinned per send: first is the miss
    assert sender["flow"]["registration_cache"]["misses"] == 1
    assert sender["flow"]["registration_cache"]["hits"] == 2


def test_disabled_cache_counts_misses():
    world = World(2, platform="modern", device="rdma", device_config=NO_CACHE)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(bytes(RDV_BYTES), dest=1, tag=1)
        else:
            yield from comm.recv(source=0, tag=1)

    world.run(main)
    cache = world.platform.endpoints[0].state_snapshot()["flow"]["registration_cache"]
    assert cache["enabled"] is False
    assert cache["hits"] == 0
    assert cache["misses"] >= 1


# ---------------------------------------------------------------- unit level


def test_lru_holds_strong_references_and_evicts():
    cache = RegistrationCache(entries=2, enabled=True)
    a, b, c = bytearray(8), bytearray(8), bytearray(8)
    assert cache.lookup(a) is False     # miss, pinned
    assert cache.lookup(a) is True      # hit
    assert cache.lookup(b) is False
    assert cache.lookup(c) is False     # evicts a (LRU)
    assert cache.lookup(a) is False     # a was evicted: miss again
    snap = cache.snapshot()
    assert snap["pinned"] == 2
    assert snap["hits"] == 1
    assert snap["misses"] == 4
    # pinned entries hold strong refs: a cached id always denotes the
    # same live object, so identity reuse cannot fake a hit
    import sys

    assert sys.getrefcount(c) >= 3  # local + cache + getrefcount arg


def test_unbuffered_receives_hit_the_preregistered_pool():
    cache = RegistrationCache(entries=4, enabled=True)
    assert cache.lookup(None) is True
    assert cache.snapshot()["hits"] == 1


def test_config_switch_disables_cache():
    cfg = RdmaConfig(reg_cache=False)
    world = World(2, platform="modern", device="rdma", device_config=cfg)

    def main(comm):
        if comm.rank == 0:
            yield from comm.send(bytes(RDV_BYTES), dest=1, tag=1)
        else:
            yield from comm.recv(source=0, tag=1)

    world.run(main)
    cache = world.platform.endpoints[0].state_snapshot()["flow"]["registration_cache"]
    assert cache["enabled"] is False
