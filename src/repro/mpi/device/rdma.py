"""The ``rdma`` device: MVAPICH-style MPI over an RDMA-write fabric.

Protocol split (after "Design and Implementation of MPICH2 over
InfiniBand with RDMA Support"):

* **eager** — the sender memcpys the payload into a pre-registered
  bounce buffer and RDMA-writes it into one of the receiver's
  pre-posted slots.  The write completes locally (standard-mode sends
  finish at the doorbell); the receiver discovers it by polling the
  completion queue and memcpys the payload out to the user buffer.
  Flow control counts *slots*: each eager (or RTS) consumes one
  pre-posted slot at the receiver, returned piggybacked once the CQE
  is processed.
* **rendezvous** — the sender registers (pins) the user buffer and
  sends a 32-byte RTS; the receiver registers its own buffer and
  issues an RDMA READ that the sender's NIC services with **zero
  sender CPU**.  A FIN from the receiver retires the send.

Registration is the protocol's signature cost: ``reg_base`` per
``ibv_reg_mr`` call plus ``reg_per_page`` per pinned 4 KiB page.  The
:class:`RegistrationCache` (LRU over buffer identity, holding strong
references so a cached id can never be reused by a different live
buffer) collapses repeat registrations to ``reg_cache_hit_cost`` —
a *pure latency* optimization: simulated results must be byte-identical
with the cache disabled (``RdmaConfig(reg_cache=False)``), only faster.
Unbuffered receives (``buf=None``) land in the pre-registered pool and
always hit.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional

from repro.mpi.device.modern import ModernEndpoint

__all__ = ["RdmaConfig", "RegistrationCache", "RdmaEndpoint"]


@dataclass(frozen=True)
class RdmaConfig:
    """Cost model of the RDMA endpoint (µs / bytes)."""

    #: payloads at most this long go eager (measured crossover in
    #: docs/FABRICS.md sits near this switch point)
    eager_threshold: int = 8192
    #: pre-posted receive slots per peer (the eager flow-control credit)
    eager_slots: int = 128
    #: freed slots owed before an explicit credit update is sent
    credit_refresh: int = 64
    #: software send overhead (WQE build path entry)
    send_overhead: float = 0.3
    #: software receive-post overhead
    recv_overhead: float = 0.3
    #: doorbell + descriptor post
    post_overhead: float = 0.15
    #: per-CQE poll/dispatch cost
    cq_poll_cost: float = 0.1
    #: matching engine: first comparison / each additional
    match_cost: float = 0.25
    match_per_comparison: float = 0.05
    #: bounce-buffer memcpy (µs per byte, ~10 GB/s)
    copy_per_byte: float = 1.0 / 10000.0
    #: memory registration: syscall + per-page pinning
    reg_base: float = 0.8
    reg_per_page: float = 0.35
    page_bytes: int = 4096
    #: registration cache: capacity, hit cost, and master switch
    reg_cache_entries: int = 64
    reg_cache_hit_cost: float = 0.05
    reg_cache: bool = True
    #: receiver-side retirement of a completed READ
    completion_overhead: float = 0.15
    max_unexpected: int = 4096
    strict_ready: bool = True

    def with_overrides(self, **kw) -> "RdmaConfig":
        return replace(self, **kw)


class RegistrationCache:
    """LRU cache of pinned regions, keyed by buffer identity.

    Entries hold a strong reference to the buffer object, so a cached
    key (``id(buf)``) always denotes the *same live object* — identity
    reuse after garbage collection can never produce a false hit, which
    keeps hit/miss sequences deterministic across runs.
    """

    def __init__(self, entries: int, enabled: bool):
        self.entries = entries
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self._lru: "OrderedDict[int, object]" = OrderedDict()

    def lookup(self, buf) -> bool:
        """Register *buf*; True when it was already pinned (cache hit)."""
        if not self.enabled:
            self.misses += 1
            return False
        if buf is None:
            # unbuffered receives land in the pre-registered pool
            self.hits += 1
            return True
        key = id(buf)
        if key in self._lru:
            self._lru.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._lru[key] = buf
        if len(self._lru) > self.entries:
            self._lru.popitem(last=False)
        return False

    def snapshot(self) -> dict:
        return {
            "enabled": self.enabled,
            "hits": self.hits,
            "misses": self.misses,
            "pinned": len(self._lru),
        }


class RdmaEndpoint(ModernEndpoint):
    """One rank's endpoint on the ``rdma`` fabric."""

    def __init__(self, world_rank: int, host, config: Optional[RdmaConfig] = None):
        super().__init__(world_rank, host, config or RdmaConfig())
        self.reg_cache = RegistrationCache(self.config.reg_cache_entries,
                                           self.config.reg_cache)

    # ------------------------------------------------------------ flow units
    def _flow_initial(self) -> int:
        return self.config.eager_slots

    def _flow_need(self, nbytes: int, eager: bool) -> int:
        return 1  # every eager payload or RTS lands in one pre-posted slot

    # ------------------------------------------------------------ cost hooks
    def _register(self, buf, nbytes: int):
        cfg = self.config
        if self.reg_cache.lookup(buf):
            yield from self.host.cpu.execute(cfg.reg_cache_hit_cost)
            return
        pages = max(1, -(-nbytes // cfg.page_bytes))
        yield from self.host.cpu.execute(cfg.reg_base + pages * cfg.reg_per_page)

    def _eager_inject(self, nbytes: int):
        # memcpy into the pre-registered bounce buffer, then doorbell
        cfg = self.config
        yield from self.host.cpu.execute(
            nbytes * cfg.copy_per_byte + cfg.post_overhead)

    def _eager_deliver(self, nbytes: int):
        # memcpy out of the landing slot into the user buffer
        yield from self.host.cpu.execute(nbytes * self.config.copy_per_byte)

    def _rdv_expose(self, req, nbytes: int):
        yield from self._register(req.buf, nbytes)
        yield from self.host.cpu.execute(self.config.post_overhead)

    def _rdv_prepare_pull(self, req, nbytes: int):
        yield from self._register(req.buf, nbytes)
        yield from self.host.cpu.execute(self.config.post_overhead)

    def _rdv_complete(self, nbytes: int):
        yield from self.host.cpu.execute(self.config.completion_overhead)

    # ---------------------------------------------------------- observability
    def _flow_snapshot(self) -> dict:
        snap = super()._flow_snapshot()
        snap["registration_cache"] = self.reg_cache.snapshot()
        return snap
