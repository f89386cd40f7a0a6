"""Liveness of the credit-flow engine (``repro.mpi.device.flow``) on
every cell it serves.

The engine returns freed credits piggybacked on reverse traffic; when
there is none, the only way a stalled sender ever moves again is the
explicit ``CREDIT`` unit of ``_refresh_credits``.  A one-way flood is
the workload that has nothing to piggyback on.
"""

import pytest

from repro.mpi import World
from repro.mpi.device.cluster import ClusterConfig
from repro.mpi.device.cxl import CxlConfig
from repro.mpi.device.rdma import RdmaConfig
from repro.obs import EventBus
from tests.conftest import CLUSTER_DEVICES, MODERN_DEVICES

NMSG = 24
PAYLOAD = 200  # eager on every cell

#: a reservation that admits only a few of the NMSG messages, and a
#: refresh threshold that hands back everything owed once idle
TIGHT = {
    "tcp": ClusterConfig(reserve_bytes=1024, credit_refresh=1),
    "udp": ClusterConfig(reserve_bytes=1024, credit_refresh=1),
    "rdma": RdmaConfig(eager_slots=3, credit_refresh=1),
    "cxl": CxlConfig(segment_bytes=1024, credit_refresh=1),
}


@pytest.mark.parametrize("platform, device", CLUSTER_DEVICES + MODERN_DEVICES,
                         ids=lambda v: v)
def test_one_way_flood_drains_on_explicit_credits(platform, device):
    """Rank 0 posts far more eager messages than the reservation admits;
    rank 1 only receives and never sends.  The flood drains, the
    receiver grants credits explicitly, and the sender ends with its
    full reservation back."""
    bus = EventBus()
    world = World(2, platform=platform, device=device, obs=bus,
                  device_config=TIGHT[device])
    sender = world.platform.endpoints[0]
    initial = sender._flow_initial()
    assert sender._flow_need(PAYLOAD, True) * NMSG > initial  # a real flood

    def main(comm):
        if comm.rank == 0:
            reqs = []
            for i in range(NMSG):
                reqs.append((yield from comm.isend(bytes([i]) * PAYLOAD, dest=1, tag=i)))
            yield from comm.waitall(reqs)
            # the last grants are still in flight: keep polling (iprobe
            # drives progress) until they are banked, within a bound
            for _ in range(200):
                if sender.credits[1] == initial:
                    break
                yield from comm.iprobe(source=1, tag=0)
                yield comm.endpoint.sim.timeout(50.0)
            return None
        got = []
        for i in range(NMSG):
            data, _ = yield from comm.recv(source=0, tag=i)
            got.append(bytes(data))
        return got

    res = world.run(main)
    assert res[1] == [bytes([i]) * PAYLOAD for i in range(NMSG)]
    assert any(e.rank == 0 for e in bus.by_kind("stall.credit"))
    grants = list(bus.by_kind("credit.grant"))
    assert grants and all(e.rank == 1 and e.detail["peer"] == 0 for e in grants)
    assert sender.credits[1] == initial
    assert not sender.sendq
