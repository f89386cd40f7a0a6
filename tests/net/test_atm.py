"""ATM tests: cell math, switch forwarding, port contention, SAR offload."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.hw.atm import AAL34, AAL5, AtmNic, AtmParams, AtmSwitch, aal_cells, aal_wire_bytes
from repro.hw.node import Host
from repro.sim import Simulator
from tests.net.fakes import DropIf


# ---------------------------------------------------------------------------
# adaptation layers
# ---------------------------------------------------------------------------


def test_aal5_cell_counts():
    p = AtmParams()
    assert aal_cells(1, AAL5, p) == 1
    assert aal_cells(40, AAL5, p) == 1  # 40 + 8 trailer = 48, fits one cell
    assert aal_cells(41, AAL5, p) == 2
    assert aal_cells(96, AAL5, p) == 3  # 96+8 = 104 -> 3 cells


def test_aal34_more_cells_than_aal5():
    """AAL3/4's 4-byte per-cell SAR header costs cells (paper, Sec. 5)."""
    p = AtmParams()
    for n in (100, 1000, 9000):
        assert aal_cells(n, AAL34, p) >= aal_cells(n, AAL5, p)


def test_aal34_cell_counts():
    p = AtmParams()
    assert aal_cells(44, AAL34, p) == 1
    assert aal_cells(45, AAL34, p) == 2


def test_wire_bytes_are_whole_cells():
    p = AtmParams()
    assert aal_wire_bytes(100, AAL5, p) % 53 == 0


def test_bad_aal_rejected():
    with pytest.raises(ValueError):
        aal_cells(10, "aal9", AtmParams())
    with pytest.raises(ValueError):
        aal_cells(-1, AAL5, AtmParams())


@given(st.integers(min_value=0, max_value=9000))
def test_aal5_covers_payload_plus_trailer(n):
    p = AtmParams()
    cells = aal_cells(n, AAL5, p)
    assert cells * p.aal5_payload >= n + p.aal5_trailer
    if cells > 1:
        assert (cells - 1) * p.aal5_payload < n + p.aal5_trailer


# ---------------------------------------------------------------------------
# switch + NIC
# ---------------------------------------------------------------------------


def build(n=2):
    sim = Simulator()
    params = AtmParams()
    switch = AtmSwitch(sim, params, nports=max(8, n))
    hosts = [Host(sim, i) for i in range(n)]
    nics = [AtmNic(h, switch) for h in hosts]
    return sim, switch, hosts, nics


def test_pdu_delivered():
    sim, switch, hosts, nics = build()
    got = []
    nics[1].rx_handler = lambda pdu: got.append(pdu)
    nics[0].send(1, 500, "data")
    sim.run()
    assert len(got) == 1
    assert got[0].payload == "data"
    assert got[0].ncells == aal_cells(500, AAL5, switch.params)


def test_latency_scales_with_cells():
    def one_way(nbytes):
        sim, switch, hosts, nics = build()
        t = []
        nics[1].rx_handler = lambda pdu: t.append(sim.now)
        nics[0].send(1, nbytes, None)
        sim.run()
        return t[0]

    small, large = one_way(40), one_way(8000)
    assert large > small
    # the large PDU is serialized twice (input link + output port)
    p = AtmParams()
    extra_cells = aal_cells(8000, AAL5, p) - aal_cells(40, AAL5, p)
    assert large - small >= 2 * extra_cells * p.cell_time() * 0.9


def test_output_port_contention_serializes():
    """Two senders to one receiver share its output port; disjoint pairs
    don't interfere (the ATM advantage in Figure 9)."""
    sim, switch, hosts, nics = build(4)
    arrivals = {}
    nics[2].rx_handler = lambda pdu: arrivals.setdefault(("to2", pdu.src), sim.now)
    nics[3].rx_handler = lambda pdu: arrivals.setdefault(("to3", pdu.src), sim.now)
    # contended: 0->2 and 1->2; then disjoint: 0->2 and 1->3
    nics[0].send(2, 4000, None)
    nics[1].send(2, 4000, None)
    sim.run()
    contended_spread = abs(arrivals[("to2", 0)] - arrivals[("to2", 1)])

    sim2, switch2, hosts2, nics2 = build(4)
    arrivals2 = {}
    nics2[2].rx_handler = lambda pdu: arrivals2.setdefault(("to2", pdu.src), sim2.now)
    nics2[3].rx_handler = lambda pdu: arrivals2.setdefault(("to3", pdu.src), sim2.now)
    nics2[0].send(2, 4000, None)
    nics2[1].send(3, 4000, None)
    sim2.run()
    disjoint_spread = abs(arrivals2[("to2", 0)] - arrivals2[("to3", 1)])

    train = aal_cells(4000, AAL5, switch.params) * switch.params.cell_time()
    assert contended_spread >= train * 0.9
    assert disjoint_spread < train * 0.5


def test_sar_runs_on_i960_not_host():
    sim, switch, hosts, nics = build()
    nics[1].rx_handler = lambda pdu: None
    nics[0].send(1, 8000, None)
    sim.run()
    assert nics[0].i960.busy_time > 0
    assert hosts[0].cpu.busy_time == 0  # host CPU untouched by SAR


def test_oversize_pdu_rejected():
    sim, switch, hosts, nics = build()
    with pytest.raises(NetworkError):
        nics[0].send(1, 20000, None)


def test_unknown_port_rejected():
    sim, switch, hosts, nics = build(2)
    from repro.hw.atm.nic import Pdu

    with pytest.raises(NetworkError):
        switch.forward(Pdu(0, 7, 100, 3, AAL5, None))


def test_loss_injection():
    sim = Simulator()
    params = AtmParams()
    switch = AtmSwitch(sim, params, injector=DropIf(lambda nbytes: True))
    hosts = [Host(sim, i) for i in range(2)]
    nics = [AtmNic(h, switch) for h in hosts]
    got = []
    nics[1].rx_handler = lambda pdu: got.append(pdu)
    nics[0].send(1, 100, None)
    sim.run()
    assert got == []
    assert switch.pdus_dropped == 1
