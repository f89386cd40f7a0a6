"""The stream transport under test.

TCP and reliable UDP are one engine (:mod:`repro.net.stream`) under two
wire formats, so the tests of what they share are written once, against
``stream_pair`` — a function ``pair(machine) -> (a, b)`` of connected
endpoints — and collected twice: with the TCP default below, and in
``test_udp_rudp.py``, which overrides the fixture with a reliable-UDP
pair and imports the same tests.
"""

import pytest

from repro.net.tcp import TcpLayer


def tcp_pair(m):
    return TcpLayer.connect_pair(m.kernels[0], m.kernels[1], 5000, 5000)


@pytest.fixture(scope="module")
def stream_pair():
    return tcp_pair
