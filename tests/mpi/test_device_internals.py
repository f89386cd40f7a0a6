"""Device-internal unit tests: wire encodings, envelope round trips,
tag-word layouts — the bits that must be exactly right."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mpi.constants import (
    MODE_BUFFERED,
    MODE_READY,
    MODE_STANDARD,
    MODE_SYNCHRONOUS,
    TAG_UB,
)
from repro.mpi.device.cluster import HEADER_BYTES, StreamEndpoint, _ENV
from repro.mpi.device.mpich import (
    FLAG_SYNC,
    MASK_CHAN,
    MASK_EXACT,
    decode_tag,
    encode_tag,
)
from repro.mpi.envelope import ENVELOPE_WIRE_BYTES, Envelope


# ---------------------------------------------------------------------------
# cluster-device wire format (Table 1's 25 bytes)
# ---------------------------------------------------------------------------


def test_header_is_25_bytes():
    """1 type byte + 4 credit bytes + 20-byte envelope (paper, Table 1)."""
    assert HEADER_BYTES == 25
    assert _ENV.size == ENVELOPE_WIRE_BYTES == 20


@given(
    src=st.integers(min_value=0, max_value=2**15 - 1),
    context=st.integers(min_value=0, max_value=2**16 - 1),
    tag=st.integers(min_value=0, max_value=TAG_UB),
    nbytes=st.integers(min_value=0, max_value=2**31 - 1),
    cookie=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from([MODE_STANDARD, MODE_BUFFERED, MODE_SYNCHRONOUS, MODE_READY]),
)
def test_envelope_wire_roundtrip(src, context, tag, nbytes, cookie, mode):
    """Pack/unpack through the 20-byte wire record is lossless."""
    env = Envelope(src=src, tag=tag, context=context, nbytes=nbytes,
                   mode=mode, cookie=cookie)
    from repro.mpi.device.cluster import _MODES

    raw = _ENV.pack(env.src, env.context, env.tag, env.nbytes,
                    env.cookie or 0, _MODES[env.mode])
    back = StreamEndpoint._unpack_env(raw, src_world=7)
    assert back.src == src
    assert back.context == context
    assert back.tag == tag
    assert back.nbytes == nbytes
    assert back.cookie == cookie
    assert back.mode == mode
    assert back.extra == 7


# ---------------------------------------------------------------------------
# mpich tag-word layout
# ---------------------------------------------------------------------------


@given(
    context=st.integers(min_value=0, max_value=2**16 - 1),
    field=st.integers(min_value=0, max_value=2**32 - 1),
    chan=st.integers(min_value=0, max_value=2),
    flags=st.integers(min_value=0, max_value=2**12 - 1),
)
def test_tag_word_roundtrip(context, field, chan, flags):
    word = encode_tag(context, field, chan, flags)
    assert decode_tag(word) == (context, chan, field, flags)


def test_mask_exact_ignores_flags_only():
    a = encode_tag(3, 42, 0, 0)
    b = encode_tag(3, 42, 0, FLAG_SYNC)
    assert (a & MASK_EXACT) == (b & MASK_EXACT)
    c = encode_tag(3, 43, 0, 0)
    assert (a & MASK_EXACT) != (c & MASK_EXACT)


def test_mask_chan_matches_any_tag_same_channel():
    a = encode_tag(3, 42, 0, 0)
    b = encode_tag(3, 9999, 0, FLAG_SYNC)
    assert (a & MASK_CHAN) == (b & MASK_CHAN)
    # different channel does not match (ack vs user)
    c = encode_tag(3, 42, 1, 0)
    assert (a & MASK_CHAN) != (c & MASK_CHAN)
    # different context does not match
    d = encode_tag(4, 42, 0, 0)
    assert (a & MASK_CHAN) != (d & MASK_CHAN)


def test_collective_channel_separated_from_user():
    user = encode_tag(0, 5, chan=0)
    coll = encode_tag(0, 5, chan=2)
    assert (user & MASK_CHAN) != (coll & MASK_CHAN)


# ---------------------------------------------------------------------------
# envelope matching rules
# ---------------------------------------------------------------------------


@given(
    src=st.integers(min_value=0, max_value=15),
    tag=st.integers(min_value=0, max_value=100),
    context=st.integers(min_value=0, max_value=5),
)
def test_envelope_exact_match_property(src, tag, context):
    env = Envelope(src=src, tag=tag, context=context, nbytes=0)
    assert env.matches(src, tag, context, any_source=-1, any_tag=-1)
    assert env.matches(-1, tag, context, any_source=-1, any_tag=-1)
    assert env.matches(src, -1, context, any_source=-1, any_tag=-1)
    assert not env.matches(src + 1, tag, context, any_source=-1, any_tag=-1)
    assert not env.matches(src, tag + 1, context, any_source=-1, any_tag=-1)
    assert not env.matches(src, tag, context + 1, any_source=-1, any_tag=-1)


# ---------------------------------------------------------------------------
# mpich probe: the Elan's queue scan races arrivals
# ---------------------------------------------------------------------------


def _probe_while_a_message_lands(send_at):
    """Rank 0 holds four unexpected messages from rank 1 and probes for
    the last (a scan of 4 x elan_match = 26 us from ~t=2000); rank 2's
    message is sent at *send_at*.  Returns rank 0's observations."""
    from repro.mpi import World

    def main(comm):
        sim = comm.endpoint.sim
        if comm.rank == 1:
            for tag in range(4):
                yield from comm.send(bytes(8), dest=0, tag=tag)
        elif comm.rank == 2:
            yield sim.timeout(send_at)
            yield from comm.send(bytes(16), dest=0, tag=9)
        else:
            yield sim.timeout(2000.0)
            flag, status = yield from comm.iprobe(source=1, tag=3)
            seen = (flag, status.source, status.tag, status.count_bytes)
            elapsed = comm.wtime() - 2000.0
            late = yield from comm.probe(source=2, tag=9)
            for tag in range(4):
                yield from comm.recv(source=1, tag=tag)
            data, _ = yield from comm.recv(source=2, tag=9)
            return seen, elapsed, late.count_bytes, len(data)

    return World(3, platform="meiko", device="mpich").run(main)[0]


def test_mpich_probe_survives_an_arrival_landing_mid_scan():
    """An arrival appended to the tport's unexpected queue while the
    probe's scan is charging a match step used to raise ``RuntimeError:
    deque mutated during iteration`` (fuzz seeds 4016/pt2pt, 3033/fault).
    Sweeping the third rank's send across the scan window must change
    nothing the prober observes: same hit, same probe cost."""
    quiet = _probe_while_a_message_lands(send_at=5000.0)
    assert quiet[0] == (True, 1, 3, 8) and quiet[2:] == (16, 16)
    for send_at in range(1950, 2050, 2):
        assert _probe_while_a_message_lands(float(send_at)) == quiet, send_at


def test_mpich_blocking_probe_polls_the_elan_every_probe_interval():
    """A blocking probe on mpich re-asks the Elan once per
    ``probe_interval`` until the message is there: with the send issued
    at t = 5000 us it returns at 5137.3 us, and the whole run (probe,
    then the receive) takes 2435 simulator events."""
    from repro.mpi import World

    world = World(2, platform="meiko", device="mpich")

    def main(comm):
        sim = comm.endpoint.sim
        if comm.rank == 1:
            yield sim.timeout(5000.0)
            yield from comm.send(bytes(16), dest=0, tag=9)
        else:
            status = yield from comm.probe(source=1, tag=9)
            returned = (comm.wtime(), sim._seq, status.source, status.count_bytes)
            data, _ = yield from comm.recv(source=1, tag=9)
            return returned, len(data)

    assert world.run(main)[0] == ((5137.3, 2419, 1, 16), 16)
    assert world.sim._seq == 2435
