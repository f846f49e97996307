"""Tests for Comm endpoints and payload sizing (repro.msg.endpoint)."""

import numpy as np
import pytest

from repro.msg.endpoint import Comm, payload_nbytes
from repro.sim import Cluster


def test_payload_nbytes_numpy():
    assert payload_nbytes(np.zeros(10, np.float64)) == 80
    assert payload_nbytes(np.zeros((4, 4), np.float32)) == 64


def test_payload_nbytes_scalars_and_bytes():
    assert payload_nbytes(b"abc") == 3
    assert payload_nbytes(3) == 8
    assert payload_nbytes(3.5) == 8
    assert payload_nbytes(True) == 8
    assert payload_nbytes(1 + 2j) == 16
    assert payload_nbytes(None) == 0


def test_payload_nbytes_containers():
    assert payload_nbytes((1, 2.0)) == 24        # 8 + 8 + container 8
    assert payload_nbytes([np.zeros(2, np.float64)]) == 24


def test_payload_nbytes_unknown_type_raises():
    with pytest.raises(TypeError):
        payload_nbytes(object())


def test_send_infers_numpy_size():
    def prog(env):
        comm = Comm(env)
        if env.pid == 0:
            yield from comm.send_gen(1, np.zeros(256, np.float32), tag=1)
        else:
            yield from comm.recv_gen(src=0, tag=1)

    r = Cluster(nprocs=2).run(prog)
    assert r.stats.bytes == 1024


def test_segmented_transfer_message_count():
    """A 10 KB section through a 4 KB transfer buffer = 3 messages."""

    def prog(env):
        comm = Comm(env, packet_bytes=4096)
        if env.pid == 0:
            yield from comm.send_gen(1, np.zeros(2560, np.float32), tag=1)   # 10 KB
        else:
            got = yield from comm.recv_gen(src=0, tag=1)
            return got.shape

    r = Cluster(nprocs=2).run(prog)
    assert r.results[1] == (2560,)
    assert r.messages == 3
    assert r.stats.bytes == 10240


def test_segmented_exact_multiple():
    def prog(env):
        comm = Comm(env, packet_bytes=4096)
        if env.pid == 0:
            yield from comm.send_gen(1, np.zeros(2048, np.float32), tag=1)   # exactly 8 KB
        else:
            yield from comm.recv_gen(src=0, tag=1)

    r = Cluster(nprocs=2).run(prog)
    assert r.messages == 2


def test_segmented_recv_requires_source():
    def prog(env):
        comm = Comm(env, packet_bytes=4096)
        if env.pid == 1:
            with pytest.raises(ValueError):
                yield from comm.recv_gen()

    Cluster(nprocs=2).run(prog)


def test_small_message_not_segmented():
    def prog(env):
        comm = Comm(env, packet_bytes=4096)
        if env.pid == 0:
            yield from comm.send_gen(1, b"x" * 100, tag=1)
        else:
            yield from comm.recv_gen(src=0, tag=1)

    r = Cluster(nprocs=2).run(prog)
    assert r.messages == 1


def test_recv_msg_exposes_metadata():
    def prog(env):
        comm = Comm(env)
        if env.pid == 0:
            yield from comm.send_gen(1, "x", tag=17)
        else:
            msg = yield from comm.recv_msg_gen(tag=17)
            return (msg.src, msg.tag)

    r = Cluster(nprocs=2).run(prog)
    assert r.results[1] == (0, 17)


def test_link_serialization_fifo_per_pair():
    """Two messages (big then small) on one src-dst pair arrive in order."""

    def prog(env):
        comm = Comm(env)
        if env.pid == 0:
            yield from comm.send_gen(1, "big", tag=1, nbytes=1_000_000)
            yield from comm.send_gen(1, "small", tag=1, nbytes=8)
        else:
            first = yield from comm.recv_gen(src=0, tag=1)
            second = yield from comm.recv_gen(src=0, tag=1)
            return (first, second)

    r = Cluster(nprocs=2).run(prog)
    assert r.results[1] == ("big", "small")


def test_receive_link_contention_serializes():
    """Seven senders pushing 1 MB each to one node cannot all land in the
    time one transfer takes (the FFT-transpose effect)."""
    MB = 1_000_000

    def prog(env):
        comm = Comm(env)
        if env.pid != 0:
            yield from comm.send_gen(0, "blob", tag=1, nbytes=MB)
        else:
            for _ in range(env.nprocs - 1):
                yield from comm.recv_gen(tag=1)
            return env.now

    r = Cluster(nprocs=8).run(prog)
    single = MB * Cluster(nprocs=2).model.byte_time
    assert r.results[0] >= 7 * single


# --------------------------------------------------------------------------- #
# carrier packets, payload sizing, and interleaving fixes


def test_segmented_none_payload_delivered():
    """A transported payload that is legitimately None must not be
    mistaken for a header-only carrier packet (it used to loop forever)."""

    def prog(env):
        comm = Comm(env, packet_bytes=4096)
        if env.pid == 0:
            yield from comm.send_gen(1, None, tag=1, nbytes=10240)    # 3 packets, None rides last
        else:
            return ("got", (yield from comm.recv_gen(src=0, tag=1)))

    r = Cluster(nprocs=2).run(prog)
    assert r.results[1] == ("got", None)
    assert r.messages == 3


def test_segmented_recv_requires_tag():
    def prog(env):
        comm = Comm(env, packet_bytes=4096)
        if env.pid == 1:
            with pytest.raises(ValueError, match="explicit.*tag"):
                yield from comm.recv_gen(src=0)

    Cluster(nprocs=2).run(prog)


def test_unsegmented_recv_rejects_carrier():
    """An unsegmented endpoint matching a segment carrier is a protocol
    mismatch and must fail loudly, not hand the carrier to the program."""

    def prog(env):
        seg = Comm(env, packet_bytes=4096)
        if env.pid == 0:
            yield from seg.send_gen(1, np.zeros(2560, np.float32), tag=1)    # 3 packets
        else:
            plain = Comm(env)
            with pytest.raises(RuntimeError, match="carrier"):
                yield from plain.recv_gen(src=0, tag=1)

    Cluster(nprocs=2).run(prog)


def test_payload_nbytes_object_dtype_raises():
    with pytest.raises(TypeError, match="object-dtype"):
        payload_nbytes(np.array([object(), object()], dtype=object))


def test_payload_nbytes_numpy_scalars_sized_like_python():
    assert payload_nbytes(np.float64(3.5)) == 8
    assert payload_nbytes(np.int32(7)) == 8
    assert payload_nbytes(np.bool_(True)) == 8
    assert payload_nbytes(np.complex128(1 + 2j)) == 16
    # 0-d arrays are scalars on the wire, not arrays
    assert payload_nbytes(np.array(3.5)) == 8
    assert payload_nbytes(np.array(1 + 2j)) == 16
    assert payload_nbytes(np.array(True)) == 8


def test_payload_nbytes_string_scalars():
    assert payload_nbytes("héllo") == len("héllo".encode()) == 6
    assert payload_nbytes(np.str_("abc")) == 3
    assert payload_nbytes(np.bytes_(b"abcd")) == 4


def test_segmented_matches_unsegmented_payload_and_bytes():
    """Property: segmentation changes packetization, never the payload or
    the accounted byte total."""
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=1, max_value=5000),
           packet=st.sampled_from([512, 1024, 4096]))
    def check(n, packet):
        data = np.arange(n, dtype=np.float64)

        def prog(env, packet_bytes):
            comm = Comm(env, packet_bytes=packet_bytes)
            if env.pid == 0:
                yield from comm.send_gen(1, data, tag=1)
            else:
                return (yield from comm.recv_gen(src=0, tag=1))

        seg = Cluster(nprocs=2).run(prog, args=(packet,))
        plain = Cluster(nprocs=2).run(prog, args=(None,))
        assert np.array_equal(seg.results[1], plain.results[1])
        assert seg.stats.bytes == plain.stats.bytes == data.nbytes

    check()


def test_deadlock_report_names_mailbox_and_filters():
    """When a recv never matches, the Deadlock message shows what IS in
    the mailbox and what the receiver was waiting for."""
    from repro.sim import Deadlock

    def prog(env):
        comm = Comm(env)
        if env.pid == 0:
            yield from comm.send_gen(1, "x", tag=7)
        else:
            yield from comm.recv_gen(src=0, tag=99)     # never sent

    with pytest.raises(Deadlock) as exc:
        Cluster(nprocs=2).run(prog)
    text = str(exc.value)
    assert "network state at deadlock" in text
    assert "tag=7" in text                       # what actually arrived
    assert "waiting on recv(src=0, tag=99)" in text   # what was wanted
