"""Unit tests for the simulated interconnect (repro.sim.network)."""

import pytest

from repro.sim import ANY_SOURCE, ANY_TAG, Cluster
from repro.sim.network import NetworkStats


def run2(prog):
    return Cluster(nprocs=2).run(prog)


def test_send_recv_payload_roundtrip():
    def prog(env):
        if env.pid == 0:
            env.net.send(env.proc, 0, 1, {"k": 1}, tag=5, nbytes=100)
        else:
            msg = env.net.recv(env.proc, 1, tag=5)
            assert msg.payload == {"k": 1}
            assert msg.src == 0 and msg.tag == 5
            return msg.payload

    r = run2(prog)
    assert r.results[1] == {"k": 1}


def test_recv_blocks_until_delivery():
    def prog(env):
        if env.pid == 0:
            yield from env.compute_gen(1.0)
            yield from env.net.send_gen(0, 1, "late", nbytes=8)
        else:
            yield from env.net.recv_gen(env.proc, 1)
            return env.now

    r = run2(prog)
    assert r.results[1] > 1.0


def test_tag_matching_skips_nonmatching():
    def prog(env):
        if env.pid == 0:
            env.net.send(env.proc, 0, 1, "a", tag=1, nbytes=8)
            env.net.send(env.proc, 0, 1, "b", tag=2, nbytes=8)
        else:
            got_b = env.net.recv(env.proc, 1, tag=2).payload
            got_a = env.net.recv(env.proc, 1, tag=1).payload
            return (got_a, got_b)

    r = run2(prog)
    assert r.results[1] == ("a", "b")


def test_source_matching():
    def prog(env):
        if env.pid < 2:
            env.net.send(env.proc, env.pid, 2, f"from{env.pid}", tag=9,
                         nbytes=8)
        elif env.pid == 2:
            m1 = env.net.recv(env.proc, 2, src=1, tag=9).payload
            m0 = env.net.recv(env.proc, 2, src=0, tag=9).payload
            return (m0, m1)

    r = Cluster(nprocs=3).run(prog)
    assert r.results[2] == ("from0", "from1")


def test_any_source_any_tag():
    def prog(env):
        if env.pid == 0:
            env.net.send(env.proc, 0, 1, "x", tag=42, nbytes=8)
        else:
            msg = env.net.recv(env.proc, 1, src=ANY_SOURCE, tag=ANY_TAG)
            return (msg.src, msg.tag, msg.payload)

    r = run2(prog)
    assert r.results[1] == (0, 42, "x")


def test_two_waiters_same_endpoint_disjoint_tags():
    """A node's main program and its server may both block in recv."""

    def prog(env):
        if env.pid == 0:
            yield from env.compute_gen(0.01)
            yield from env.net.send_gen(0, 1, "for-server", tag=100, nbytes=8)
            yield from env.compute_gen(0.01)
            yield from env.net.send_gen(0, 1, "for-main", tag=200, nbytes=8)
        else:
            got = []

            def server():
                msg = yield from env.net.recv_gen(srv, 1, tag=100)
                got.append(msg.payload)

            srv = env.spawn_server("srv", server)
            msg = yield from env.net.recv_gen(env.proc, 1, tag=200)
            got.append(msg.payload)
            return got

    r = run2(prog)
    assert r.results[1] == ["for-server", "for-main"]


def test_larger_messages_take_longer():
    def prog(env):
        if env.pid == 0:
            env.net.send(env.proc, 0, 1, "small", tag=1, nbytes=10)
        else:
            env.net.recv(env.proc, 1, tag=1)
            return env.now

    t_small = run2(prog).results[1]

    def prog_big(env):
        if env.pid == 0:
            env.net.send(env.proc, 0, 1, "big", tag=1, nbytes=1_000_000)
        else:
            env.net.recv(env.proc, 1, tag=1)
            return env.now

    t_big = run2(prog_big).results[1]
    assert t_big > t_small


def test_stats_count_messages_and_bytes():
    def prog(env):
        if env.pid == 0:
            env.net.send(env.proc, 0, 1, "a", nbytes=1000, category="data")
            env.net.send(env.proc, 0, 1, "b", nbytes=24, category="sync")
        else:
            env.net.recv(env.proc, 1)
            env.net.recv(env.proc, 1)

    r = run2(prog)
    assert r.stats.messages == 2
    assert r.stats.bytes == 1024
    assert r.stats.kilobytes == 1.0
    assert r.stats.by_category["data"] == [1, 1000]
    assert r.stats.by_category["sync"] == [1, 24]


def test_stats_snapshot_and_delta():
    stats = NetworkStats()
    stats.record("data", 100)
    snap = stats.snapshot()
    stats.record("data", 50)
    stats.record("sync", 8)
    delta = stats.delta(snap)
    assert delta.messages == 2
    assert delta.bytes == 58
    assert delta.by_category["data"] == [1, 50]
    assert delta.by_category["sync"] == [1, 8]
    # snapshot unaffected
    assert snap.messages == 1


def test_probe_nonblocking():
    def prog(env):
        if env.pid == 0:
            assert not env.net.probe(0)
            yield from env.net.send_gen(0, 1, "x", tag=3, nbytes=8)
        else:
            yield from env.compute_gen(0.1)   # let the message arrive
            assert env.net.probe(1, tag=3)
            assert not env.net.probe(1, tag=4)
            yield from env.net.recv_gen(env.proc, 1, tag=3)
            assert not env.net.probe(1, tag=3)

    run2(prog)


def test_bad_destination_rejected():
    def prog(env):
        if env.pid == 0:
            with pytest.raises(Exception):
                env.net.send(env.proc, 0, 99, "x", nbytes=8)

    run2(prog)


def test_negative_size_rejected():
    def prog(env):
        if env.pid == 0:
            with pytest.raises(ValueError):
                env.net.send(env.proc, 0, 1, "x", nbytes=-1)

    run2(prog)


def test_send_holds_the_sender_for_its_overhead():
    times = {}

    def prog(env):
        if env.pid == 0:
            t0 = env.now
            env.net.send(env.proc, 0, 1, "x", nbytes=8)
            times["send"] = env.now - t0
            times["overhead"] = env.model.send_overhead
        else:
            env.net.recv(env.proc, 1)

    run2(prog)
    assert times["send"] == times["overhead"] > 0.0
