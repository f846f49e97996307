"""Tests for the machine model and cluster runner (repro.sim)."""

import pytest

from repro.sim import Cluster, SP2_MODEL
from repro.sim.machine import PAGE_SIZE


def test_default_model_is_sp2_shaped():
    m = SP2_MODEL
    assert PAGE_SIZE == 4096
    with pytest.raises(TypeError):      # a constant, not a machine field
        m.with_(page_size=2048)
    assert 0 < m.latency < 1e-3
    assert m.byte_time > 0
    assert m.mp_packet_bytes == 4096


def test_message_time_scales_with_size():
    m = SP2_MODEL
    assert m.message_time(100_000) > m.message_time(100) > m.latency


def test_with_override_creates_copy():
    m = SP2_MODEL.with_(latency=1.0)
    assert m.latency == 1.0
    assert SP2_MODEL.latency != 1.0
    assert m.byte_time == SP2_MODEL.byte_time


def test_diff_cost_helpers():
    m = SP2_MODEL
    assert m.diff_create_time(4096) > m.diff_create_overhead
    assert m.diff_apply_time(0) == m.diff_apply_overhead


def test_cluster_requires_positive_procs():
    with pytest.raises(ValueError):
        Cluster(nprocs=0)


def test_cluster_is_single_use():
    def prog(env):
        yield from ()       # a generator program that never blocks

    c = Cluster(nprocs=1)
    c.run(prog)
    with pytest.raises(RuntimeError):
        c.run(prog)


def test_env_identity_and_compute():
    def prog(env):
        assert 0 <= env.pid < env.nprocs
        yield from env.compute_gen(0.5)
        return (env.pid, env.now, env.busy_time)

    r = Cluster(nprocs=3).run(prog)
    assert [res[0] for res in r.results] == [0, 1, 2]
    assert all(res[1] == 0.5 and res[2] == 0.5 for res in r.results)


def test_negative_compute_rejected():
    def prog(env):
        with pytest.raises(ValueError):
            yield from env.compute_gen(-1.0)

    Cluster(nprocs=1).run(prog)


def test_run_args_reach_every_process():
    def prog(env, shared):
        yield from ()
        return (shared, env.pid)

    r = Cluster(nprocs=3).run(prog, args=("s",))
    assert r.results == [("s", 0), ("s", 1), ("s", 2)]


def test_marks_and_window():
    def prog(env):
        yield from env.compute_gen(1.0)
        env.mark("start")
        yield from env.compute_gen(2.0)
        if env.pid == 0:
            yield from env.net.send_gen(0, 1, "x", nbytes=100)
        else:
            yield from env.net.recv_gen(env.proc, 1)
        env.mark("stop")
        yield from env.compute_gen(5.0)   # outside the window

    r = Cluster(nprocs=2).run(prog)
    elapsed, traffic = r.window()
    assert 2.0 <= elapsed < 3.0
    assert traffic.messages == 1
    assert r.time >= 8.0


def test_window_without_marks_falls_back_to_whole_run():
    def prog(env):
        yield from env.compute_gen(1.0)

    r = Cluster(nprocs=2).run(prog)
    elapsed, traffic = r.window()
    assert elapsed == r.time
    assert traffic.messages == r.messages


def test_run_result_speedup():
    def prog(env):
        yield from env.compute_gen(1.0)

    r = Cluster(nprocs=2).run(prog)
    assert r.speedup(8.0) == pytest.approx(8.0)


def test_model_nprocs_adjusted_to_cluster():
    c = Cluster(nprocs=5)
    assert c.model.nprocs == 5


BAD_MACHINES = [{"latency": -1}, {"byte_time": float("nan")},
                {"latency": float("inf")}, {"mp_packet_bytes": 100.5},
                {"send_overhead": "60e-6"}, {"nprocs": True}]


@pytest.mark.parametrize("machine", BAD_MACHINES, ids=str)
def test_bad_machine_override_is_refused(machine):
    """Overrides come from outside the program (``--machine``, the wire):
    a negative, non-finite, fractional-int or non-number field is refused
    before the run, at every tier, instead of reporting a nonsense time."""
    from repro.api import RunRequest, execute
    from repro.api.execute import InProcess

    request = RunRequest("jacobi", "spf", nprocs=2, preset="test",
                         machine=machine)
    with pytest.raises(ValueError):
        execute(request)
    ((_index, result),) = InProcess().stream([request])
    assert not result.ok and result.error_kind == "ValueError"
