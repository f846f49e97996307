"""Scheduling efficiency at every tier, independent of host speed.

A run that only sleeps (``serve_helpers.echo_runner``'s ``slow:S:`` tag)
makes a batch's makespan a function of the scheduler alone.  One fixed
skewed batch — 48 requests, every fourth 40 ms, the rest 5 ms — runs
through a pool, through :class:`WireClient` to a :class:`WireServer`
over that pool, and through a fleet of two such hosts.  Each must finish
within 1.25 x the list-scheduling bound, ``max(total / workers,
longest)``, plus ``ALLOWANCE_S`` per request for the lines it crosses.
A second case closes one host's server mid-batch, as a host loss, and
bounds the survivor's recovery the same way.  A dispatcher that waits
for a whole round of results before sending the next (a per-round
barrier) reads about 1.75 x through the wire and the fleet.
"""

import time

import pytest

from repro.api import RunRequest
from repro.serve import FleetService, RunService, WireClient
from tests.serve_helpers import served

ECHO = "tests.serve_helpers:echo_runner"

DURATIONS = [0.040 if i % 4 == 0 else 0.005 for i in range(48)]
BATCH = [RunRequest("jacobi", "spf", nprocs=2, preset="test", seq_time=1.0,
                    tag=f"slow:{d}:r{i}") for i, d in enumerate(DURATIONS)]

#: the messages of one request, on a loaded 2-vCPU host: a few hops of
#: JSON lines and socket wake-ups, well under a millisecond each
ALLOWANCE_S = 0.001


def bound(durations, workers: int) -> float:
    """What the gate allows for ``durations`` on ``workers`` workers."""
    ideal = max(sum(durations) / workers, max(durations))
    return 1.25 * ideal + ALLOWANCE_S * len(durations)


@pytest.fixture(scope="module")
def pools():
    """Two 2-worker pools, started before any server thread (forked)."""
    with RunService(workers=2, runner=ECHO) as one, \
            RunService(workers=2, runner=ECHO) as two:
        yield one, two


@pytest.fixture
def hosts(pools):
    with served(pools[0]) as one, served(pools[1]) as two:
        yield one, two


def _makespan(service) -> float:
    batch = service.run_batch(BATCH)
    assert batch.ok, [r.error for r in batch.failures()]
    return batch.wall_s


def test_pool_makespan(pools):
    assert _makespan(pools[0]) <= bound(DURATIONS, 2)


def test_wire_makespan(hosts):
    with WireClient(hosts[0].host, hosts[0].port) as client:
        assert _makespan(client) <= bound(DURATIONS, 2)


def test_fleet_makespan(hosts):
    with FleetService([f"{s.host}:{s.port}" for s in hosts]) as fleet:
        assert _makespan(fleet) <= bound(DURATIONS, 4)


def test_a_lost_host_is_recovered_within_the_bound(hosts):
    with FleetService([f"{s.host}:{s.port}" for s in hosts],
                      retries=0) as fleet:
        done: set = set()
        for index, result in fleet.stream(BATCH):
            assert result.ok and index not in done
            done.add(index)
            if len(done) == 8:
                hosts[0].close()             # its runs in flight are lost
                lost_at = time.perf_counter()
                left = [d for i, d in enumerate(DURATIONS) if i not in done]
        recovery = time.perf_counter() - lost_at
        assert len(done) == len(BATCH)
        assert fleet.stats()["fleet"]["hosts_lost"] == 1
    # the survivor's two workers rerun what the lost host held, in full
    assert recovery <= bound(left, 2)
