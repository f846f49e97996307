"""Tests for the protocol tracer — and the protocol invariants it exposes."""

import numpy as np
import pytest

from repro.tmk.api import tmk_run
from repro.tmk.trace import TraceEvent


def setup(space):
    space.alloc("x", (4, 1024), np.float32)


def traced_run(prog, nprocs=3, **kw):
    return tmk_run(nprocs, prog, setup, trace=True, **kw)


def _exchange(tmk):
    x = tmk.array("x")
    lo, hi = tmk.block_range(4)
    for it in range(3):
        if hi > lo:
            cur = (yield from x.read_gen((slice(lo, hi),))).copy()
            yield from x.write_gen((slice(lo, hi),), cur + 1.0)
        yield from tmk.barrier_gen()
        nxt = (tmk.pid + 1) % tmk.nprocs
        yield from x.read_gen((slice(nxt, nxt + 1),))
        yield from tmk.barrier_gen()
    return True


def test_trace_records_events():
    r = traced_run(_exchange)
    assert len(r.trace) > 0
    counts = r.trace.counts()
    assert counts.get("barrier", 0) == 6 * 3
    assert counts.get("fault", 0) > 0
    assert counts.get("twin", 0) > 0
    assert counts.get("interval-close", 0) > 0


def test_trace_query_filters():
    r = traced_run(_exchange)
    for ev in r.trace.query(kind="fault", pid=1):
        assert ev.kind == "fault" and ev.pid == 1
    pages = {ev.page for ev in r.trace.query(kind="fetch")}
    assert pages <= {0, 1, 2, 3}


def test_trace_page_history_readable():
    r = traced_run(_exchange)
    hist = r.trace.page_history(0)
    assert "p" in hist and "ms]" in hist
    assert r.trace.page_history(999).startswith("(no events")


def test_trace_event_str():
    ev = TraceEvent(0.001, 2, "fetch", 5, {"writers": [0]})
    s = str(ev)
    assert "p2" in s and "fetch" in s and "page=5" in s


def test_untraced_run_has_no_overhead_hooks():
    r = tmk_run(2, _exchange, setup)
    assert not hasattr(r, "trace")


# ---------------------------------------------------------------------- #
# protocol invariants checked over the trace

def test_invariant_every_fetch_follows_invalidation():
    """A page is only fetched after a write notice invalidated it."""
    r = traced_run(_exchange, nprocs=4)
    invalidated_at: dict = {}
    for ev in r.trace.events:
        key = (ev.pid, ev.page)
        if ev.kind == "invalidate":
            invalidated_at[key] = ev.time
        elif ev.kind == "fetch":
            assert key in invalidated_at, (
                f"fetch without prior invalidation: {ev}")
            assert invalidated_at[key] <= ev.time


def test_invariant_fetch_targets_are_writers():
    """Every fetch goes only to processors that announced writes."""
    r = traced_run(_exchange, nprocs=4)
    writers_of: dict = {}
    for ev in r.trace.events:
        if ev.kind == "invalidate":
            writers_of.setdefault((ev.pid, ev.page), set()).add(
                ev.detail["writer"])
        elif ev.kind == "fetch":
            expected = writers_of.get((ev.pid, ev.page), set())
            assert set(ev.detail["writers"]) <= expected | {ev.pid}, ev


def test_invariant_trace_times_monotone():
    r = traced_run(_exchange)
    times = [ev.time for ev in r.trace.events]
    assert times == sorted(times)


def test_traced_and_untraced_runs_agree():
    """Tracing must not perturb the simulation."""
    a = tmk_run(3, _exchange, setup)
    b = traced_run(_exchange)
    assert a.time == b.time
    assert a.messages == b.messages
