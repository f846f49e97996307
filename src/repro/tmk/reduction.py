"""Efficient reduction support — the first §8 enhancement, implemented.

Section 8 of the paper: "These enhancements will include efficient support
for reductions ...".  The baseline SPF code (Section 2.1) reduces through a
lock-protected shared scalar: every processor acquires the lock, faults the
scalar's page across the machine, updates it, and releases — a serial chain
of lock forwards and page fetches (3 + 2 messages per processor, fully
serialized).

:func:`tmk_reduce_gen` instead combines partial values up a binomial tree with
dedicated messages and hands the result to every processor on the way back
down: ``2(n-1)`` small messages, logarithmic depth, no page faults, no
locks.  It is a *synchronization* operation of the lazy-RC protocol exactly
like the fork-join pair: the upward combine is a release (interval records
ride along), the downward broadcast is an acquire — so shared-memory
consistency is preserved for programs that use the reduction as their only
synchronization point.

``SpfOptions(tree_reductions=True)`` makes the SPF backend emit this
primitive instead of the lock chain; ``benchmarks/test_ext_enhancements.py``
measures the difference.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.cluster import tree_children, tree_parent
from repro.tmk.intervals import records_unknown_to
from repro.tmk.lrc import sync_nbytes
from repro.tmk.protocol import TmkNode

__all__ = ["tmk_reduce_gen"]

TAG_REDUCE_UP = 1_000_006
TAG_REDUCE_DOWN = 1_000_007


def tmk_reduce_gen(node: TmkNode, value, op: Callable):
    """Combine ``value`` across all processors with ``op(a, b)``; every
    processor returns the result.  A collective: all processors must call
    it together (generator of block requests).

    Carries lazy-RC consistency information both ways, so it doubles as a
    global synchronization (like a barrier whose messages also do work).
    """
    world = node.world
    world.dsm_stats.tree_reductions += 1
    proc = node.proc
    model = node.model
    nprocs = node.nprocs
    mon = world.race_monitor
    if nprocs == 1:
        node.close_interval()
        node.advance_epoch()
        return value

    node.close_interval()                     # release: our writes publish
    acc = value
    gathered: list = []
    for child in tree_children(node.pid, 0, nprocs):
        msg = yield from node.net.recv_gen(proc, node.pid, src=child,
                                           tag=TAG_REDUCE_UP)
        child_value, records, seen, clock = msg.payload
        acc = op(acc, child_value)
        yield from node.apply_records(records, log=True)
        if mon is not None:
            mon.merge(node.pid, clock)
        gathered.append((child, seen))
    parent = tree_parent(node.pid, 0, nprocs)
    if parent is not None:
        records = list(node.log_current)
        clock = mon.release(node.pid) if mon is not None else None
        payload = (acc, records, node.seen.as_tuple(), clock)
        nbytes = sync_nbytes(records, model)
        yield from node.net.send_gen(node.pid, parent, payload,
                                     tag=TAG_REDUCE_UP, nbytes=nbytes,
                                     category="sync")
        msg = yield from node.net.recv_gen(proc, node.pid, src=parent,
                                           tag=TAG_REDUCE_DOWN)
        result, records, clock = msg.payload
        yield from node.apply_records(records, log=True)
        if mon is not None:
            mon.merge(node.pid, clock)
    else:
        result = acc
    # downward: result + the records each subtree is missing
    clock = mon.release(node.pid) if (mon is not None and gathered) \
        else None
    for child, child_seen in gathered:
        records = records_unknown_to(node.retained_log, child_seen)
        nbytes = sync_nbytes(records, model)
        yield from node.net.send_gen(node.pid, child,
                                     (result, records, clock),
                                     tag=TAG_REDUCE_DOWN, nbytes=nbytes,
                                     category="sync")
    node.prune_log()
    node.advance_epoch()
    return result
