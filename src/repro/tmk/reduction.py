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
primitive instead of the lock chain; ``benchmarks/test_ext_reductions.py``
measures the difference.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.tmk.intervals import records_unknown_to, SeenVector
from repro.tmk.lrc import sync_nbytes
from repro.tmk.protocol import TmkNode

__all__ = ["tmk_reduce_gen", "REDUCE_OPS"]

TAG_REDUCE_UP = 1_000_006
TAG_REDUCE_DOWN = 1_000_007

REDUCE_OPS: dict = {
    "sum": lambda a, b: a + b,
    "max": max,
    "min": min,
}


def _children(pid: int, nprocs: int) -> list:
    out = []
    lowbit = pid & -pid if pid else nprocs
    bit = 1
    while bit < nprocs and bit < lowbit:
        if pid + bit < nprocs:
            out.append(pid + bit)
        bit <<= 1
    return out


def _parent(pid: int) -> Optional[int]:
    if pid == 0:
        return None
    return pid & (pid - 1)


def tmk_reduce_gen(node: TmkNode, value, op: Callable = None,
                   op_name: str = "sum"):
    """Combine ``value`` across all processors; every processor returns the
    result.  A collective: all processors must call it together (generator
    of block requests).

    Carries lazy-RC consistency information both ways, so it doubles as a
    global synchronization (like a barrier whose messages also do work).
    """
    if op is None:
        op = REDUCE_OPS[op_name]
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
    for child in _children(node.pid, nprocs):
        msg = yield from node.net.recv_gen(proc, node.pid, src=child,
                                           tag=TAG_REDUCE_UP)
        child_value, records, seen = msg.payload
        acc = op(acc, child_value)
        yield from node.apply_records(records, log=True)
        if mon is not None:
            mon.channel_acquire(node.pid, child, "reduce-up")
        gathered.append((child, seen))
    parent = _parent(node.pid)
    if parent is not None:
        records = list(node.log_current)
        payload = (acc, records, node.seen.as_tuple())
        nbytes = sync_nbytes(records, model)
        if mon is not None:
            mon.channel_put(node.pid, parent, "reduce-up",
                            mon.release(node.pid))
        yield from node.net.send_gen(node.pid, parent, payload,
                                     tag=TAG_REDUCE_UP, nbytes=nbytes,
                                     category="sync")
        msg = yield from node.net.recv_gen(proc, node.pid, src=parent,
                                           tag=TAG_REDUCE_DOWN)
        result, records = msg.payload
        yield from node.apply_records(records, log=True)
        if mon is not None:
            mon.channel_acquire(node.pid, parent, "reduce-down")
    else:
        result = acc
    # downward: result + the records each subtree is missing
    down_snap = mon.release(node.pid) if (mon is not None and gathered) \
        else None
    for child, child_seen in gathered:
        sv = SeenVector(nprocs)
        sv.v = list(child_seen)
        records = records_unknown_to(node.retained_log, sv)
        nbytes = sync_nbytes(records, model)
        if mon is not None:
            mon.channel_put(node.pid, child, "reduce-down", down_snap)
        yield from node.net.send_gen(node.pid, child, (result, records),
                                     tag=TAG_REDUCE_DOWN, nbytes=nbytes,
                                     category="sync")
    node.prune_log()
    node.advance_epoch()
    return result
