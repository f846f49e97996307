"""The compiler–runtime fork-join interface of Section 2.3.

The SPF compiler expects fork-join semantics: a master executes the
sequential program and dispatches encapsulated parallel-loop subroutines to
workers.  Two implementations are provided:

:class:`OldForkJoin`
    The paper's *initial* implementation: plain TreadMarks barriers
    encapsulate each parallel loop, and the loop control variables
    (subroutine index and parameters) travel through two shared-memory
    pages that every worker page-faults in.  Cost per parallel loop:
    two barriers (``4(n-1)`` messages) plus two control-page faults per
    worker (``4(n-1)`` messages) = ``8(n-1)``.

:class:`ImprovedForkJoin`
    The optimized interface the paper's results use: explicit one-to-all
    *departure* (fork) and all-to-one *arrival* (join) messages, with the
    control variables and consistency information piggybacked on the fork.
    Cost per parallel loop: ``2(n-1)`` messages.

Both are proper synchronization operations of the lazy-RC protocol: a fork
is a release by the master and an acquire by each worker; a join is the
reverse.  ``benchmarks/test_sec23_interface.py`` reproduces the 8(n-1) →
2(n-1) reduction and its execution-time effect.

Each operation is one generator of engine block requests (``fork_gen``,
``join_gen``, ...), which the compiled SPF program delegates to with
``yield from``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tmk.intervals import records_unknown_to, SeenVector
from repro.tmk.lrc import fork_nbytes, sync_nbytes
from repro.tmk.pagespace import SharedSpace
from repro.tmk.protocol import TAG_FORK, TAG_JOIN, TmkNode
from repro.tmk.shared import SharedArray
from repro.tmk import sync as _sync

__all__ = ["OldForkJoin", "ImprovedForkJoin", "alloc_old_interface_control",
           "STOP"]

STOP = -1
CTRL_SUB = "__fj_sub"
CTRL_ARG = "__fj_arg"
MAX_ARGS = 32


def alloc_old_interface_control(space: SharedSpace) -> None:
    """Allocate the two control pages the old interface communicates through.

    They are distinct shared pages on purpose — the paper notes "the two
    sets of control variables reside in different shared pages, incurring
    two requests to obtain them for each parallel loop."
    """
    space.alloc(CTRL_SUB, (8,), np.float64)          # one page
    space.alloc(CTRL_ARG, (MAX_ARGS,), np.float64)   # another page


class _ForkJoin:
    """What both interfaces share: the node, its process, and shutdown."""

    def __init__(self, node: TmkNode):
        self.node = node
        self.proc = node.proc
        self.is_master = node.pid == 0

    def shutdown_gen(self):
        return self.fork_gen(STOP)


class OldForkJoin(_ForkJoin):
    """Fork-join built from barriers + shared control pages (initial design)."""

    def __init__(self, node: TmkNode):
        super().__init__(node)
        self.sub = SharedArray(node, node.world.space[CTRL_SUB])
        self.arg = SharedArray(node, node.world.space[CTRL_ARG])

    # ---- master side ---------------------------------------------------

    def fork_gen(self, sub_id: int, params: Sequence[float] = (),
                 payload=None):
        if payload is not None:
            raise ValueError("the old interface cannot piggyback data")
        if len(params) > MAX_ARGS:
            raise ValueError("too many loop parameters")
        yield from self.sub.write_gen(
            (slice(0, 2),), [float(sub_id), float(len(params))])
        if len(params):
            yield from self.arg.write_gen(
                (slice(0, len(params)),),
                np.asarray(params, dtype=np.float64))
        yield from _sync.barrier_gen(self.node)     # wakes the workers

    def join_gen(self):
        return _sync.barrier_gen(self.node)

    # ---- worker side ---------------------------------------------------

    def wait_for_work_gen(self):
        """Block until the master forks; returns (sub_id, params) or None."""
        yield from _sync.barrier_gen(self.node)     # departure releases us
        head = yield from self.sub.read_gen((slice(0, 2),))  # page fault #1
        sub_id, nargs = int(head[0]), int(head[1])
        args = yield from self.arg.read_gen(
            (slice(0, max(nargs, 1)),))                      # page fault #2
        params = tuple(args[:nargs].tolist())
        if sub_id == STOP:
            return None
        return sub_id, params

    def work_done_gen(self):
        return _sync.barrier_gen(self.node)


class ImprovedForkJoin(_ForkJoin):
    """Fork-join with dedicated one-to-all / all-to-one messages (Sec 2.3)."""

    def __init__(self, node: TmkNode):
        super().__init__(node)
        if self.is_master:
            self._worker_seen = {w: SeenVector(node.nprocs)
                                 for w in range(1, node.nprocs)}

    # ---- master side ---------------------------------------------------

    def fork_gen(self, sub_id: int, params: Sequence[float] = (),
                 payload=None):
        """One-to-all departure carrying control variables (and optionally a
        piggybacked data payload, used by the hand-optimized MGS)."""
        node = self.node
        node.close_interval()
        model = node.model
        mon = node.world.race_monitor
        snap = mon.release(node.pid) if mon is not None else None
        for w in range(1, node.nprocs):
            records = records_unknown_to(node.retained_log,
                                         self._worker_seen[w])
            nbytes = fork_nbytes(records, model)
            body = (sub_id, tuple(params), records, payload)
            if payload is not None:
                nbytes += payload.nbytes_on_wire
            yield from node.net.send_gen(node.pid, w, body, tag=TAG_FORK,
                                         nbytes=nbytes, category="sync")
            if mon is not None:
                mon.channel_put(node.pid, w, "fork", snap)
            self._worker_seen[w] = node.seen.copy()
        node.prune_log()
        node.advance_epoch()

    def join_gen(self):
        """All-to-one arrival: collect every worker's records."""
        node = self.node
        node.close_interval()
        mon = node.world.race_monitor
        for _ in range(node.nprocs - 1):
            msg = yield from node.net.recv_gen(self.proc, node.pid,
                                               tag=TAG_JOIN)
            records, seen = msg.payload
            yield from node.apply_records(records, log=True)
            w = msg.src
            if mon is not None:
                mon.channel_acquire(node.pid, w, "join")
            sv = SeenVector(node.nprocs)
            sv.v = list(seen)
            self._worker_seen[w] = sv

    # ---- worker side ---------------------------------------------------

    def wait_for_work_gen(self):
        node = self.node
        msg = yield from node.net.recv_gen(self.proc, node.pid, src=0,
                                           tag=TAG_FORK)
        sub_id, params, records, payload = msg.payload
        yield from node.apply_records(records, log=False)
        mon = node.world.race_monitor
        if mon is not None:
            mon.channel_acquire(node.pid, 0, "fork")
        if payload is not None:
            yield from payload.install_gen(node)
        node.advance_epoch()
        if sub_id == STOP:
            return None
        return sub_id, params

    def work_done_gen(self):
        node = self.node
        node.close_interval()
        records = list(node.log_current)
        node.prune_log()
        mon = node.world.race_monitor
        if mon is not None:
            mon.channel_put(node.pid, 0, "join", mon.release(node.pid))
        yield from node.net.send_gen(
            node.pid, 0, (records, node.seen.as_tuple()), tag=TAG_JOIN,
            nbytes=sync_nbytes(records, node.model), category="sync")
