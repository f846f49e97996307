"""Collective operations over :class:`~repro.msg.endpoint.Comm`.

Implemented with the algorithms a mid-90s library would use on an SP/2:

* broadcast and reduce as binomial trees (``n-1`` messages, logarithmic
  depth),
* allreduce as reduce + broadcast,
* alltoall as direct pairwise exchange (``n(n-1)`` messages) — this is the
  pattern 3-D FFT's transpose uses, where the paper observes the hand-coded
  message-passing version needs ~30x fewer messages than the DSM.

These are the collectives the shipped programs call: the message-passing
programs need no barrier (data messages carry the synchronization).

Every collective is, well, collective: all ranks must call it with matching
arguments; internal phase tags are drawn deterministically per call.

Each is one generator of engine block requests (``bcast_gen``, ...), which
a program -- the compiled XHPF one, the hand-coded PVMe ones through
:class:`~repro.msg.pvme.Pvme` -- delegates to with ``yield from``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.msg.endpoint import Comm
from repro.sim.cluster import tree_children, tree_parent

__all__ = ["bcast_gen", "reduce_gen", "allreduce_gen", "alltoall_gen"]


def bcast_gen(comm: Comm, value: Any, root: int = 0,
              tag: Optional[int] = None):
    """Binomial-tree broadcast; returns the value on every rank."""
    tag = comm.next_tag() if tag is None else tag
    if comm.rank != root:
        value = yield from comm.recv_gen(
            src=tree_parent(comm.rank, root, comm.size), tag=tag)
    for child in tree_children(comm.rank, root, comm.size):
        yield from comm.send_gen(child, value, tag=tag)
    return value


def reduce_gen(comm: Comm, value: Any, op: Callable[[Any, Any], Any],
               root: int = 0, tag: Optional[int] = None):
    """Binomial-tree reduction; result valid only on ``root``."""
    tag = comm.next_tag() if tag is None else tag
    acc = value
    for child in tree_children(comm.rank, root, comm.size):
        acc = op(acc, (yield from comm.recv_gen(src=child, tag=tag)))
    parent = tree_parent(comm.rank, root, comm.size)
    if parent is not None:
        yield from comm.send_gen(parent, acc, tag=tag)
        return None
    return acc


def allreduce_gen(comm: Comm, value: Any, op: Callable[[Any, Any], Any]):
    """Reduce to rank 0, then broadcast the result."""
    acc = yield from reduce_gen(comm, value, op, root=0)
    return (yield from bcast_gen(comm, acc, root=0))


def alltoall_gen(comm: Comm, values: list, tag: Optional[int] = None):
    """Direct pairwise exchange: ``values[d]`` goes to rank ``d``.

    Returns the rank-ordered received list.  ``n(n-1)`` messages total.
    """
    tag = comm.next_tag() if tag is None else tag
    if len(values) != comm.size:
        raise ValueError("alltoall needs one slot per rank")
    out: list = [None] * comm.size
    out[comm.rank] = values[comm.rank]
    for shift in range(1, comm.size):
        dst = (comm.rank + shift) % comm.size
        yield from comm.send_gen(dst, values[dst], tag=tag)
    for _ in range(comm.size - 1):
        msg = yield from comm.recv_msg_gen(tag=tag)
        out[msg.src] = msg.payload
    return out
