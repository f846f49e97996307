"""Collective operations over :class:`~repro.msg.endpoint.Comm`.

Implemented with the algorithms a mid-90s library would use on an SP/2:

* broadcast and reduce as binomial trees (``n-1`` messages, logarithmic
  depth),
* allreduce as reduce + broadcast,
* gather/allgather linear to/from the root (PVM semantics),
* alltoall as direct pairwise exchange (``n(n-1)`` messages) — this is the
  pattern 3-D FFT's transpose uses, where the paper observes the hand-coded
  message-passing version needs ~30x fewer messages than the DSM,
* a dissemination barrier for completeness (hand-coded message-passing
  programs rarely need it; data messages carry the synchronization).

Every collective is, well, collective: all ranks must call it with matching
arguments; internal phase tags are drawn deterministically per call.

Each is one generator of engine block requests (``bcast_gen``, ...), which
a program -- the compiled XHPF one, the hand-coded PVMe ones through
:class:`~repro.msg.pvme.Pvme` -- delegates to with ``yield from``.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.msg.endpoint import Comm

__all__ = ["bcast_gen", "reduce_gen", "allreduce_gen", "gather_gen",
           "allgather_gen", "scatter_gen", "alltoall_gen", "mp_barrier_gen"]


def _tree_children(rank: int, root: int, size: int) -> list[int]:
    """Binomial-tree children of ``rank`` in a tree rooted at ``root``."""
    rel = (rank - root) % size
    children = []
    lowbit = rel & -rel if rel else size  # rel 0 keeps all bits
    bit = 1
    while bit < size and bit < lowbit:
        if rel + bit < size:
            children.append((rel + bit + root) % size)
        bit <<= 1
    return children


def _tree_parent(rank: int, root: int, size: int) -> Optional[int]:
    rel = (rank - root) % size
    if rel == 0:
        return None
    # clear the lowest set bit of rel
    parent_rel = rel & (rel - 1)
    return (parent_rel + root) % size


def bcast_gen(comm: Comm, value: Any, root: int = 0,
              tag: Optional[int] = None):
    """Binomial-tree broadcast; returns the value on every rank."""
    tag = comm.next_tag() if tag is None else tag
    if comm.rank != root:
        value = yield from comm.recv_gen(
            src=_tree_parent(comm.rank, root, comm.size), tag=tag)
    for child in _tree_children(comm.rank, root, comm.size):
        yield from comm.send_gen(child, value, tag=tag)
    return value


def reduce_gen(comm: Comm, value: Any, op: Callable[[Any, Any], Any],
               root: int = 0, tag: Optional[int] = None):
    """Binomial-tree reduction; result valid only on ``root``."""
    tag = comm.next_tag() if tag is None else tag
    acc = value
    for child in _tree_children(comm.rank, root, comm.size):
        acc = op(acc, (yield from comm.recv_gen(src=child, tag=tag)))
    parent = _tree_parent(comm.rank, root, comm.size)
    if parent is not None:
        yield from comm.send_gen(parent, acc, tag=tag)
        return None
    return acc


def allreduce_gen(comm: Comm, value: Any, op: Callable[[Any, Any], Any]):
    """Reduce to rank 0, then broadcast the result."""
    acc = yield from reduce_gen(comm, value, op, root=0)
    return (yield from bcast_gen(comm, acc, root=0))


def gather_gen(comm: Comm, value: Any, root: int = 0,
               tag: Optional[int] = None):
    """Linear gather; returns the rank-ordered list on ``root``."""
    tag = comm.next_tag() if tag is None else tag
    if comm.rank == root:
        out: list = [None] * comm.size
        out[root] = value
        for _ in range(comm.size - 1):
            msg = yield from comm.recv_msg_gen(tag=tag)
            out[msg.src] = msg.payload
        return out
    yield from comm.send_gen(root, value, tag=tag)
    return None


def allgather_gen(comm: Comm, value: Any):
    """Gather to rank 0, broadcast the list."""
    out = yield from gather_gen(comm, value, root=0)
    return (yield from bcast_gen(comm, out, root=0))


def scatter_gen(comm: Comm, values: Optional[list], root: int = 0,
                tag: Optional[int] = None):
    """Linear scatter of a rank-indexed list from ``root``."""
    tag = comm.next_tag() if tag is None else tag
    if comm.rank == root:
        if values is None or len(values) != comm.size:
            raise ValueError("scatter needs one value per rank at the root")
        for dst in range(comm.size):
            if dst != root:
                yield from comm.send_gen(dst, values[dst], tag=tag)
        return values[root]
    return (yield from comm.recv_gen(src=root, tag=tag))


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


def mp_barrier_gen(comm: Comm, tag: Optional[int] = None):
    """Dissemination barrier: ``n * ceil(log2 n)`` small messages.

    Each round draws its own tag.  The old scheme used ``tag + round_no``,
    which silently reused tag values that ``next_tag`` would hand out to
    the *next* collective — a later broadcast's message could match a
    stale barrier recv.  All ranks call ``next_tag`` in lockstep per
    round, so the drawn tags agree; an explicit ``tag`` reserves the
    ``ceil(log2 n)`` consecutive values after it.
    """
    if comm.size == 1:
        if tag is None:
            comm.next_tag()
        return
    dist = 1
    round_no = 0
    while dist < comm.size:
        round_tag = comm.next_tag() if tag is None else tag + round_no
        dst = (comm.rank + dist) % comm.size
        src = (comm.rank - dist) % comm.size
        yield from comm.send_gen(dst, round_no, tag=round_tag, nbytes=4,
                                 category="sync")
        yield from comm.recv_gen(src=src, tag=round_tag)
        dist <<= 1
        round_no += 1
