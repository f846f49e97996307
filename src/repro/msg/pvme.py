"""PVMe-flavoured facade for the hand-coded message-passing programs.

PVMe is IBM's SP/2-optimized implementation of PVM [8].  The hand-coded
programs in the paper use a small subset — initialize, send/receive typed
array messages, broadcast, and reduce — which this facade exposes with
PVM-ish names over :class:`~repro.msg.endpoint.Comm`.  Sends are
unsegmented (PVMe moves a boundary column in a single message, which is
what makes the paper's Table 2 show exactly 1400 messages for Jacobi:
2 neighbours x 7 exchanges x 100 iterations).

Every operation is one generator of engine block requests (``send_gen``,
``bcast_gen``, ...): a program is a generator function that delegates to
them with ``yield from``.  :meth:`Pvme.send`, :meth:`Pvme.recv` and
:meth:`Pvme.bcast` are also kept as blocking forms, for plain-function
(thread) programs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.msg import collectives as coll
from repro.msg.endpoint import ANY_SOURCE, ANY_TAG, Comm
from repro.sim.cluster import ProcEnv
from repro.sim.engine import blocking

__all__ = ["Pvme"]


class Pvme:
    """Per-task handle, in the spirit of ``pvm_mytid``/``pvm_send``."""

    def __init__(self, env: ProcEnv):
        self.env = env
        self.proc = env.proc
        self.comm = Comm(env, category="data", packet_bytes=None)
        self.tid = env.pid
        self.ntasks = env.nprocs

    # -- point to point ---------------------------------------------------

    def send_gen(self, dst: int, payload: Any, tag: int = 0):
        return self.comm.send_gen(dst, payload, tag=tag)

    def recv_gen(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        return self.comm.recv_gen(src=src, tag=tag)

    def exchange_gen(self, peer: int, payload: Any, tag: int = 0):
        """Symmetric neighbour exchange (send then recv from the same peer)."""
        return self.comm.sendrecv_gen(peer, payload, src=peer, tag=tag)

    # -- collectives --------------------------------------------------------

    def bcast_gen(self, value: Any, root: int = 0):
        return coll.bcast_gen(self.comm, value, root=root)

    def reduce_gen(self, value: Any, op: Callable[[Any, Any], Any],
                   root: int = 0):
        return coll.reduce_gen(self.comm, value, op, root=root)

    def allreduce_gen(self, value: Any, op: Callable[[Any, Any], Any]):
        return coll.allreduce_gen(self.comm, value, op)

    def gather_gen(self, value: Any, root: int = 0):
        return coll.gather_gen(self.comm, value, root=root)

    def allgather_gen(self, value: Any):
        return coll.allgather_gen(self.comm, value)

    def alltoall_gen(self, values: list):
        return coll.alltoall_gen(self.comm, values)

    def barrier_gen(self):
        return coll.mp_barrier_gen(self.comm)

    # -- blocking forms for plain-function programs ---------------------------

    send = blocking(send_gen)
    recv = blocking(recv_gen)
    bcast = blocking(bcast_gen)

    # -- program support -----------------------------------------------------

    def compute_gen(self, seconds: float):
        return self.env.compute_gen(seconds)

    def block_range(self, extent: int) -> tuple:
        base, rem = divmod(extent, self.ntasks)
        lo = self.tid * base + min(self.tid, rem)
        return lo, lo + base + (1 if self.tid < rem else 0)
