"""PVMe-flavoured facade for the hand-coded message-passing programs.

PVMe is IBM's SP/2-optimized implementation of PVM [8].  The hand-coded
programs in the paper use a small subset — initialize, send/receive typed
array messages, broadcast, allreduce and alltoall — which this facade
exposes with PVM-ish names over :class:`~repro.msg.endpoint.Comm`.  Sends
are unsegmented (PVMe moves a boundary column in a single message, which
is what makes the paper's Table 2 show exactly 1400 messages for Jacobi:
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
from repro.sim.cluster import ProcEnv, block_range
from repro.sim.engine import blocking

__all__ = ["Pvme"]


class Pvme:
    """Per-task handle, in the spirit of ``pvm_mytid``/``pvm_send``."""

    def __init__(self, env: ProcEnv):
        self.env = env
        self.proc = env.proc
        self.comm = Comm(env)
        self.tid = env.pid
        self.ntasks = env.nprocs

    # -- point to point ---------------------------------------------------

    def send_gen(self, dst: int, payload: Any, tag: int = 0):
        return self.comm.send_gen(dst, payload, tag=tag)

    def recv_gen(self, src: int = ANY_SOURCE, tag: int = ANY_TAG):
        return self.comm.recv_gen(src=src, tag=tag)

    # -- collectives --------------------------------------------------------

    def bcast_gen(self, value: Any, root: int = 0):
        return coll.bcast_gen(self.comm, value, root=root)

    def allreduce_gen(self, value: Any, op: Callable[[Any, Any], Any]):
        return coll.allreduce_gen(self.comm, value, op)

    def alltoall_gen(self, values: list):
        return coll.alltoall_gen(self.comm, values)

    # -- blocking forms for plain-function programs ---------------------------

    send = blocking(send_gen)
    recv = blocking(recv_gen)
    bcast = blocking(bcast_gen)

    # -- program support -----------------------------------------------------

    def compute_gen(self, seconds: float):
        return self.env.compute_gen(seconds)

    def block_range(self, extent: int) -> tuple:
        return block_range(extent, self.ntasks, self.tid)
