"""Message-passing runtimes: the MPL/PVMe analogs.

The paper's message-passing programs run on two libraries: the XHPF
compiler's runtime and TreadMarks both sit on *MPL* (IBM's user-level
messaging), while the hand-coded programs use *PVMe* (IBM's optimized PVM).
Both are buffered-send / blocking-receive libraries; we provide one
:class:`~repro.msg.endpoint.Comm` abstraction with tagged point-to-point
operations plus the usual collectives, and a thin PVMe-flavoured facade.

Payload sizes are computed from the actual numpy data transferred, so the
message/byte totals of Tables 2 and 3 come out of real traffic.
"""

from repro.msg.endpoint import Comm, payload_nbytes
from repro.msg.collectives import (bcast_gen, reduce_gen, allreduce_gen,
                                   gather_gen, allgather_gen, alltoall_gen,
                                   mp_barrier_gen, scatter_gen)
from repro.msg.pvme import Pvme

__all__ = [
    "Comm",
    "payload_nbytes",
    "bcast_gen",
    "reduce_gen",
    "allreduce_gen",
    "gather_gen",
    "allgather_gen",
    "alltoall_gen",
    "scatter_gen",
    "mp_barrier_gen",
    "Pvme",
]
