"""The per-node DSM request server.

Real TreadMarks services remote requests (diff fetches, lock forwarding,
barrier management) inside a SIGIO handler that interrupts the application.
The simulation models that handler as what it is: each node has one daemon
*server process* with **no thread of its own** — a generator process
(:mod:`repro.sim.engine`) that whichever thread pops its wakeup steps
inline to its next block request.  It receives every ``TAG_TMK_REQ``
message addressed to the node and dispatches it, by payload type, to the
protocol/sync handlers.  The server is still its own virtual-time context
(the handler's CPU cost is charged there, as ``yield HOLD, cost``), while
the node's main program keeps computing — the same overlap an interrupt
handler provides.

Everything the server runs is therefore a generator of block requests and
is reached with ``yield from``: the loop below, ``Network.recv_gen`` /
``send_gen``, ``TmkNode.serve_diff_request`` and the ``tmk.sync`` handlers.
The two helpers a main program also runs (``_distribute_departures``,
``_send_grant``) are the same generators, exhausted there by
``Process.drive``.  Calling a blocking primitive (``proc.hold``,
``net.send``) from server code raises ``SimError``.

Delivery assumptions: the dispatch loop requires per-(src, dst) FIFO,
exactly-once delivery — a duplicated ``DiffRequest`` would double-charge a
serve, a reordered lock forward would break tenure order.  On the perfect
wire these hold by construction; under an attached
:class:`~repro.sim.faults.FaultPlan` the network's reliable-delivery
sublayer (sequence numbers, cumulative acks, retransmission, duplicate
suppression) restores them below this layer, so the server needs no
request ids or idempotence logic of its own.
"""

from __future__ import annotations

from repro.tmk.protocol import TAG_TMK_REQ, DiffRequest, TmkNode
from repro.tmk import sync as _sync

__all__ = ["start_server"]

#: payload type -> handler ``(node, request)``, a generator of block requests
_HANDLERS = {
    DiffRequest: TmkNode.serve_diff_request,
    _sync.BarrierArrive: _sync.manager_handle_arrival,
    _sync.LockReq: _sync.manager_handle_lock_req,
    _sync.LockForward: _sync.holder_handle_forward,
}


def start_server(node: TmkNode):
    """Spawn the request-server daemon for ``node``; returns the Process."""

    def loop():
        sproc = node.server_proc
        while True:
            msg = yield from node.net.recv_gen(sproc, node.pid,
                                               tag=TAG_TMK_REQ)
            req = msg.payload
            handler = _HANDLERS.get(type(req))
            if handler is None:
                raise RuntimeError(
                    f"node {node.pid}: unknown DSM request payload "
                    f"{type(req).__name__}: {req!r}")
            yield from handler(node, req)

    node.server_proc = node.env.spawn_server("tmk-srv", loop)
    return node.server_proc
