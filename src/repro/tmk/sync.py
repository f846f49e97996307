"""Barriers and locks, exactly as Section 2.2 of the paper describes them.

**Barriers** have a centralized manager (hosted on processor 0's request
server).  "At barrier arrival, each processor sends a release message to the
manager, waits until a barrier departure message is received from the
manager, and then leaves the barrier. ... The number of messages sent in a
barrier is 2 x (n - 1)."  Arrival messages carry the member's new interval
records and its vector time; the departure to each member carries exactly
the records that member lacks (the lazy-invalidate consistency information).

**Locks** each have a statically assigned manager (``lock_id mod nprocs``).
"All lock acquire requests are directed to the manager, and, if necessary,
forwarded to the processor that last requested the lock.  A lock release
does not cause any communication."  The grant message carries the interval
records the acquirer has not seen (the happens-before closure known to the
releaser), per lazy release consistency.

Both protocols assume the interconnect delivers exactly once and in
per-pair send order: a duplicated barrier arrival would advance the
manager's count twice, and a lock grant overtaking an earlier forward
would violate tenure order.  The network guarantees both — natively on
the perfect wire, via its reliable-delivery sublayer when a
:class:`~repro.sim.faults.FaultPlan` is attached — so no sequence
numbers appear at this layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import HOLD, PARK
from repro.tmk.intervals import (IntervalRecord, SeenVector,
                                 records_unknown_to)
from repro.tmk.lrc import lock_request_nbytes, sync_nbytes
from repro.tmk.protocol import (TAG_BARRIER_DEP, TAG_LOCK_GRANT, TAG_TMK_REQ,
                                TmkNode)

if TYPE_CHECKING:
    from repro.sim.engine import Process

__all__ = ["BarrierManager", "LockTable", "BarrierArrive", "LockReq",
           "LockForward", "barrier_gen", "lock_acquire_steps",
           "lock_release_steps"]


# ---------------------------------------------------------------------- #
# wire payloads

@dataclass
class BarrierArrive:
    member: int = 0
    gen: int = 0
    records: list = field(default_factory=list)
    seen: tuple = ()

    def nbytes(self, model) -> int:
        return sync_nbytes(self.records, model)


@dataclass
class BarrierDepart:
    gen: int
    records: list

    def nbytes(self, model) -> int:
        return sync_nbytes(self.records, model)


@dataclass
class LockReq:
    lock: int = 0
    requester: int = 0
    seen: tuple = ()

    def nbytes(self) -> int:
        return lock_request_nbytes(len(self.seen))


@dataclass
class LockForward:
    lock: int = 0
    requester: int = 0
    seen: tuple = ()
    after: int = 0      # serve after the target's ``after``-th release

    def nbytes(self) -> int:
        return lock_request_nbytes(len(self.seen))


@dataclass
class LockGrant:
    lock: int
    records: list

    def nbytes(self, model) -> int:
        return sync_nbytes(self.records, model)


# ---------------------------------------------------------------------- #
# barrier manager (state lives with the world; code runs on node 0)

class BarrierManager:
    """Centralized barrier state, driven by processor 0's contexts."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.gen = 0
        self._arrived: dict[int, SeenVector] = {}
        self._records: list[IntervalRecord] = []
        self._seen_keys: set = set()
        self._local_waiting: Optional["Process"] = None
        self._local_depart: Optional[list] = None

    def note_arrival(self, member: int, gen: int, records: list,
                     seen: tuple) -> bool:
        """Record an arrival; True when this one completes the barrier."""
        if gen != self.gen:
            raise RuntimeError(
                f"barrier generation mismatch: member {member} at {gen}, "
                f"manager at {self.gen}")
        if member in self._arrived:
            raise RuntimeError(f"member {member} arrived twice at barrier {gen}")
        sv = SeenVector(self.nprocs)
        sv.v = list(seen)
        self._arrived[member] = sv
        for rec in records:
            key = (rec.proc, rec.id)
            if key not in self._seen_keys:
                self._seen_keys.add(key)
                self._records.append(rec)
        return len(self._arrived) == self.nprocs

    def departures(self) -> dict[int, list]:
        """Per-member record lists for the departure broadcast; resets state."""
        out = {}
        for member, seen in self._arrived.items():
            out[member] = records_unknown_to(self._records, seen)
        self.gen += 1
        self._arrived = {}
        self._records = []
        self._seen_keys = set()
        return out


class LockTable:
    """Cluster-wide lock bookkeeping (logically distributed; see DESIGN.md).

    Acquire requests form a linear chain through the manager: each request
    is forwarded to the previous requester.  Because a forward can overtake
    the target's own pending acquire (or arrive before its grant), serving
    it on "am I currently holding?" alone either breaks mutual exclusion or
    deadlocks.  The manager therefore stamps each forward with the *tenure
    number* it follows — the count of the target's acquires at forwarding
    time — and the target serves it as soon as its release count reaches
    that stamp (possibly immediately, possibly at a future release).
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        # manager side: lock -> pid of last requester (initially the manager)
        self.last_requester: dict[int, int] = {}
        # manager side: (lock, pid) -> acquires by pid processed so far
        self.req_count: dict[tuple, int] = {}
        # holder side: (pid, lock) -> releases completed
        self.release_count: dict[tuple, int] = {}
        # holder side: (pid, lock) -> {after: (requester, seen)}
        self.queued: dict[tuple, dict] = {}

    def manager_of(self, lock: int) -> int:
        return lock % self.nprocs

    def note_request(self, lock: int, requester: int) -> tuple:
        """Record an acquire; returns (prev_holder, after_tenure)."""
        prev = self.last_requester.get(lock, self.manager_of(lock))
        after = self.req_count.get((lock, prev), 0)
        self.req_count[(lock, requester)] = \
            self.req_count.get((lock, requester), 0) + 1
        self.last_requester[lock] = requester
        return prev, after

    def note_release(self, pid: int, lock: int) -> Optional[tuple]:
        """Record a release; returns a queued (requester, seen) now due."""
        key = (pid, lock)
        self.release_count[key] = self.release_count.get(key, 0) + 1
        return self.take_due(pid, lock)

    def take_due(self, pid: int, lock: int) -> Optional[tuple]:
        queue = self.queued.get((pid, lock))
        if not queue:
            return None
        done = self.release_count.get((pid, lock), 0)
        for after in sorted(queue):
            if after <= done:
                return queue.pop(after)
        return None


# ---------------------------------------------------------------------- #
# member-side operations, run by a node's main program.  Like everything a
# request server runs (``_distribute_departures``, ``_send_grant(_empty)``,
# the ``*_handle_*`` handlers) they are generators of engine block requests:
# a program and the server delegate with ``yield from`` (``Tmk.barrier_gen``
# and friends are the per-processor names).

def barrier_gen(node: TmkNode):
    """TreadMarks barrier: arrival release + departure acquire."""
    world = node.world
    world.dsm_stats.barriers += 1
    model = node.model
    mgr: BarrierManager = world.barrier_mgr
    mon = world.race_monitor
    if mon is not None:
        mon.on_barrier_arrive(node.pid)
    node.close_interval()
    records = list(node.log_current)
    node.prune_log()

    if node.nprocs == 1:
        node.advance_epoch()
        if mon is not None:
            mon.on_barrier_depart(node.pid)
        return

    if node.pid == 0:
        complete = mgr.note_arrival(0, mgr.gen, records,
                                    node.seen.as_tuple())
        if complete:
            yield from _distribute_departures(node)
        else:
            mgr._local_waiting = node.proc
            yield PARK, ("barrier", mgr.gen)
            my_records = mgr._local_depart
            mgr._local_depart = None
            yield from node.apply_records(my_records, log=False)
        node.advance_epoch()
        if mon is not None:
            mon.on_barrier_depart(node.pid)
        return

    # remote member: release message to the manager
    arr = BarrierArrive(member=node.pid, gen=node._barrier_gen,
                        records=records, seen=node.seen.as_tuple())
    node._barrier_gen += 1
    yield from node.net.send_gen(node.pid, 0, arr, tag=TAG_TMK_REQ,
                                 nbytes=arr.nbytes(model), category="sync")
    msg = yield from node.net.recv_gen(node.proc, node.pid,
                                       tag=TAG_BARRIER_DEP)
    dep: BarrierDepart = msg.payload
    yield from node.apply_records(dep.records, log=False)
    node.advance_epoch()
    if mon is not None:
        mon.on_barrier_depart(node.pid)


def manager_handle_arrival(node0: TmkNode, arr: BarrierArrive):
    """Processor 0's server processes a remote arrival message."""
    mgr: BarrierManager = node0.world.barrier_mgr
    yield HOLD, node0.model.protocol_overhead
    if mgr.note_arrival(arr.member, arr.gen, arr.records, arr.seen):
        yield from _distribute_departures(node0)


def _distribute_departures(node0: TmkNode):
    """Send departures to every member; run by whichever processor-0
    context (main or server) observed the final arrival."""
    mgr: BarrierManager = node0.world.barrier_mgr
    model = node0.model
    departures = mgr.departures()
    for member in range(node0.nprocs):
        if member == 0:
            continue
        dep = BarrierDepart(gen=mgr.gen - 1, records=departures[member])
        yield from node0.net.send_gen(0, member, dep, tag=TAG_BARRIER_DEP,
                                      nbytes=dep.nbytes(model),
                                      category="sync")
    # processor 0's own departure is local
    if mgr._local_waiting is not None:
        mgr._local_depart = departures[0]
        waiter = mgr._local_waiting
        mgr._local_waiting = None
        node0.env.sim.unpark(waiter)
    else:
        # processor 0's main is the final arriver and is running right now
        yield from node0.apply_records(departures[0], log=False)


# ---------------------------------------------------------------------- #
# locks

def lock_acquire_steps(node: TmkNode, lock: int):
    """Acquire ``lock``: ``None`` when its token never left this node, else
    the generator that requests it, waits for the grant and applies the
    releaser's consistency information."""
    world = node.world
    world.dsm_stats.lock_acquires += 1
    table: LockTable = world.lock_table
    manager = table.manager_of(lock)
    if node.pid != manager:
        return _await_grant(node, lock, manager, LockReq(
            lock=lock, requester=node.pid, seen=node.seen.as_tuple()))
    prev, after = table.note_request(lock, node.pid)
    if prev == node.pid:
        return None   # re-acquire, no communication (token never left)
    # forward to the previous requester over the network
    return _await_grant(node, lock, prev, LockForward(
        lock=lock, requester=node.pid, seen=node.seen.as_tuple(),
        after=after))


def _await_grant(node: TmkNode, lock: int, dst: int, req):
    node.world.dsm_stats.lock_remote_acquires += 1
    yield from node.net.send_gen(node.pid, dst, req, tag=TAG_TMK_REQ,
                                 nbytes=req.nbytes(), category="sync")
    msg = yield from node.net.recv_gen(node.proc, node.pid,
                                       tag=TAG_LOCK_GRANT + lock)
    grant: LockGrant = msg.payload
    yield from node.apply_records(grant.records, log=True)
    mon = node.world.race_monitor
    if mon is not None:
        mon.on_lock_acquire(node.pid, lock)


def lock_release_steps(node: TmkNode, lock: int):
    """Release ``lock``.  Communication happens only if a request is
    queued: the grant's generator then, else ``None``."""
    table: LockTable = node.world.lock_table
    mon = node.world.race_monitor
    if mon is not None:
        # snapshot before note_release: a queued request may be granted
        # (and read this snapshot) once the grant below is sent
        mon.on_lock_release(node.pid, lock)
    node.close_interval()
    due = table.note_release(node.pid, lock)
    if due is not None:
        requester, seen = due
        return _send_grant(node, lock, requester, seen)
    return None


def _send_grant(node: TmkNode, lock: int, requester: int, seen: tuple):
    sv = SeenVector(node.nprocs)
    sv.v = list(seen)
    records = records_unknown_to(node.retained_log, sv)
    grant = LockGrant(lock=lock, records=records)
    mon = node.world.race_monitor
    if mon is not None:
        mon.on_grant_send(node.pid, lock, requester)
    yield from node.net.send_gen(
        node.pid, requester, grant, tag=TAG_LOCK_GRANT + lock,
        nbytes=grant.nbytes(node.model), category="sync")


def holder_handle_forward(node: TmkNode, fwd: LockForward):
    """A previous requester's server receives a forwarded acquire.

    Served immediately if the tenure it follows has completed; otherwise
    queued and served by the corresponding release ("a lock release does
    not cause any communication" — unless a request is waiting)."""
    table: LockTable = node.world.lock_table
    yield HOLD, node.model.protocol_overhead
    done = table.release_count.get((node.pid, fwd.lock), 0)
    if done >= fwd.after:
        yield from _send_grant(node, fwd.lock, fwd.requester, fwd.seen)
    else:
        table.queued.setdefault((node.pid, fwd.lock), {})[fwd.after] = (
            fwd.requester, fwd.seen)


def manager_handle_lock_req(node: TmkNode, req: LockReq):
    """A lock's manager node processes an acquire request."""
    table: LockTable = node.world.lock_table
    yield HOLD, node.model.protocol_overhead
    prev, after = table.note_request(req.lock, req.requester)
    if prev == req.requester:
        yield from _send_grant_empty(node, req.lock, req.requester)
    elif prev == node.pid:
        # the manager itself is the previous requester: same tenure rule,
        # applied locally instead of through a forward message
        done = table.release_count.get((node.pid, req.lock), 0)
        if done >= after:
            yield from _send_grant(node, req.lock, req.requester, req.seen)
        else:
            table.queued.setdefault((node.pid, req.lock), {})[after] = (
                req.requester, req.seen)
    else:
        fwd = LockForward(lock=req.lock, requester=req.requester,
                          seen=req.seen, after=after)
        yield from node.net.send_gen(node.pid, prev, fwd, tag=TAG_TMK_REQ,
                                     nbytes=fwd.nbytes(), category="sync")


def _send_grant_empty(node: TmkNode, lock: int, requester: int):
    grant = LockGrant(lock=lock, records=[])
    mon = node.world.race_monitor
    if mon is not None:
        # re-acquire by the last holder: the grant carries no new ordering
        mon._pending_grant[(lock, requester)] = None
    yield from node.net.send_gen(
        node.pid, requester, grant, tag=TAG_LOCK_GRANT + lock,
        nbytes=grant.nbytes(node.model), category="sync")
