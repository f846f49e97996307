"""Simulated interconnect: mailboxes, tag matching, and traffic accounting.

Semantics follow the user-level MPL/PVMe libraries the paper runs on:

* ``send`` is buffered and asynchronous — the sender is charged its software
  send overhead and continues; the message is delivered to the destination
  mailbox after the modelled wire time.
* ``recv`` blocks until a matching message (by source and tag) is present,
  then charges the receiver's software overhead and returns the payload.

Both exist once, as generators of engine block requests
(:meth:`Network.send_gen`, :meth:`Network.recv_gen`): a generator process
(the DSM request server) delegates to them with ``yield from``;
:meth:`Network.send` and :meth:`Network.recv` are the blocking forms a
thread process calls, and do nothing but drive those generators.

Every message carries an accounting *category* (``"data"``, ``"sync"``,
``"diff"``, ...) and a declared payload size in bytes.  The paper's Tables 2
and 3 report total message counts and total kilobytes per program; the
:class:`NetworkStats` object accumulates exactly those, per category, and the
evaluation harness snapshots it per run.

Reliable delivery
-----------------

By default the wire is perfect, matching the paper's SP/2 switch.  When the
:class:`Network` is built with a :class:`~repro.sim.faults.FaultPlan`, every
wire transmission first passes through the seeded
:class:`~repro.sim.faults.FaultInjector`, which may drop, duplicate, delay,
or reorder it, or defer it through a node-stall window, and the recovery
sublayer is always armed:

* each ``(src, dst)`` pair numbers its messages with consecutive **sequence
  numbers**;
* the receiver buffers out-of-order arrivals and releases them to the
  mailbox strictly in send order (restoring the per-pair FIFO guarantee the
  protocol layers above assume), suppressing duplicates;
* every arrival — including suppressed duplicates, so lost acks heal — is
  answered with a **cumulative ack** ("everything below ``n`` received");
* the sender keeps unacked messages and re-transmits on a timeout of
  *expected remaining flight time* plus an exponentially backed-off slack
  (``4 · latency · 2^(attempt-1)``), giving up with a :class:`SimError`
  after :data:`MAX_TRANSMISSIONS` transmissions.

Acks and retransmissions are engine-level control events
(:meth:`Simulator.schedule_call` callbacks, no process context): they consume
no link occupancy and are *not* counted in ``messages``/``bytes`` (which
model the application-level traffic of the paper's tables); they are
surfaced separately as ``retransmissions``/``acks``/``dup_suppressed`` on
:class:`NetworkStats`.  With no plan attached the send path is
arithmetically identical to the historical one — virtual times, message
counts, and byte totals are bit-for-bit unchanged.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from types import MethodType
from typing import Any, Optional

from repro.sim.engine import HOLD, PARK, Process, SimError, Simulator
from repro.sim.faults import FaultInjector, FaultPlan, FaultStats
from repro.sim.machine import MachineModel

__all__ = ["Network", "Message", "NetworkStats", "ANY_SOURCE", "ANY_TAG",
           "MAX_TRANSMISSIONS"]

ANY_SOURCE = -1
ANY_TAG = -1

#: transmissions of one message before reliable delivery gives up (with
#: the 4-latency slack doubling each time: about 2.5 virtual s on the SP/2)
MAX_TRANSMISSIONS = 12


class Message:
    """One in-flight or delivered message."""

    __slots__ = ("src", "dst", "tag", "payload", "nbytes", "category",
                 "sent_at", "delivered_at", "seq")

    def __init__(self, src: int, dst: int, tag: int, payload: Any,
                 nbytes: int, category: str, sent_at: float) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.category = category
        self.sent_at = sent_at
        self.delivered_at = 0.0
        self.seq = -1       # per-(src, dst) sequence number; -1 = unnumbered


@dataclass
class NetworkStats:
    """Message and byte totals, overall and per category.

    ``messages``/``bytes`` count every network message including protocol
    requests and synchronization, which is how the paper counts (e.g. a
    TreadMarks page fault is *two* messages: request and response).  The
    reliability counters (``retransmissions``, ``acks``, ``dup_suppressed``)
    track recovery-sublayer control traffic separately — they stay zero on a
    perfect wire.
    """

    messages: int = 0
    bytes: int = 0
    retransmissions: int = 0
    acks: int = 0
    dup_suppressed: int = 0
    by_category: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0]))

    def record(self, category: str, nbytes: int, count: int = 1) -> None:
        """``count`` messages carrying ``nbytes`` payload bytes in all."""
        self.messages += count
        self.bytes += nbytes
        cell = self.by_category[category]
        cell[0] += count
        cell[1] += nbytes

    def snapshot(self) -> "NetworkStats":
        snap = NetworkStats(self.messages, self.bytes, self.retransmissions,
                            self.acks, self.dup_suppressed)
        snap.by_category = defaultdict(
            lambda: [0, 0], {k: list(v) for k, v in self.by_category.items()})
        return snap

    def delta(self, earlier: "NetworkStats") -> "NetworkStats":
        out = NetworkStats(self.messages - earlier.messages,
                           self.bytes - earlier.bytes,
                           self.retransmissions - earlier.retransmissions,
                           self.acks - earlier.acks,
                           self.dup_suppressed - earlier.dup_suppressed)
        keys = set(self.by_category) | set(earlier.by_category)
        for key in keys:
            a = self.by_category.get(key, [0, 0])
            b = earlier.by_category.get(key, [0, 0])
            out.by_category[key] = [a[0] - b[0], a[1] - b[1]]
        return out

    @property
    def kilobytes(self) -> float:
        return self.bytes / 1024.0


class _PairSend:
    """Sender-side reliability state for one ``(src, dst)`` pair."""

    __slots__ = ("next_seq", "unacked")

    def __init__(self) -> None:
        self.next_seq = 0
        self.unacked: dict[int, Message] = {}


class _PairRecv:
    """Receiver-side reliability state for one ``(src, dst)`` pair."""

    __slots__ = ("expected", "buffer")

    def __init__(self) -> None:
        self.expected = 0
        self.buffer: dict[int, Message] = {}


class Network:
    """Point-to-point message transport between ``nprocs`` endpoints."""

    def __init__(self, sim: Simulator, nprocs: int, model: MachineModel,
                 faults: Optional[FaultPlan] = None):
        self.sim = sim
        self.nprocs = nprocs
        self.model = model
        self.stats = NetworkStats()
        # mailbox[dst] holds delivered, un-received messages in arrival order
        self._mailbox: list[deque[Message]] = [deque() for _ in range(nprocs)]
        # waiting[dst] -> list of (process, src_filter, tag_filter); a node's
        # main program and its DSM request server may both be blocked in recv
        # on the same endpoint with disjoint tag filters.
        self._waiting: list[list[tuple[Process, int, int]]] = [
            [] for _ in range(nprocs)]
        # cut-through link model: each node has one send link and one
        # receive link; a message occupies the send link for its transfer
        # time starting at `start`, and the receive link for the same
        # duration offset by the wire latency.  Concurrent transfers to or
        # from one node serialize — the effect that makes an all-to-all
        # transpose or a broadcast-everything epilogue pay for its volume.
        self._src_free = [0.0] * nprocs
        self._dst_free = [0.0] * nprocs
        # fault injection + reliable delivery (both off on a perfect wire)
        self._injector = None
        if faults is not None:
            for stall in faults.stalls:
                if stall.node >= nprocs:
                    raise ValueError(f"stall on node {stall.node} of a "
                                     f"{nprocs}-node network")
            self._injector = FaultInjector(faults)
        self._pair_send: dict[tuple[int, int], _PairSend] = \
            defaultdict(_PairSend)
        self._pair_recv: dict[tuple[int, int], _PairRecv] = \
            defaultdict(_PairRecv)
        self._rto_slack = 4.0 * model.latency
        sim.diagnostics.append(self._deadlock_report)

    @property
    def fault_stats(self) -> Optional[FaultStats]:
        """What the injector did to this run (``None`` on a perfect wire)."""
        return self._injector.stats if self._injector is not None else None

    def in_flight(self) -> int:
        """Unacked reliable messages currently awaiting delivery."""
        return sum(len(ps.unacked) for ps in self._pair_send.values())

    # ------------------------------------------------------------------ #

    def _reserve(self, src: int, dst: int, nbytes: int) -> float:
        """Claim link occupancy for one transfer; returns the arrival time."""
        transfer = (nbytes + self.model.message_header_bytes) \
            * self.model.byte_time
        latency = self.model.latency
        now = self.sim.now
        start = max(now, self._src_free[src], self._dst_free[dst] - latency)
        self._src_free[src] = start + transfer
        arrival = start + latency + transfer
        self._dst_free[dst] = arrival
        return arrival

    def send(self, proc: Process, src: int, dst: int, payload: Any, *,
             tag: int = 0, nbytes: int, category: str = "data") -> None:
        """Blocking form of :meth:`send_gen`, for thread process ``proc``."""
        proc.drive(self.send_gen(src, dst, payload, tag=tag, nbytes=nbytes,
                                 category=category))

    def send_gen(self, src: int, dst: int, payload: Any, *,
                 tag: int = 0, nbytes: int, category: str = "data"):
        """Asynchronously send ``payload`` from ``src`` to ``dst``
        (generator of block requests: the sender's overhead is a hold).

        ``nbytes`` is the accounted payload size; callers declare it because
        payloads are Python objects whose wire encoding we model rather than
        perform.
        """
        if not (0 <= dst < self.nprocs):
            raise SimError(f"bad destination {dst}")
        if nbytes < 0:
            raise ValueError("negative message size")
        model = self.model
        yield HOLD, model.send_overhead
        sim = self.sim
        now = sim.now
        msg = Message(src, dst, tag, payload, nbytes, category, now)
        # NetworkStats.record and _reserve, inline (same expressions, same
        # order: every float below is bit-identical to theirs)
        stats = self.stats
        stats.messages += 1
        stats.bytes += nbytes
        cell = stats.by_category[category]
        cell[0] += 1
        cell[1] += nbytes
        transfer = (nbytes + model.message_header_bytes) * model.byte_time
        latency = model.latency
        src_free, dst_free = self._src_free, self._dst_free
        start = max(now, src_free[src], dst_free[dst] - latency)
        src_free[src] = start + transfer
        arrival = start + latency + transfer
        dst_free[dst] = arrival
        if self._injector is None:
            sim.schedule_call(arrival - now, MethodType(self._deliver, msg))
            return
        ps = self._pair_send[(src, dst)]
        msg.seq = ps.next_seq
        ps.next_seq += 1
        ps.unacked[msg.seq] = msg
        self._transmit(msg, arrival, attempt=1)

    # ------------------------------------------------------------------ #
    # faulty wire + recovery sublayer (active only with a FaultPlan)

    def _transmit(self, msg: Message, arrival: float, attempt: int) -> None:
        """Put one copy of ``msg`` on the faulty wire."""
        inj = self._injector
        verdict = inj.draw()
        now = self.sim.now
        # the copy's expected arrival after injected delay and the fault
        # schedule; used for the retransmit timer even when the copy drops
        expected = inj.defer(msg.src, msg.dst, arrival + verdict.delay)
        if not verdict.drop:
            self.sim.schedule_call(expected - now, lambda: self._arrive(msg))
        if verdict.dup:
            dup_at = inj.defer(msg.src, msg.dst, expected + inj.dup_lag())
            self.sim.schedule_call(dup_at - now, lambda: self._arrive(msg))
        slack = self._rto_slack * (2.0 ** (attempt - 1))
        self.sim.schedule_call(
            (expected - now) + slack, lambda: self._check_ack(msg, attempt))

    def _arrive(self, msg: Message) -> None:
        """One copy reached ``msg.dst``'s interface."""
        pair = (msg.src, msg.dst)
        pr = self._pair_recv[pair]
        if msg.seq < pr.expected or msg.seq in pr.buffer:
            # retransmission or injected duplicate of something already
            # seen; re-ack so the sender learns even if the first ack died
            self.stats.dup_suppressed += 1
        else:
            pr.buffer[msg.seq] = msg
            # release to the mailbox strictly in send order
            while pr.expected in pr.buffer:
                self._deliver(pr.buffer.pop(pr.expected))
                pr.expected += 1
        self._send_ack(pair, pr.expected)

    def _send_ack(self, pair: tuple[int, int], ackno: int) -> None:
        """Cumulative ack from ``pair[1]`` back to ``pair[0]`` — rides the
        same faulty wire, but as a control event without link occupancy."""
        verdict = self._injector.draw_ack()
        if verdict.drop:
            return
        now = self.sim.now
        at = self._injector.defer(pair[1], pair[0],
                                  now + self.model.latency + verdict.delay)
        self.sim.schedule_call(at - now, lambda: self._ack_arrive(pair, ackno))

    def _ack_arrive(self, pair: tuple[int, int], ackno: int) -> None:
        self.stats.acks += 1
        ps = self._pair_send[pair]
        for seq in [s for s in ps.unacked if s < ackno]:
            del ps.unacked[seq]

    def _check_ack(self, msg: Message, attempt: int) -> None:
        """Retransmit timer: still unacked when the timeout fires?"""
        ps = self._pair_send[(msg.src, msg.dst)]
        if msg.seq not in ps.unacked:
            return
        if attempt >= MAX_TRANSMISSIONS:
            raise SimError(
                f"reliable delivery gave up: {msg.category!r} message "
                f"{msg.src}->{msg.dst} seq={msg.seq} still unacked after "
                f"{attempt} transmissions")
        self.stats.retransmissions += 1
        arrival = self._reserve(msg.src, msg.dst, msg.nbytes)
        self._transmit(msg, arrival, attempt + 1)

    # ------------------------------------------------------------------ #

    def _deliver(self, msg: Message) -> None:
        msg.delivered_at = self.sim.now
        dst = msg.dst
        self._mailbox[dst].append(msg)
        waiters = self._waiting[dst]
        if not waiters:
            return
        for i, (proc, src_f, tag_f) in enumerate(waiters):
            if ((src_f == ANY_SOURCE or msg.src == src_f)
                    and (tag_f == ANY_TAG or msg.tag == tag_f)):
                del waiters[i]
                self.sim.unpark(proc)
                break

    def _take(self, dst: int, src: int, tag: int) -> Optional[Message]:
        box = self._mailbox[dst]
        if not box:
            return None
        for i, msg in enumerate(box):
            if ((src == ANY_SOURCE or msg.src == src)
                    and (tag == ANY_TAG or msg.tag == tag)):
                del box[i]
                return msg
        return None

    def recv(self, proc: Process, dst: int, *, src: int = ANY_SOURCE,
             tag: int = ANY_TAG) -> Message:
        """Blocking form of :meth:`recv_gen`, for thread process ``proc``."""
        return proc.drive(self.recv_gen(proc, dst, src=src, tag=tag))

    def recv_gen(self, proc: Process, dst: int, *, src: int = ANY_SOURCE,
                 tag: int = ANY_TAG):
        """Block ``proc`` until a message matching ``(src, tag)`` arrives at
        ``dst``; the generator's return value is the :class:`Message`."""
        msg = self._take(dst, src, tag)
        while msg is None:
            self._waiting[dst].append((proc, src, tag))
            yield PARK, ("recv", dst, src, tag)
            msg = self._take(dst, src, tag)
        yield HOLD, self.model.recv_overhead
        return msg

    # ------------------------------------------------------------------ #

    def _name(self, filt: int) -> str:
        return "ANY" if filt == -1 else str(filt)

    def _deadlock_report(self) -> str:
        """What every node's endpoint looks like when nothing can progress:
        undelivered mailbox contents vs. the ``(src, tag)`` filters blocked
        receivers are waiting on — usually enough to spot the tag mismatch."""
        lines = ["network state at deadlock:"]
        for node in range(self.nprocs):
            box = self._mailbox[node]
            waits = self._waiting[node]
            if not box and not waits:
                continue
            held = ", ".join(
                f"(src={m.src}, tag={m.tag}, category={m.category!r}, "
                f"nbytes={m.nbytes})" for m in box)
            lines.append(f"  node {node}: mailbox=[{held}]")
            for proc, src_f, tag_f in waits:
                lines.append(f"    {proc.name} waiting on recv(src="
                             f"{self._name(src_f)}, tag={self._name(tag_f)})")
        if self._injector is not None:
            unacked = self.in_flight()
            if unacked:
                lines.append(
                    f"  unacked reliable messages in flight: {unacked}")
        return "\n".join(lines)
