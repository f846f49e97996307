"""`Backlog` — the one queue under the `repro.serve` dispatch loop.

Both tiers place work the same way: :class:`~repro.serve.RunService`
onto worker processes, :class:`~repro.serve.FleetService` onto remote
hosts.  Placement is FIFO — whoever has room gets the oldest queued
request — and this module is the bookkeeping around that as a **pure
value**: no IO, no threads, no clocks.  The
:class:`~repro.serve.service.Service` loop owns the sockets and is
single-threaded, so nothing here locks.

What it holds: ``max_backlog`` admission, the oldest-first queue, the
in-flight set, exactly-once :meth:`Backlog.retire`, requeue-at-head —
once per request — for work whose worker or host died, and the
``rejections``/``requeues`` counters.  :meth:`Backlog.take` returns
nothing *iff* nothing is queued, so an idle taker never waits while work
does.

Per-batch state (queue, in-flight set, seq -> item, requeued seqs) lives
from :meth:`Backlog.admit` to :meth:`Backlog.clear`; the counters persist.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.api.types import RunRequest, failure_result

__all__ = ["Backlog"]


def _parse(request) -> tuple:
    """``(doc, None)`` of a :class:`RunRequest` or well-formed request
    doc, else ``(request, <BadRequest result>)``."""
    try:
        if isinstance(request, RunRequest):
            return request.to_json(), None
        doc = dict(request)
        RunRequest.from_json(doc)
        return doc, None
    except (TypeError, ValueError) as exc:
        return request, failure_result(
            request, f"malformed request: {exc}", "BadRequest")


class Backlog:
    """Admitted requests, oldest first, each retired exactly once.

    ``max_backlog`` is admission control: with that many requests
    outstanding (queued + in flight) further ones are refused.
    """

    def __init__(self, max_backlog: Optional[int] = None):
        if max_backlog is not None and max_backlog < 1:
            raise ValueError("max_backlog must be at least 1 (or None "
                             "for unbounded admission)")
        self.max_backlog = max_backlog
        self.rejections = 0
        self.requeues = 0
        self._next_seq = 0
        self._queue: deque = deque()     # queued seqs, oldest first
        self._inflight: set = set()      # seqs handed out, not yet retired
        self._items: dict = {}           # seq -> caller's item
        self._requeued: set = set()      # seqs that went back once

    # ------------------------------------------------------------------ #
    # admission

    def admit(self, item) -> Optional[int]:
        """Queue ``item``; its seq, or ``None`` if the ``max_backlog``
        cap refuses it (counted as a rejection)."""
        if self.max_backlog is not None \
                and len(self._items) >= self.max_backlog:
            self.rejections += 1
            return None
        seq = self._next_seq
        self._next_seq += 1
        self._items[seq] = item
        self._queue.append(seq)
        return seq

    def admit_requests(self, requests: Iterable) -> list:
        """Queue a batch of :class:`RunRequest` objects / request docs as
        ``(index, doc)`` items; return ``[(index, RunResult)]`` for the
        ones that will not run: ``BadRequest`` for a doc that does not
        parse, ``Rejected`` for one over the ``max_backlog`` cap.

        Every request is parsed before any state changes, so a bad doc
        costs one structured result and nothing else.
        """
        parsed = [_parse(request) for request in requests]
        refused = []
        for index, (doc, bad) in enumerate(parsed):
            if bad is None and self.admit((index, doc)) is None:
                bad = failure_result(
                    doc, f"admission refused: {self.max_backlog} "
                    f"request(s) already in flight (the max_backlog cap)",
                    "Rejected")
            if bad is not None:
                refused.append((index, bad))
        return refused

    # ------------------------------------------------------------------ #
    # hand-out, completion, failure, teardown

    def take(self, capacity: int = 1) -> list:
        """Hand out the oldest ``capacity`` queued requests as
        ``[(seq, item)]`` — empty only when nothing is queued."""
        picks = []
        while self._queue and len(picks) < capacity:
            seq = self._queue.popleft()
            self._inflight.add(seq)
            picks.append((seq, self._items[seq]))
        return picks

    def retire(self, seq: int):
        """``seq`` is done: drop it and return its item — ``None`` if it
        was already retired (the exactly-once guard)."""
        if seq not in self._items:
            return None
        if seq in self._inflight:
            self._inflight.remove(seq)
        else:
            self._queue.remove(seq)
        self._requeued.discard(seq)
        return self._items.pop(seq)

    def requeue(self, seqs: Iterable) -> list:
        """Put in-flight ``seqs`` back at the *head* of the queue, in
        the order given (their taker died before finishing them — the
        next taker gets them first).  A seq goes back once: one requeued
        before is retired instead, and their items are returned for the
        caller to fail."""
        back, spent = [], []
        for seq in seqs:
            if seq in self._inflight:
                if seq in self._requeued:
                    spent.append(self.retire(seq))
                else:
                    back.append(seq)
        for seq in reversed(back):
            self._inflight.remove(seq)
            self._queue.appendleft(seq)
        self._requeued.update(back)
        self.requeues += len(back)
        return spent

    def drain(self) -> list:
        """Retire everything outstanding (nothing is left to run it on);
        returns the items, oldest first."""
        items = list(self._items.values())
        self.clear()
        return items

    def clear(self) -> None:
        """Discard the per-batch state; the counters stay."""
        self._queue.clear()
        self._inflight.clear()
        self._items.clear()
        self._requeued.clear()

    # ------------------------------------------------------------------ #
    # observability

    @property
    def outstanding(self) -> int:
        """Admitted and not yet retired (queued + in flight)."""
        return len(self._items)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def counters(self) -> dict:
        """The monotonic counters every :class:`BatchResult` diffs."""
        return {"rejections": self.rejections}

    def stats(self) -> dict:
        return {**self.counters(), "max_backlog": self.max_backlog}
