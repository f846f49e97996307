"""`AffinityScheduler` — the one cache-affine dispatch policy of `repro.serve`.

Both tiers place work the same way: :class:`~repro.serve.RunService`
onto worker processes behind pipes, :class:`~repro.serve.FleetService`
onto remote hosts behind sockets.  This module is that policy as a
**pure value**: no IO, no threads, no clocks.  The transports own
spawn/pipe/reap and connect/retry/probe and ask the scheduler what runs
where; callers lock it (the fleet under its ``Condition``; the pool is
single-threaded).

A *target* is any hashable name (a worker id, a ``"host:port"`` label).
The scheduler mirrors each target's compiled-program cache as a warm-key
LRU keyed on :meth:`RunRequest.cache_key`, capped at ``cache_entries``
like the cache it mirrors.  :meth:`AffinityScheduler.take` is the one
decision, scanning the backlog oldest-first for up to ``capacity``
requests:

1. a key warm on ``target`` — an affinity ``hit`` (the run skips IR
   lowering and codegen);
2. a key warm on *no* live target — a ``cold`` start;
3. only when 1–2 yield nothing and the backlog has reached
   :data:`STEAL_THRESHOLD`: the oldest entry although it is warm
   elsewhere — a ``steal``, so affinity never serializes a batch.

Below the threshold ``take`` returns nothing and the request waits for
its warm target.  That cannot stall: the warm target is live, so its
next ``take`` claims the request as a hit — or it dies, :meth:`forget`
clears its warm set, and the key is cold for everyone.

A key is noted warm on its target at every pick (the target compiles it
on arrival), so duplicates of a cold key later in the backlog route to
the same target as hits instead of compiling twice.

Each ``take`` decides for its target alone, so when several targets are
idle at once the caller's offering order matters: the pool offers
fewest-warm-keys first (cold keys spread to the emptiest worker), and a
steal may be decided before a later-offered idle target would have
claimed that request as its hit.

Per-batch state (backlog, in-flight map, seq -> key and item) lives from
:meth:`admit` to :meth:`clear`; warm sets and counters persist.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Hashable, Iterable, Optional

from repro.api.types import RunRequest, RunResult

__all__ = ["AffinityScheduler", "STEAL_THRESHOLD", "failure_result"]

#: backlog depth at which an idle target takes work that is warm on
#: another target rather than waiting for it — bounds queue imbalance
STEAL_THRESHOLD = 2


def failure_result(doc, error: str, error_kind: str, **extra) -> RunResult:
    """Structured ``ok=False`` result for a request doc — even one so
    malformed that it does not parse (``app``/``variant`` then fall back
    to whatever the doc names, or ``"?"``)."""
    try:
        request = RunRequest.from_json(doc)
    except Exception:          # noqa: BLE001 — any bad doc gets a result
        fields = doc if isinstance(doc, dict) else {}
        request = RunRequest(app=str(fields.get("app", "?")),
                             variant=str(fields.get("variant", "?")))
    return RunResult.failure(request, error=error, error_kind=error_kind,
                             **extra)


def _parse(request) -> tuple:
    """``(doc, cache_key, None)`` of a :class:`RunRequest` or well-formed
    request doc, else ``(request, None, <BadRequest result>)``."""
    try:
        if isinstance(request, RunRequest):
            return request.to_json(), request.cache_key(), None
        doc = dict(request)
        return doc, RunRequest.from_json(doc).cache_key(), None
    except (TypeError, ValueError) as exc:
        return request, None, failure_result(
            request, f"malformed request: {exc}", "BadRequest")


def _key_label(key: tuple) -> str:
    """Compact JSON-safe label of a cache key for stats()."""
    app, variant, preset, nprocs, mode = key[:5]
    return f"{app}:{variant}:{preset}:n{nprocs}:{mode}"


class AffinityScheduler:
    """Backlog + warm-key mirrors + the hit / cold / steal decision.

    ``max_backlog`` is admission control: with that many requests
    outstanding (queued + in flight) further ones are refused.
    """

    def __init__(self, cache_entries: int = 64,
                 max_backlog: Optional[int] = None):
        if max_backlog is not None and max_backlog < 1:
            raise ValueError("max_backlog must be at least 1 (or None "
                             "for unbounded admission)")
        self.cache_entries = cache_entries
        self.max_backlog = max_backlog
        self.affinity_hits = 0
        self.cold_starts = 0
        self.steals = 0
        self.rejections = 0
        self.requeues = 0
        self._warm: dict = {}            # target -> OrderedDict of keys
        self._next_seq = 0
        self._backlog: deque = deque()   # queued seqs, oldest first
        self._inflight: dict = {}        # seq -> target it was handed to
        self._items: dict = {}           # seq -> (cache key, caller's item)

    # ------------------------------------------------------------------ #
    # admission

    def admit(self, key, item) -> Optional[int]:
        """Queue ``item`` under ``key``; its seq, or ``None`` if the
        ``max_backlog`` cap refuses it (counted as a rejection)."""
        if self.max_backlog is not None \
                and len(self._items) >= self.max_backlog:
            self.rejections += 1
            return None
        seq = self._next_seq
        self._next_seq += 1
        self._items[seq] = (key, item)
        self._backlog.append(seq)
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
        for index, (doc, key, bad) in enumerate(parsed):
            if bad is None and self.admit(key, (index, doc)) is None:
                bad = failure_result(
                    doc, f"admission refused: {self.max_backlog} "
                    f"request(s) already in flight (the max_backlog cap)",
                    "Rejected")
            if bad is not None:
                refused.append((index, bad))
        return refused

    # ------------------------------------------------------------------ #
    # the decision

    def take(self, target: Hashable, capacity: int = 1) -> list:
        """Hand ``target`` up to ``capacity`` queued requests, as
        ``[(seq, item, verdict)]`` with verdict ``"hit"``, ``"cold"`` or
        ``"steal"`` (see the module docstring for the rule)."""
        picks = []
        while len(picks) < capacity:
            pick = self._next(target)
            if pick is None:
                break
            picks.append(self._hand(target, *pick))
        if not picks and len(self._backlog) >= STEAL_THRESHOLD:
            self.steals += 1
            picks.append(self._hand(target, self._backlog[0], "steal"))
        return picks

    def _next(self, target):
        """Oldest hit for ``target``, else the oldest cold entry."""
        warm = self._warm.get(target, ())
        cold = None
        for seq in self._backlog:
            key = self._items[seq][0]
            if key in warm:
                self.affinity_hits += 1
                return seq, "hit"
            if cold is None and not any(key in w
                                        for w in self._warm.values()):
                cold = seq
        if cold is None:
            return None
        self.cold_starts += 1
        return cold, "cold"

    def _hand(self, target, seq: int, verdict: str) -> tuple:
        self._backlog.remove(seq)
        self._inflight[seq] = target
        warm = self._warm.setdefault(target, OrderedDict())
        key, item = self._items[seq]
        warm[key] = None
        warm.move_to_end(key)
        while len(warm) > self.cache_entries:
            warm.popitem(last=False)
        return seq, item, verdict

    # ------------------------------------------------------------------ #
    # completion, failure, teardown

    def retire(self, seq: int):
        """``seq`` is done: drop it and return its item — ``None`` if it
        was already retired (the exactly-once guard)."""
        if seq not in self._items:
            return None
        if seq in self._inflight:
            del self._inflight[seq]
        else:
            self._backlog.remove(seq)
        return self._items.pop(seq)[1]

    def requeue(self, seqs: Iterable) -> int:
        """Put in-flight ``seqs`` back at the *head* of the backlog, in
        the order given (their target died before finishing them — the
        next taker gets them first).  Returns how many moved."""
        back = [seq for seq in seqs if seq in self._inflight]
        for seq in reversed(back):
            del self._inflight[seq]
            self._backlog.appendleft(seq)
        self.requeues += len(back)
        return len(back)

    def forget(self, target: Hashable) -> None:
        """``target`` died: its cache went with it, so its keys are cold."""
        self._warm.pop(target, None)

    def drain(self) -> list:
        """Retire everything outstanding (nothing is left to run it on);
        returns the items, oldest first."""
        items = [item for _key, item in self._items.values()]
        self.clear()
        return items

    def clear(self) -> None:
        """Discard the per-batch state; warm sets and counters stay."""
        self._backlog.clear()
        self._inflight.clear()
        self._items.clear()

    # ------------------------------------------------------------------ #
    # observability

    @property
    def outstanding(self) -> int:
        """Admitted and not yet retired (queued + in flight)."""
        return len(self._items)

    @property
    def queued(self) -> int:
        return len(self._backlog)

    def warm_count(self, target: Hashable) -> int:
        return len(self._warm.get(target, ()))

    def counters(self) -> dict:
        """The monotonic counters every :class:`BatchResult` diffs."""
        return {"affinity_hits": self.affinity_hits, "steals": self.steals,
                "rejections": self.rejections}

    def stats(self) -> dict:
        return {**self.counters(),
                "max_backlog": self.max_backlog,
                "steal_threshold": STEAL_THRESHOLD,
                "warm_keys": {str(target): [_key_label(k) for k in warm]
                              for target, warm
                              in sorted(self._warm.items())}}
