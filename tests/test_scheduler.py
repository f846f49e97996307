"""`AffinityScheduler` as a value: no processes, no sockets, no clocks.

The slow e2e files (``test_scheduling.py``, ``test_fleet.py``) pin the
two transports; this one pins the policy they share — the hit / cold /
steal decision, requeue-at-head, target death, LRU mirrors, admission —
first as a table of hand-built situations, then as a Hypothesis state
machine over random admit / take / retire / die sequences.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.api import RunRequest
from repro.serve.scheduler import STEAL_THRESHOLD, AffinityScheduler


def key(name):
    return (name, "spf", "test", 2, "sim")


def label(name):
    return f"{name}:spf:test:n2:sim"


A, B, C, D = key("a"), key("b"), key("c"), key("d")


def warmed(sched, target, *keys):
    """Make ``keys`` warm on ``target`` the only way there is: run them."""
    for k in keys:
        sched.admit(k, "warm-up")
    for seq, _item, _verdict in sched.take(target, len(keys)):
        sched.retire(seq)
    assert sched.outstanding == 0
    return sched


def verdicts(picks):
    return [verdict for _seq, _item, verdict in picks]


def items(picks):
    return [item for _seq, item, _verdict in picks]


# ---------------------------------------------------------------------- #
# the decision, case by case: (warm-up, queued keys, taker, capacity)
#   -> the items handed out and their verdicts

DECISIONS = [
    ("cold: nothing is warm anywhere",
     {}, [A], 0, 1, [0], ["cold"]),
    ("hit: the repeat key returns to its warm target",
     {0: [A]}, [A], 0, 1, [0], ["hit"]),
    ("hit beats age: an older cold entry waits behind a hit",
     {0: [A]}, [B, A], 0, 1, [1], ["hit"]),
    ("cold skips warm-elsewhere entries",
     {0: [A]}, [A, B], 1, 1, [1], ["cold"]),
    ("defer: one warm-elsewhere entry is below the steal threshold",
     {0: [A]}, [A], 1, 1, [], []),
    ("steal: the oldest entry once the backlog reaches the threshold",
     {0: [A, B]}, [A, B], 1, 1, [0], ["steal"]),
    ("steal is a last resort and takes one, whatever the capacity",
     {0: [A, B]}, [A, B, A], 1, 3, [0], ["steal"]),
    ("capacity: hits first, then cold, oldest first within each",
     {0: [A]}, [B, A, C, A], 0, 3, [1, 3, 0], ["hit", "hit", "cold"]),
    ("a duplicate of a cold key later in the chunk is the hit it is",
     {}, [A, A, B], 0, 3, [0, 1, 2], ["cold", "hit", "cold"]),
]


@pytest.mark.parametrize("why,warm,queued,taker,capacity,want,want_verdicts",
                         DECISIONS, ids=[d[0] for d in DECISIONS])
def test_take_decision(why, warm, queued, taker, capacity, want,
                       want_verdicts):
    sched = AffinityScheduler()
    for target, keys in warm.items():
        warmed(sched, target, *keys)
    before = (sched.affinity_hits, sched.cold_starts, sched.steals)
    for position, k in enumerate(queued):
        sched.admit(k, position)
    picks = sched.take(taker, capacity)
    assert items(picks) == want
    assert verdicts(picks) == want_verdicts
    after = (sched.affinity_hits, sched.cold_starts, sched.steals)
    assert [b - a for a, b in zip(before, after)] \
        == [want_verdicts.count(v) for v in ("hit", "cold", "steal")]
    assert sched.queued == len(queued) - len(want)


def test_requeue_goes_to_the_head_in_order():
    sched = AffinityScheduler()
    for position, k in enumerate([A, B, C, D]):
        sched.admit(k, position)
    taken = [seq for seq, _item, _verdict in sched.take("dying", 2)]
    sched.forget("dying")
    assert sched.requeue(taken) == 2 and sched.requeues == 2
    assert items(sched.take("heir", 4)) == [0, 1, 2, 3]
    # only in-flight work can go back: a second requeue moves nothing
    sched.forget("heir")
    assert sched.requeue(taken[:1]) == 1
    assert sched.requeue(taken[:1]) == 0


def test_forget_makes_a_dead_targets_keys_cold():
    sched = warmed(AffinityScheduler(), 0, A)
    assert sched.stats()["warm_keys"] == {"0": [label("a")]}
    sched.admit(A, "a")
    assert sched.take(1) == []              # waits for target 0 ...
    sched.forget(0)                         # ... which dies
    assert sched.stats()["warm_keys"] == {}
    assert verdicts(sched.take(1)) == ["cold"]


def test_warm_mirror_is_an_lru_capped_at_cache_entries():
    sched = warmed(AffinityScheduler(cache_entries=2), 0, A, B)
    warmed(sched, 0, A)                     # touch A: B is now the eldest
    warmed(sched, 0, C)                     # evicts B
    assert sched.stats()["warm_keys"]["0"] == [label("a"), label("c")]
    assert sched.warm_count(0) == 2
    sched.admit(B, "b")
    assert verdicts(sched.take(0)) == ["cold"]


def test_admission_counts_queued_plus_in_flight():
    sched = AffinityScheduler(max_backlog=2)
    first = sched.admit(A, "a")
    assert first is not None and sched.admit(B, "b") is not None
    assert sched.admit(C, "c") is None      # two queued
    sched.take(0)
    assert sched.admit(C, "c") is None      # one queued + one in flight
    assert sched.rejections == 2
    assert sched.retire(first) == "a" and sched.outstanding == 1
    assert sched.admit(C, "c") is not None
    with pytest.raises(ValueError):
        AffinityScheduler(max_backlog=0)


def test_retire_is_exactly_once_and_drain_empties():
    sched = AffinityScheduler()
    seqs = [sched.admit(k, name) for k, name in ((A, "a"), (B, "b"),
                                                 (C, "c"))]
    sched.take(0)
    assert sched.retire(seqs[0]) == "a"
    assert sched.retire(seqs[0]) is None
    assert sched.retire(seqs[1]) == "b"     # still queued: retired anyway
    assert sched.drain() == ["c"] and sched.outstanding == 0
    assert sched.retire(seqs[2]) is None


def test_admit_requests_parses_before_it_touches_state():
    good = RunRequest("jacobi", "spf", nprocs=2, preset="test")
    sched = AffinityScheduler(max_backlog=2)
    refused = sched.admit_requests(
        [good, {"app": "jacobi"}, good.to_json(), ["not", "a", "doc"],
         good])
    assert [(index, r.error_kind) for index, r in refused] \
        == [(1, "BadRequest"), (3, "BadRequest"), (4, "Rejected")]
    assert all(not r.ok for _index, r in refused)
    assert refused[0][1].app == "jacobi" and refused[1][1].app == "?"
    assert "max_backlog" in refused[2][1].error
    assert sched.rejections == 1
    picks = sched.take(0, 4)
    assert [index for index, _doc in items(picks)] == [0, 2]
    assert verdicts(picks) == ["cold", "hit"]
    sched.clear()
    assert (sched.outstanding, sched.queued) == (0, 0)
    assert sched.stats()["warm_keys"]["0"]  # warm sets outlive the batch


# ---------------------------------------------------------------------- #
# random histories

# few keys, a tight cap: warm-elsewhere backlogs (defer / steal) and LRU
# evictions turn up in most histories, not one in a thousand
KEYS = [key(name) for name in "abc"]
TARGETS = [0, 1, 2]
CAP = 2


class SchedulerMachine(RuleBasedStateMachine):
    """A model of who holds what, run against the real scheduler."""

    def __init__(self):
        super().__init__()
        self.sched = AffinityScheduler(cache_entries=CAP)
        self.key_of = {}                    # seq -> key
        self.queued = set()
        self.inflight = {}                  # seq -> target
        self.retired = set()
        self.handed = {}                    # seq -> times handed out
        self.requeued = {}                  # seq -> times requeued
        self.dispatched = 0
        self.last_counters = (0, 0, 0, 0)

    def warm_on(self, target):
        return set(self.sched.stats()["warm_keys"].get(str(target), ()))

    @rule(k=st.sampled_from(KEYS))
    def admit(self, k):
        seq = self.sched.admit(k, ("item", len(self.key_of)))
        assert seq is not None and seq not in self.key_of
        self.key_of[seq] = k
        self.queued.add(seq)

    @rule(taker=st.sampled_from(TARGETS), capacity=st.integers(1, 3))
    def take(self, taker, capacity):
        backlog = len(self.queued)
        picks = self.sched.take(taker, capacity)
        assert len(picks) <= capacity
        for seq, item, verdict in picks:
            assert seq in self.queued       # never handed out twice
            assert item[0] == "item" and verdict in ("hit", "cold",
                                                     "steal")
            self.queued.remove(seq)
            self.inflight[seq] = taker
            self.handed[seq] = self.handed.get(seq, 0) + 1
        self.dispatched += len(picks)
        if picks:
            return
        # no stall: an empty take means a short backlog whose every key
        # some *other* target holds warm (and so takes as a hit)
        assert backlog < STEAL_THRESHOLD
        for seq in self.queued:
            name = label(self.key_of[seq][0])
            assert any(name in self.warm_on(other)
                       for other in TARGETS if other != taker)

    @precondition(lambda self: self.inflight)
    @rule(data=st.data())
    def retire(self, data):
        seq = data.draw(st.sampled_from(sorted(self.inflight)))
        assert self.sched.retire(seq) is not None
        assert self.sched.retire(seq) is None
        del self.inflight[seq]
        self.retired.add(seq)

    @rule(victim=st.sampled_from(TARGETS))
    def die(self, victim):
        """The transports' death protocol: forget, requeue at the head."""
        lost = sorted(s for s, t in self.inflight.items() if t == victim)
        self.sched.forget(victim)
        assert self.sched.requeue(lost) == len(lost)
        assert self.sched.requeue(lost) == 0    # they are queued now
        for seq in lost:
            del self.inflight[seq]
            self.queued.add(seq)
            self.requeued[seq] = self.requeued.get(seq, 0) + 1
        assert not self.warm_on(victim)

    @invariant()
    def exactly_once(self):
        assert self.sched.queued == len(self.queued)
        assert self.sched.outstanding \
            == len(self.queued) + len(self.inflight)
        for seq in self.key_of:
            held = (seq in self.inflight) or (seq in self.retired)
            assert self.handed.get(seq, 0) \
                == self.requeued.get(seq, 0) + (1 if held else 0)

    @invariant()
    def counters_add_up(self):
        s = self.sched
        now = (s.affinity_hits, s.cold_starts, s.steals, s.requeues)
        assert sum(now[:3]) == self.dispatched
        assert all(b >= a for a, b in zip(self.last_counters, now))
        self.last_counters = now
        assert s.counters() == {"affinity_hits": now[0], "steals": now[2],
                                "rejections": 0}

    @invariant()
    def warm_sets_stay_capped(self):
        for labels in self.sched.stats()["warm_keys"].values():
            assert len(labels) <= CAP


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(max_examples=60,
                                         stateful_step_count=30,
                                         deadline=None)
