"""`Backlog` as a value: no processes, no sockets, no clocks.

The slow e2e files (``test_scheduling.py``, ``test_fleet.py``) pin the
two transports; this one pins the queue they share — FIFO hand-out,
requeue-at-head (once per request), exactly-once retire, admission —
first as a table of
hand-built situations, then as a Hypothesis state machine over random
admit / take / retire / die sequences.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.api import RunRequest
from repro.serve.scheduler import Backlog


def items(picks):
    return [item for _seq, item in picks]


# ---------------------------------------------------------------------- #
# hand-out order, case by case: ops on a backlog of "a".."e" -> the items
# the takes hand out, in order.  ("take", n) takes n; ("die", i) requeues
# what the i-th take handed out; ("retire", name) retires a queued item.

ORDER = [
    ("oldest first, one at a time",
     [("take", 1), ("take", 1), ("take", 1)], ["a", "b", "c"]),
    ("capacity takes the oldest n",
     [("take", 3), ("take", 3)], ["a", "b", "c", "d", "e"]),
    ("an empty take means an empty queue, not a full taker",
     [("take", 5), ("take", 1)], ["a", "b", "c", "d", "e"]),
    ("requeued work goes to the head, in the order given",
     [("take", 2), ("take", 1), ("die", 0), ("take", 4)],
     ["a", "b", "c", "a", "b", "d", "e"]),
    ("a later death jumps ahead of an earlier one's requeue",
     [("take", 1), ("take", 1), ("die", 0), ("die", 1), ("take", 5)],
     ["a", "b", "b", "a", "c", "d", "e"]),
    ("retiring a queued entry takes it out of the order",
     [("retire", "b"), ("take", 5)], ["a", "c", "d", "e"]),
]


@pytest.mark.parametrize("why,ops,want", ORDER, ids=[c[0] for c in ORDER])
def test_take_order(why, ops, want):
    backlog = Backlog()
    seq_of = {name: backlog.admit(name) for name in "abcde"}
    takes, got = [], []
    for op, arg in ops:
        if op == "take":
            was_empty = backlog.queued == 0
            takes.append(backlog.take(arg))
            assert (takes[-1] == []) == was_empty
            got += items(takes[-1])
        elif op == "die":
            lost = [seq for seq, _item in takes[arg]]
            assert backlog.requeue(lost) == []
        else:
            assert backlog.retire(seq_of[arg]) == arg
    assert got == want


def test_requeue_goes_to_the_head_in_order():
    backlog = Backlog()
    for name in "abcd":
        backlog.admit(name)
    taken = [seq for seq, _item in backlog.take(2)]
    assert backlog.requeue(taken) == [] and backlog.requeues == 2
    # only in-flight work can go back: a queued seq does not move
    assert backlog.requeue(taken) == [] and backlog.requeues == 2
    assert items(backlog.take(4)) == ["a", "b", "c", "d"]
    # and only once: lost again, a requeued seq is retired and its item
    # handed back for the caller to fail; a retired seq stays retired
    assert backlog.requeue(taken[:1]) == ["a"]
    assert backlog.requeue(taken[:1]) == []
    assert backlog.retire(taken[0]) is None
    assert backlog.requeues == 2 and backlog.outstanding == 3


def test_admission_counts_queued_plus_in_flight():
    backlog = Backlog(max_backlog=2)
    first = backlog.admit("a")
    assert first is not None and backlog.admit("b") is not None
    assert backlog.admit("c") is None       # two queued
    backlog.take()
    assert backlog.admit("c") is None       # one queued + one in flight
    assert backlog.rejections == 2
    assert backlog.counters() == {"rejections": 2}
    assert backlog.stats() == {"rejections": 2, "max_backlog": 2}
    assert backlog.retire(first) == "a" and backlog.outstanding == 1
    assert backlog.admit("c") is not None
    with pytest.raises(ValueError):
        Backlog(max_backlog=0)


def test_retire_is_exactly_once_and_drain_empties():
    backlog = Backlog()
    seqs = [backlog.admit(name) for name in "abc"]
    backlog.take()
    assert backlog.retire(seqs[0]) == "a"
    assert backlog.retire(seqs[0]) is None
    assert backlog.retire(seqs[1]) == "b"   # still queued: retired anyway
    assert backlog.drain() == ["c"] and backlog.outstanding == 0
    assert backlog.retire(seqs[2]) is None
    assert backlog.take() == []


def test_admit_requests_parses_before_it_touches_state():
    good = RunRequest("jacobi", "spf", nprocs=2, preset="test")
    backlog = Backlog(max_backlog=2)
    refused = backlog.admit_requests(enumerate(
        [good, {"app": "jacobi"}, good.to_json(), ["not", "a", "doc"],
         good]))
    assert [(index, r.error_kind) for index, r in refused] \
        == [(1, "BadRequest"), (3, "BadRequest"), (4, "Rejected")]
    assert all(not r.ok for _index, r in refused)
    assert refused[0][1].app == "jacobi" and refused[1][1].app == "?"
    assert "max_backlog" in refused[2][1].error
    assert backlog.rejections == 1
    assert items(backlog.take(4)) == [(0, good.to_json()),
                                      (2, good.to_json())]
    backlog.clear()
    assert (backlog.outstanding, backlog.queued) == (0, 0)
    assert backlog.rejections == 1          # counters outlive the batch


# ---------------------------------------------------------------------- #
# random histories

TARGETS = [0, 1, 2]


class SchedulerMachine(RuleBasedStateMachine):
    """A model of who holds what, run against the real backlog."""

    def __init__(self):
        super().__init__()
        self.backlog = Backlog()
        self.admitted = 0
        self.order = []                     # queued seqs, expected order
        self.inflight = {}                  # seq -> target holding it
        self.retired = set()
        self.handed = {}                    # seq -> times handed out
        self.requeued = {}                  # seq -> times requeued

    @rule()
    def admit(self):
        seq = self.backlog.admit(("item", self.admitted))
        assert seq is not None and seq not in self.handed \
            and seq not in self.order
        self.admitted += 1
        self.order.append(seq)

    @rule(taker=st.sampled_from(TARGETS), capacity=st.integers(1, 3))
    def take(self, taker, capacity):
        picks = self.backlog.take(capacity)
        want, self.order = self.order[:capacity], self.order[capacity:]
        assert [seq for seq, _item in picks] == want        # FIFO
        assert (picks == []) == (want == [])    # empty only if none queued
        for seq, item in picks:
            assert item[0] == "item"
            self.inflight[seq] = taker
            self.handed[seq] = self.handed.get(seq, 0) + 1

    @precondition(lambda self: self.inflight)
    @rule(data=st.data())
    def retire(self, data):
        seq = data.draw(st.sampled_from(sorted(self.inflight)))
        assert self.backlog.retire(seq) is not None
        assert self.backlog.retire(seq) is None
        del self.inflight[seq]
        self.retired.add(seq)

    @rule(victim=st.sampled_from(TARGETS), data=st.data())
    def die(self, victim, data):
        """The transports' death protocol: requeue at the head, in the
        order the transport names them — except a seq requeued before,
        which is retired and handed back to be failed."""
        lost = data.draw(st.permutations(
            sorted(s for s, t in self.inflight.items() if t == victim)))
        back = [seq for seq in lost if seq not in self.requeued]
        spent = [seq for seq in lost if seq in self.requeued]
        assert self.backlog.requeue(lost) == [("item", seq) for seq in spent]
        assert self.backlog.requeue(lost) == []     # queued or retired now
        self.order = back + self.order
        for seq in lost:
            del self.inflight[seq]
        for seq in back:
            self.requeued[seq] = self.requeued.get(seq, 0) + 1
        self.retired.update(spent)

    @invariant()
    def exactly_once(self):
        assert self.backlog.queued == len(self.order)
        assert self.backlog.outstanding \
            == len(self.order) + len(self.inflight)
        for seq in self.handed:
            held = (seq in self.inflight) or (seq in self.retired)
            assert self.handed[seq] \
                == self.requeued.get(seq, 0) + (1 if held else 0)

    @invariant()
    def no_seq_is_requeued_twice(self):
        assert all(times == 1 for times in self.requeued.values())

    @invariant()
    def counters_add_up(self):
        assert self.backlog.requeues == sum(self.requeued.values())
        assert self.backlog.counters() == {"rejections": 0}


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(max_examples=60,
                                       stateful_step_count=30,
                                       deadline=None)
