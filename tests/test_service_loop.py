"""The `Service` loop against fake targets: no process, no thread, no sleep.

``test_scheduler.py`` pins the queue; the slow e2e files pin real
workers and real hosts.  This one pins the loop between them — dispatch,
the one ``wait``, and what a target's loss means — with targets whose
far socketpair end the test holds: a :class:`Peer` answers each request
line the moment the service sends it, from a script, so every history
below is deterministic.  The pool policy (``requeue=False``: a lost
target's request fails as ``WorkerCrashed``) and the fleet policy
(``requeue=True``: it goes back to the head for the survivor) sit side
by side in one table.
"""

import json
import socket

import pytest

from repro.api import RunRequest, RunResult
from repro.serve.service import Service, Target
from repro.serve.wire import JsonLines


class Peer(JsonLines):
    """A fake target's channel.  ``script`` is consumed one action per
    request received — ``"ok"`` (the default once it runs out) echoes a
    result carrying the request's tag, ``"die"`` closes the far end with
    the request in flight, ``"garble"`` answers with a non-JSON line,
    ``"skip"`` leaves the request unanswered, and any other value echoes
    the result under that value as its ``index``."""

    def __init__(self, label, script, log):
        ours, self.far = socket.socketpair()
        super().__init__(ours)
        self.label, self.script, self.log = label, list(script), log

    def send(self, obj):
        super().send(obj)          # real bytes: a dead far end fails here
        if obj["op"] == "bye":
            return
        line = self.far.recv(1 << 16)
        assert json.loads(line) == obj and line.endswith(b"\n")
        docs = [obj["request"]] if obj["op"] == "run" else obj["requests"]
        self.log.append((self.label, obj["op"], [d["tag"] for d in docs]))
        for index, doc in enumerate(docs):
            action = self.script.pop(0) if self.script else "ok"
            if action == "die":
                return self.far.close()
            if action == "garble":
                return self.far.sendall(b"!!not json!!\n")
            if action == "skip":
                continue
            request = RunRequest.from_json(doc)
            result = RunResult(app=request.app, variant=request.variant,
                               nprocs=request.nprocs, preset=request.preset,
                               time=1.0, tag=request.tag)
            self._answer({"op": "result",
                          "index": index if action == "ok" else action,
                          "result": result.to_json()})
        if obj["op"] == "batch":
            self._answer({"op": "batch-done"})

    def _answer(self, obj):
        self.far.sendall((json.dumps(obj) + "\n").encode())

    def close(self):
        super().close()
        self.far.close()


def fake(label, capacity=1, requeue=False, script=(), dead=False, log=None):
    target = Target(label, capacity=capacity, requeue=requeue)
    target.chan = Peer(label, script, log)
    if dead:
        target.chan.far.close()
    return target


def requests(n):
    return [RunRequest("jacobi", "spf", nprocs=2, preset="test",
                       tag=f"r{i}") for i in range(n)]


def run(targets, n, exhausted=None):
    """Stream ``n`` requests through a Service over ``targets``; return
    ``(index -> result, service)``, every index yielded exactly once."""
    svc = Service(targets)
    if exhausted:
        svc.exhausted = exhausted
    seen = {}
    with svc:
        for index, result in svc.stream(requests(n)):
            assert index not in seen
            seen[index] = result
        assert sorted(seen) == list(range(n))
        assert svc._backlog.outstanding == 0
    return seen, svc


def verdicts(seen):
    return [seen[i].error_kind or seen[i].tag for i in sorted(seen)]


def test_hand_out_is_fifo_by_capacity():
    log = []
    a = fake("a", capacity=2, log=log)
    b = fake("b", capacity=1, log=log)
    seen, _svc = run([a, b], 5)
    assert verdicts(seen) == ["r0", "r1", "r2", "r3", "r4"]
    # the first wave fills each idle target to its capacity, oldest first:
    # two or more requests travel as a `batch`, one as a `run`
    assert log[:2] == [("a", "batch", ["r0", "r1"]), ("b", "run", ["r2"])]
    # and over the whole batch nothing is sent twice or out of order
    assert [tag for _l, _op, tags in log for tag in tags] \
        == ["r0", "r1", "r2", "r3", "r4"]
    assert a.runs + b.runs == 5


HOSTLOST = ("HostLost", "no fleet host remains")

#: name, targets as (capacity, requeue, script, dead), requests,
#: exhaustion error -> verdict per index, who ran what, crashes, requeues
LOSS = [
    ("a send failure requeues and never blames the request (pool)",
     [(1, False, [], True), (1, False, [], False)], 3, None,
     ["r0", "r1", "r2"], {"t1": ["r0", "r1", "r2"]}, 1, 1),
    ("a send failure requeues and never blames the request (fleet)",
     [(2, True, [], True), (2, True, [], False)], 3, HOSTLOST,
     ["r0", "r1", "r2"], {"t1": ["r0", "r1", "r2"]}, 1, 2),
    ("a 'fail' target's loss is exactly one WorkerCrashed result",
     [(1, False, ["die"], False), (1, False, [], False)], 3, None,
     ["WorkerCrashed", "r1", "r2"], {"t0": ["r0"], "t1": ["r1", "r2"]},
     1, 0),
    # r3 left before the loss was noticed; requeued r1 then jumps r4
    ("a 'requeue' target's loss re-runs exactly the pending seqs",
     [(2, True, ["ok", "die"], False), (1, True, [], False)], 5, HOSTLOST,
     ["r0", "r1", "r2", "r3", "r4"],
     {"t0": ["r0", "r1"], "t1": ["r2", "r3", "r1", "r4"]}, 1, 1),
    ("a garbled line is a loss like EOF",
     [(1, True, ["garble"], False), (1, True, [], False)], 2, HOSTLOST,
     ["r0", "r1"], {"t0": ["r0"], "t1": ["r1", "r0"]}, 1, 1),
    # the loss is noticed in the read that brought r0: r1 goes first
    ("a result that arrived with the garbled line still counts",
     [(2, True, ["ok", "garble"], False), (1, True, [], False)], 5, HOSTLOST,
     ["r0", "r1", "r2", "r3", "r4"],
     {"t0": ["r0", "r1"], "t1": ["r2", "r1", "r3", "r4"]}, 1, 1),
    # r0's result under index -1 would land on r2: the first forged index
    # loses t0 before any of its answers counts
    ("a forged index loses the target, and no result lands elsewhere",
     [(3, True, [-1, 0, True], False), (1, True, [], False)], 3, HOSTLOST,
     ["r0", "r1", "r2"],
     {"t0": ["r0", "r1", "r2"], "t1": ["r0", "r1", "r2"]}, 1, 3),
    ("a second answer to one request loses the target",
     [(3, True, ["ok", 0], False), (1, True, [], False)], 3, HOSTLOST,
     ["r0", "r1", "r2"], {"t0": ["r0", "r1", "r2"], "t1": ["r1", "r2"]},
     1, 2),
    ("a batch-done before every result loses the target",
     [(2, True, ["ok", "skip"], False), (1, True, [], False)], 2, HOSTLOST,
     ["r0", "r1"], {"t0": ["r0", "r1"], "t1": ["r1"]}, 1, 1),
    # t2 never gets r0: lost by two targets, it fails instead of going
    # round again
    ("a request requeued once fails at its second loss",
     [(1, True, ["die"], False), (1, True, ["die"], False),
      (1, True, [], False)], 1, HOSTLOST,
     ["HostLost"], {"t0": ["r0"], "t1": ["r0"]}, 2, 1),
    ("no target left: the pool drains as WorkerCrashed",
     [(1, False, ["die"], False)], 3, None,
     ["WorkerCrashed"] * 3, {"t0": ["r0"]}, 1, 0),
    ("no target left: the fleet drains as HostLost",
     [(2, True, ["ok", "die"], False)], 4, HOSTLOST,
     ["r0", "HostLost", "HostLost", "HostLost"], {"t0": ["r0", "r1"]},
     1, 1),
]


@pytest.mark.parametrize(
    "why,specs,n,exhausted,want,ran,crashes,requeues", LOSS,
    ids=[case[0] for case in LOSS])
def test_what_a_loss_means(why, specs, n, exhausted, want, ran, crashes,
                           requeues):
    log = []
    targets = [fake(f"t{i}", capacity, requeue, script, dead, log)
               for i, (capacity, requeue, script, dead) in enumerate(specs)]
    seen, svc = run(targets, n, exhausted)
    assert verdicts(seen) == want
    received = {}
    for label, _op, tags in log:
        received.setdefault(label, []).extend(tags)
    assert received == ran
    assert svc.counters()["crashes"] == crashes
    assert svc._backlog.requeues == requeues


def test_loss_messages_name_the_target_and_the_cause():
    seen, _svc = run([fake("t0", script=["die"], log=[])], 2)
    assert "t0 was lost while running this request" in seen[0].error
    assert "no live target remains (last lost: t0 was lost: EOF" \
        in seen[1].error
    seen, _svc = run([fake("t0", requeue=True, script=["garble"], log=[]),
                      fake("t1", requeue=True, script=["die"], log=[]),
                      fake("t2", log=[])], 1, HOSTLOST)
    assert seen[0].error.startswith(
        "t1 was lost while running this request, which was already "
        "requeued once: EOF")
