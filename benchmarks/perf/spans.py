"""Outside-in span tracing: the benchmark's own spans around layer entries.

Spans are recorded by wrapping the program's *public* entry points by
name (``repro.tmk.api.tmk_run``, ``Cluster.run``, ``compile_spf`` ...)
for the duration of a traced round; nothing inside ``src/`` is edited
and nothing is recorded during an end-to-end measurement.  Every span is
``{id, name, start, end, parent, request_id}``; they are held in memory
and written once, at exit, in Chrome trace-event shape.

Only the calling (conductor) thread opens spans — the simulated
processors' threads run while the conductor waits inside
``Cluster.run``, so their time is that span's self time.  Who owns the
wall clock between two baton handoffs is the in-program ledger of a
later issue; ``share.*`` is its outside-in placeholder.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request_id = None
        self._stack: list = []
        self._undo: list = []

    # -------------------------------------------------------------- #
    # recording

    def add(self, name: str, start: float, end: float, parent=None,
            request_id=None, nested: bool = True) -> int:
        """Record a span.  ``nested=False`` marks an interval that overlaps
        its siblings (one request's life inside a stream): it is written to
        the trace but takes no part in the self-time arithmetic."""
        self.spans.append({"id": len(self.spans), "name": name,
                           "start": start, "end": end, "parent": parent,
                           "request_id": request_id or self.request_id,
                           "nested": nested})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.perf_counter(), None, parent)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (until
        :meth:`unwrap_all`).  ``owner`` is a module, class or instance."""
        original = owner.__dict__[attr]         # keeps classmethod objects
        fn = original.__func__ if isinstance(original, classmethod) \
            else original

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(owner, attr,
                classmethod(wrapper) if isinstance(original, classmethod)
                else wrapper)
        self._undo.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- #
    # reading

    def self_times(self) -> dict:
        """name -> seconds of self time (span minus its child spans)."""
        nested = [s for s in self.spans if s["nested"]]
        child_total: dict = defaultdict(float)
        for s in nested:
            if s["parent"] is not None:
                child_total[s["parent"]] += s["end"] - s["start"]
        out: dict = defaultdict(float)
        for s in nested:
            out[s["name"]] += (s["end"] - s["start"]) - child_total[s["id"]]
        return dict(out)

    def total_times(self) -> dict:
        out: dict = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return dict(out)

    def write(self, path: str) -> None:
        events = [{"name": s["name"], "ph": "X", "pid": os.getpid(),
                   "tid": 0, "ts": s["start"] * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {"id": s["id"], "parent": s["parent"],
                            "request_id": s["request_id"]}}
                  for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)


def install_inprocess(tracer: Tracer) -> None:
    """Wrap the layer entries an in-process ``execute()`` passes through:
    ``api.execute`` > ``spec.build_program`` > ``compile_*`` /
    ``model_variant`` > ``tmk_run`` / ``Cluster.run``.

    ``execute`` resolves all of them by module attribute at call time, so
    wrapping the public names is enough.
    """
    import repro.api
    import repro.compiler.model as model
    import repro.compiler.spf as spf
    import repro.compiler.xhpf as xhpf
    import repro.tmk.api as tmk_api
    import repro.apps  # noqa: F401 - registers the applications
    from repro.apps.common import APP_REGISTRY
    from repro.sim.cluster import Cluster

    tracer.wrap(repro.api, "execute", "api.execute")
    for spec in APP_REGISTRY.values():
        tracer.wrap(spec, "build_program", "spec.build_program")
    tracer.wrap(spf, "compile_spf", "compiler.compile_spf")
    tracer.wrap(xhpf, "compile_xhpf", "compiler.compile_xhpf")
    tracer.wrap(model, "model_variant", "compiler.model_variant")
    tracer.wrap(tmk_api, "tmk_run", "tmk.tmk_run")
    tracer.wrap(Cluster, "run", "sim.Cluster.run")


def add_result_assembly(tracer: Tracer) -> None:
    """Synthesize ``api.result_assembly``: the tail of each ``api.execute``
    span after its last child returned (window/traffic extraction and
    ``RunResult`` construction)."""
    last_child_end: dict = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            last_child_end[s["parent"]] = max(
                last_child_end.get(s["parent"], 0.0), s["end"])
    for s in list(tracer.spans):
        if s["name"] == "api.execute" and s["id"] in last_child_end:
            tracer.add("api.result_assembly", last_child_end[s["id"]],
                       s["end"], s["id"], request_id=s["request_id"])
