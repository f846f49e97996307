"""Protocol event tracing.

Debugging a relaxed-consistency protocol means reconstructing interleavings
of faults, diffs, notices and grants; this module captures them as
structured events instead of ad-hoc prints.  Attach a tracer to a
:class:`~repro.tmk.api.TmkWorld` (or pass ``trace=True`` to ``tmk_run``)
and every protocol transition is recorded with its virtual timestamp:

    result = tmk_run(4, program, setup, trace=True)
    for ev in result.trace.query(kind="fetch", page=3):
        print(ev)
    print(result.trace.page_history(3))

Events carry only small metadata (no page contents), so tracing large runs
is cheap.  The tracer is also the foundation of the protocol-invariant
checks in ``tests/test_trace.py`` — e.g. "every fetch of a page follows an
invalidation of that page" and "no processor reads a page while write
notices are outstanding".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

__all__ = ["TraceEvent", "ProtocolTrace", "attach_tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One protocol transition."""

    time: float
    pid: int
    kind: str            # fault | fetch | invalidate | diff-create |
    #                      diff-apply | twin | barrier | lock | grant |
    #                      push | interval-close
    page: Optional[int] = None
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.detail.items())
        page = f" page={self.page}" if self.page is not None else ""
        return (f"[{self.time * 1e3:10.3f}ms] p{self.pid} "
                f"{self.kind}{page} {extra}".rstrip())


class ProtocolTrace:
    """An append-only event log with simple queries."""

    def __init__(self):
        self.events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------ #

    def query(self, kind: Optional[str] = None, pid: Optional[int] = None,
              page: Optional[int] = None,
              since: float = 0.0) -> Iterable[TraceEvent]:
        for ev in self.events:
            if kind is not None and ev.kind != kind:
                continue
            if pid is not None and ev.pid != pid:
                continue
            if page is not None and ev.page != page:
                continue
            if ev.time < since:
                continue
            yield ev

    def counts(self) -> dict:
        out: dict = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def page_history(self, page: int) -> str:
        """Human-readable life of one page across all processors."""
        lines = [str(ev) for ev in self.query(page=page)]
        return "\n".join(lines) if lines else f"(no events for page {page})"

    def __len__(self) -> int:
        return len(self.events)


def attach_tracer(world) -> ProtocolTrace:
    """Instrument a TmkWorld's nodes with a shared tracer.

    Must be called before the cluster runs (``tmk_run(trace=True)`` does
    this at the right moment).  Wraps the protocol entry points of every
    node created in the world — the simulator's own (faults, ``_fetch``) and
    the ones ``TmkNode`` inherits from the core (``LrcNode._invalidate``,
    ``_diff_and_cache``, ``close_interval``), which the core always reaches
    through ``self``.
    """
    from repro.tmk import protocol as proto
    from repro.tmk import sync as _sync

    trace = ProtocolTrace()
    world.trace = trace

    class _TracingNode(proto.TmkNode):
        def _read_fault_if_needed(self, page):
            was_valid = self.valid[page]
            yield from super()._read_fault_if_needed(page)
            if not was_valid:
                trace.record(TraceEvent(self.env.now, self.pid, "fault",
                                        page, {"mode": "read"}))

        def _write_fault_if_needed(self, page):
            was_valid, was_dirty = self.valid[page], page in self.twins
            yield from super()._write_fault_if_needed(page)
            if not was_valid or not was_dirty:
                trace.record(TraceEvent(
                    self.env.now, self.pid, "twin" if was_valid else "fault",
                    page, {"mode": "write"}))

        def _fetch(self, page):
            missing = self.meta(page).missing_writers()
            yield from super()._fetch(page)
            trace.record(TraceEvent(self.env.now, self.pid, "fetch", page,
                                    {"writers": [w for w, _f in missing]}))

        def _invalidate(self, page, writer, interval_id):
            super()._invalidate(page, writer, interval_id)
            trace.record(TraceEvent(
                self.env.now, self.pid, "invalidate", page,
                {"writer": writer, "interval": interval_id}))

        def _diff_and_cache(self, page):
            cost = super()._diff_and_cache(page)
            entry = self.diff_cache.get(page, [])
            top = entry[-1].top if entry else 0
            trace.record(TraceEvent(self.env.now, self.pid, "diff-create",
                                    page, {"top": top}))
            return cost

        def close_interval(self):
            rec = super().close_interval()
            if rec is not None:
                trace.record(TraceEvent(
                    self.env.now, self.pid, "interval-close", None,
                    {"id": rec.id, "pages": len(rec.pages)}))
            return rec

    world._node_class = _TracingNode

    def traced_barrier(node):
        yield from _sync.barrier_gen(node)
        trace.record(TraceEvent(node.env.now, node.pid, "barrier"))

    world._traced_barrier = traced_barrier
    return trace
