"""The one code path from :class:`RunRequest` to :class:`RunResult`.

Every entry point — ``repro run``/``compare``/``figures``, the sweep and
chaos harnesses, the bench kernels and every :mod:`repro.serve` worker
process — funnels through
:func:`execute`.  It owns variant dispatch (spf family, xhpf family,
hand-coded tmk/pvme, the sequential oracle, and the analytic ``model``
mode) and the **compiled-program cache**: repeated requests with the same
:meth:`RunRequest.cache_key` skip IR building, footprint lowering and
codegen, which is where the run service gets its repeat-throughput.

What is cached (per :class:`ProgramCache`, i.e. per process/worker):

* spf family — the built :class:`~repro.compiler.ir.Program` and the
  compiled :class:`~repro.compiler.spf.SpfExecutable` (codegen reuse
  across runs is the established pattern of the chaos/racecheck
  harnesses, which compile once and run per seed);
* xhpf family — the built program and :class:`XhpfExecutable`
  (inspector-executor schedules live in per-run state, so the executable
  itself is reusable);
* tmk / pvme / seq / model — the built program (hand-coded variants have
  no codegen step; the model replays its replica per run);
* the sequential oracle's window time, keyed ``(app, preset)`` — shared
  by every variant of an app, so one batch computes it once per worker.

A cache hit/miss verdict is recorded on each result (``cache_hit``), and
the cache keeps running totals — the service aggregates both into
:class:`~repro.api.types.BatchResult` and the e2e tests assert them.
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict
from typing import Iterable, Optional

from repro.api import registry
from repro.api.types import (RunRequest, RunResult, _replace,
                             fault_plan_from_doc, machine_from_doc)

__all__ = ["ProgramCache", "execute", "run", "run_batch_inprocess"]


class ProgramCache:
    """LRU cache of prepared (built/compiled) programs, with counters.

    One instance per process: executables close over numpy arrays and
    kernels, so they never cross process boundaries — each serve worker
    owns one, and the in-process batch helpers share one.
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key, build):
        """Return ``build()``'s value for ``key``, memoized LRU."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            value = build()
            self._entries[key] = value
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            return value, False
        self.hits += 1
        self._entries.move_to_end(key)
        return value, True

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._entries)}


def _validate(request: RunRequest) -> None:
    if request.variant not in registry.VARIANTS:
        raise ValueError(f"unknown variant {request.variant!r} "
                         f"(choose from {', '.join(registry.VARIANTS)})")
    reason = registry.supports(request.app, request.variant)
    if reason:
        raise ValueError(reason)
    if request.racecheck and request.variant not in registry.DSM_VARIANTS:
        raise ValueError(
            f"racecheck applies to the DSM variants "
            f"{registry.DSM_VARIANTS}, not {request.variant!r} "
            f"(message-passing variants have no shared memory)")
    if request.readback and request.variant not in registry.DSM_VARIANTS:
        raise ValueError(
            f"readback applies to the DSM variants "
            f"{registry.DSM_VARIANTS}, not {request.variant!r} "
            f"(only shared arrays have coherent contents to read back)")
    if request.readback and request.mode != "sim":
        raise ValueError("readback requires mode='sim' "
                         "(the analytic model has no arrays)")


def _spf_options(spec, request: RunRequest):
    from repro.compiler.spf import SpfOptions

    if request.variant == "spf_opt":
        return spec.spf_opt_options()
    if request.variant == "spf_old":
        base = {"improved_interface": False}
    else:
        base = {}
    if request.options:
        base.update(request.options)
    return SpfOptions(**base)


def _xhpf_options(request: RunRequest):
    from repro.compiler.xhpf import XhpfOptions

    base = {"inspector_executor": request.variant == "xhpf_ie"}
    if request.options:
        base.update(request.options)
    return XhpfOptions(**base)


def _seq_time_for(request: RunRequest, cache: ProgramCache) -> float:
    """The oracle's window time, cached per (app, preset)."""
    if request.seq_time is not None:
        return request.seq_time

    def build():
        from repro.compiler.seq import sequential_time
        spec = registry._specs()[request.app]
        return sequential_time(spec.build_program(spec.params(
            request.preset)))

    value, _hit = cache.get(("seq_time", request.app, request.preset), build)
    return value


def _prepare(request: RunRequest, cache: ProgramCache):
    """(prepared bundle, cache_hit) for the request's cache key."""
    spec = registry._specs()[request.app]
    params = spec.params(request.preset)     # KeyError on unknown preset

    def build():
        if request.mode == "model" or request.variant in ("seq", "tmk",
                                                          "pvme"):
            return {"spec": spec, "params": params,
                    "program": (spec.build_program(params)
                                if request.variant not in ("tmk", "pvme")
                                else None)}
        program = spec.build_program(params)
        if request.variant == "spf_spec":
            from repro.compiler.spf_spec import compile_spf_spec
            exe = compile_spf_spec(program, request.nprocs,
                                   _spf_options(spec, request))
        elif request.variant in ("spf", "spf_opt", "spf_old"):
            from repro.compiler.spf import compile_spf
            exe = compile_spf(program, request.nprocs,
                              _spf_options(spec, request))
        else:
            from repro.compiler.xhpf import compile_xhpf
            exe = compile_xhpf(program, request.nprocs,
                               _xhpf_options(request))
        return {"spec": spec, "params": params, "program": program,
                "exe": exe}

    return cache.get(request.cache_key(), build)


def _seq_result(request: RunRequest, bundle) -> RunResult:
    from repro.compiler.seq import run_sequential

    _views, scalars, time = run_sequential(bundle["program"])
    return RunResult(app=request.app, variant="seq", nprocs=1,
                     preset=request.preset, time=time, seq_time=time,
                     messages=0, kilobytes=0.0, signature=dict(scalars),
                     mode=request.mode)


def _execute_model(request: RunRequest, cache: ProgramCache,
                   hit: bool) -> RunResult:
    from repro.compiler.model import model_variant

    seq_time = (None if request.variant == "seq"
                else _seq_time_for(request, cache))
    res = model_variant(request.app, request.variant,
                        nprocs=request.nprocs, preset=request.preset,
                        machine=machine_from_doc(request.machine),
                        seq_time=seq_time, gc_epochs=request.gc_epochs)
    return _replace(res, tag=request.tag, cache_hit=hit)


def _wrap_readback(body):
    """The racecheck harness's coherent-readback wrapper (lazy import:
    the harness imports apps/compilers this module must not pull in at
    import time)."""
    from repro.eval.racecheck import _wrap_with_readback
    return _wrap_with_readback(body)


def _unwrap_readback(result):
    """Split a readback-wrapped run into per-pid outputs + array hashes."""
    from repro.eval.racecheck import _hash
    parts = [out for out, _arrays in result.results]
    _out0, arrays = result.results[0]
    return parts, {name: _hash(a) for name, a in sorted(arrays.items())}


def _execute_sim(request: RunRequest, cache: ProgramCache,
                 bundle, hit: bool) -> RunResult:
    from repro.apps.common import combine_signatures

    spec, params = bundle["spec"], bundle["params"]
    machine = machine_from_doc(request.machine)
    faults = fault_plan_from_doc(request.fault_plan)

    if request.variant == "seq":
        return _replace(_seq_result(request, bundle), tag=request.tag,
                        cache_hit=hit)

    seq_time = _seq_time_for(request, cache)
    array_hashes = None
    speculation = None

    if request.variant in ("spf", "spf_opt", "spf_old", "spf_spec"):
        from repro.tmk.api import tmk_run
        exe = bundle["exe"]
        main = _wrap_readback(exe.run_on) if request.readback else exe.run_on
        # spf_spec's misspeculation detector IS the race monitor: force it
        # on so UNKNOWN loops speculate instead of degrading to serial
        racecheck = request.racecheck or request.variant == "spf_spec"
        result = tmk_run(request.nprocs, main, exe.setup_space,
                         model=machine, gc_epochs=request.gc_epochs,
                         schedule_seed=request.schedule_seed,
                         racecheck=racecheck, faults=faults)
        if request.readback:
            parts, array_hashes = _unwrap_readback(result)
            result.scalars = parts[0]
        else:
            result.scalars = result.results[0]
        signature = dict(result.scalars)
        dsm = result.dsm_stats
        speculation = getattr(exe, "last_spec_stats", None)
    elif request.variant in ("xhpf", "xhpf_ie"):
        from repro.sim.cluster import Cluster
        exe = bundle["exe"]
        cluster = Cluster(nprocs=request.nprocs, model=machine,
                          schedule_seed=request.schedule_seed, faults=faults)
        result = cluster.run(exe.run_on)
        result.scalars = result.results[0]
        result.fault_stats = cluster.net.fault_stats
        signature = dict(result.scalars)
        dsm = None
    elif request.variant == "tmk":
        from repro.tmk.api import tmk_run

        def setup(space):
            spec.hand_tmk_setup(space, params)

        def main(tmk):
            return spec.hand_tmk(tmk, params)

        if request.readback:
            main = _wrap_readback(main)
        result = tmk_run(request.nprocs, main, setup, model=machine,
                         gc_epochs=request.gc_epochs,
                         schedule_seed=request.schedule_seed,
                         racecheck=request.racecheck, faults=faults)
        if request.readback:
            parts, array_hashes = _unwrap_readback(result)
        else:
            parts = result.results
        signature = combine_signatures(parts)
        dsm = result.dsm_stats
    else:                                     # pvme
        from repro.msg.pvme import Pvme
        from repro.sim.cluster import Cluster
        cluster = Cluster(nprocs=request.nprocs, model=machine,
                          schedule_seed=request.schedule_seed, faults=faults)

        def pvme_main(env):
            return spec.hand_pvme(Pvme(env), params)

        result = cluster.run(pvme_main)
        result.fault_stats = cluster.net.fault_stats
        signature = combine_signatures(result.results)
        dsm = None

    elapsed, wtraffic = result.window()
    return RunResult(
        app=request.app, variant=request.variant, nprocs=request.nprocs,
        preset=request.preset, time=elapsed, seq_time=seq_time,
        messages=wtraffic.messages, kilobytes=wtraffic.kilobytes,
        signature=signature, dsm=dsm,
        total_messages=result.messages,
        total_kilobytes=result.kilobytes,
        categories={k: (v[0], v[1])
                    for k, v in wtraffic.by_category.items()},
        races=(getattr(result, "racecheck", None)
               if request.racecheck else None),
        array_hashes=array_hashes,
        speculation=speculation,
        events=getattr(result, "events", 0),
        retransmissions=result.stats.retransmissions,
        acks=result.stats.acks,
        dup_suppressed=result.stats.dup_suppressed,
        fault_stats=getattr(result, "fault_stats", None),
        mode="sim", tag=request.tag, cache_hit=hit,
    )


def execute(request: RunRequest,
            cache: Optional[ProgramCache] = None) -> RunResult:
    """Run one request and return its result (raising on invalid input).

    ``cache`` persists compiled programs across calls; omit it for a
    one-shot run (a fresh throwaway cache).  Execution errors propagate as exceptions here; the serve
    worker layer is what converts them into structured failure results.
    """
    _validate(request)
    cache = cache if cache is not None else ProgramCache()
    t0 = _time.perf_counter()
    bundle, hit = _prepare(request, cache)
    if request.mode == "model":
        res = _execute_model(request, cache, hit)
    else:
        res = _execute_sim(request, cache, bundle, hit)
    return _replace(res, wall_s=round(_time.perf_counter() - t0, 6))


def run(request: RunRequest,
        cache: Optional[ProgramCache] = None) -> RunResult:
    """Alias of :func:`execute` (the friendlier public name)."""
    return execute(request, cache)


def run_batch_inprocess(requests: Iterable[RunRequest],
                        cache: Optional[ProgramCache] = None):
    """Serial in-process batch: yields results in request order.

    The serial counterpart of :meth:`repro.serve.RunService.run_batch` —
    one shared cache, no worker pool.  This is also the throughput
    harness's baseline when asked for a cached serial run.
    """
    cache = cache if cache is not None else ProgramCache()
    for request in requests:
        yield execute(request, cache)
