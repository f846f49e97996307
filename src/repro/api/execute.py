"""The one code path from :class:`RunRequest` to :class:`RunResult`.

Every entry point that runs an (application, variant) pair — ``repro
run``/``compare``/``reproduce``, the sweep, chaos and racecheck harnesses
(via :func:`repro.eval.parallel.run_requests`), the bench kernels and
every :mod:`repro.serve` worker process — funnels through
:func:`execute`; nothing else in ``src/`` maps a variant name to
something runnable.  It owns variant dispatch (spf family, xhpf family,
hand-coded tmk/pvme, the sequential oracle, and the analytic ``model``
mode) and the **compiled-program cache**: repeated requests with the same
:meth:`RunRequest.cache_key` skip IR building, footprint lowering and
codegen.

What is cached (per :class:`ProgramCache`, i.e. per process/worker):

* spf family — the built :class:`~repro.compiler.ir.Program` and the
  compiled :class:`~repro.compiler.spf.SpfExecutable` (the chaos and
  racecheck harnesses compile once and run per seed this way);
* xhpf family — the built program and :class:`XhpfExecutable`
  (inspector-executor schedules live in per-run state, so the executable
  itself is reusable);
* seq — the built program;
* tmk / pvme / model — nothing built, only the app's spec and parameters
  (hand-coded variants have no codegen step; the model builds and replays
  its own replica per run).

The sequential oracle's window time is kept beside the cache, not in it:
one number per ``(app, preset)`` and process, shared by every variant of
an app, so a worker computes it once; it takes no program slot and counts
no cache hit or miss.

A cache hit/miss verdict is recorded on each result (``cache_hit``), and
the cache keeps running totals — the service aggregates both into
:class:`~repro.api.types.BatchResult` and the e2e tests assert them.
"""

from __future__ import annotations

import functools
import hashlib
import time as _time
from collections import OrderedDict
from typing import Callable, Iterable, Optional

import numpy as np

from repro.api import registry
from repro.api.types import (RunRequest, RunResult, _known_keys, _replace,
                             failure_result, fault_plan_from_doc,
                             machine_from_doc)

__all__ = ["ProgramCache", "execute", "execute_with_arrays",
           "default_runner", "InProcess", "READBACK_SOURCE"]


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


#: the variants whose codegen switches ``RunRequest.options`` may override;
#: every other variant fixes its switches (``spf_opt`` the paper's hand
#: optimizations, ``xhpf``/``xhpf_ie`` the irregular-loop strategy) or has
#: no codegen step
_OPTION_VARIANTS = ("spf", "spf_old", "spf_spec")


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
    if request.options:
        if request.mode != "sim" or request.variant not in _OPTION_VARIANTS:
            raise ValueError(
                f"options apply to mode='sim' runs of "
                f"{', '.join(_OPTION_VARIANTS)}, not to a mode="
                f"{request.mode!r} {request.variant!r} run (its switches "
                f"are fixed: choose the variant instead)")
        if "improved_interface" in request.options:
            raise ValueError(
                "options cannot set improved_interface: the variant picks "
                "the fork-join interface (spf improved, spf_old original)")
        from repro.compiler.spf import SpfOptions
        _known_keys("options", request.options, SpfOptions)


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


#: (app, preset) -> (app spec, the oracle's window time), per process; an
#: app registered again under its name is timed again
_SEQ_TIMES: dict = {}


def _seq_time_for(request: RunRequest) -> float:
    """The oracle's window time, computed once per (app, preset)."""
    if request.seq_time is not None:
        return request.seq_time
    spec = registry._specs()[request.app]
    key = (request.app, request.preset)
    known = _SEQ_TIMES.get(key)
    if known is None or known[0] is not spec:
        from repro.compiler.seq import sequential_time
        known = _SEQ_TIMES[key] = (spec, sequential_time(
            spec.build_program(spec.params(request.preset))))
    return known[1]


def _prepare(request: RunRequest, cache: ProgramCache):
    """(prepared bundle, cache_hit) for the request's cache key."""
    spec = registry._specs()[request.app]
    params = spec.params(request.preset)     # KeyError on unknown preset

    def build():
        if request.mode == "model" or request.variant in ("seq", "tmk",
                                                          "pvme"):
            # only the sequential oracle runs a built program here
            return {"spec": spec, "params": params,
                    "program": (spec.build_program(params)
                                if request.variant == "seq" else None)}
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
                               request.variant == "xhpf_ie")
        return {"spec": spec, "params": params, "program": program,
                "exe": exe}

    return cache.get(request.cache_key(), build)


def _seq_result(request: RunRequest, bundle, hit: bool) -> RunResult:
    """The sequential oracle's run, the same in both modes."""
    from repro.compiler.seq import run_sequential

    _views, scalars, time = run_sequential(bundle["program"])
    return RunResult(app=request.app, variant="seq", nprocs=1,
                     preset=request.preset, time=time, seq_time=time,
                     messages=0, kilobytes=0.0, signature=dict(scalars),
                     mode=request.mode, tag=request.tag, cache_hit=hit)


def _execute_model(request: RunRequest, hit: bool) -> RunResult:
    from repro.compiler.model import model_variant

    res = model_variant(request.app, request.variant,
                        nprocs=request.nprocs, preset=request.preset,
                        machine=machine_from_doc(request.machine),
                        seq_time=_seq_time_for(request))
    return _replace(res, tag=request.tag, cache_hit=hit)


#: source tag of the coherent readback's own accesses
READBACK_SOURCE = "racecheck:readback"


def _array_hash(arr) -> str:
    """sha256 over an array's shape, dtype and contiguous bytes."""
    h = hashlib.sha256()
    h.update(str(arr.shape).encode())
    h.update(str(arr.dtype).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _readback_gen(tmk):
    """A barrier-ordered coherent readback of every application array on
    processor 0 (generator of block requests).  The barrier happens-after
    every program access, so the readback itself can never introduce a
    race."""
    yield from tmk.barrier_gen()
    arrays = {}
    if tmk.pid == 0:
        from repro.compiler.spf import REDUCTION_PREFIX, STAGING_PREFIX
        from repro.tmk.forkjoin import CTRL_PREFIX

        # runtime-internal shared arrays, excluded from the numeric readback
        internal = (REDUCTION_PREFIX, STAGING_PREFIX, CTRL_PREFIX)
        for handle in tmk.world.space.handles():
            if handle.name.startswith(internal):
                continue
            view = yield from tmk.array(handle.name).read_gen(
                source=READBACK_SOURCE)
            arrays[handle.name] = np.array(view, copy=True)
    return arrays


def _then_readback(program):
    """``program`` (a generator function) followed by the readback ->
    ``(output, arrays)``."""

    def main(tmk):
        out = yield from program(tmk)
        return out, (yield from _readback_gen(tmk))

    return main


def _master_scalars(outputs) -> dict:
    """Compiled programs: processor 0's return value is the scalar dict."""
    return dict(outputs[0])


def _resolve(request: RunRequest, bundle):
    """variant -> ``(setup, main, fold)``: the shared-space initializer
    (``None`` for the message-passing variants), the per-processor entry
    point -- with the readback appended when the request asks for one --
    and the fold from per-processor outputs to the signature.

    Every entry point is a generator function, hand-coded and compiled
    alike, so every run is a set of generator processes: no thread."""
    from repro.apps.common import combine_signatures

    spec, params = bundle["spec"], bundle["params"]
    if request.variant == "tmk":
        hand = functools.partial(spec.hand_tmk, params=params)
        return (lambda space: spec.hand_tmk_setup(space, params),
                _then_readback(hand) if request.readback else hand,
                combine_signatures)
    if request.variant == "pvme":
        from repro.msg.pvme import Pvme

        def main(env):
            return (yield from spec.hand_pvme(Pvme(env), params))

        return None, main, combine_signatures
    exe = bundle["exe"]
    if request.variant in registry.DSM_VARIANTS:
        main = _then_readback(exe.run_on) if request.readback else exe.run_on
        return exe.setup_space, main, _master_scalars
    return None, exe.run_on, _master_scalars


def _execute_sim(request: RunRequest, bundle, hit: bool):
    """``(RunResult, readback arrays or None)`` of one simulated run."""
    machine = machine_from_doc(request.machine)
    faults = fault_plan_from_doc(request.fault_plan)
    seq_time = _seq_time_for(request)
    setup, main, fold = _resolve(request, bundle)
    arrays = None
    if setup is not None:                     # DSM: a TreadMarks world
        from repro.tmk.api import tmk_run
        # spf_spec's misspeculation detector IS the race monitor: force it
        # on so UNKNOWN loops speculate instead of degrading to serial
        result = tmk_run(
            request.nprocs, main, setup, model=machine,
            schedule_seed=request.schedule_seed,
            racecheck=request.racecheck or request.variant == "spf_spec",
            faults=faults)
        outputs = result.results
        if request.readback:
            arrays = outputs[0][1]
            outputs = [out for out, _arrays in outputs]
        dsm, fault_stats = result.dsm_stats, result.fault_stats
    else:                                     # message passing
        from repro.sim.cluster import Cluster
        cluster = Cluster(nprocs=request.nprocs, model=machine,
                          schedule_seed=request.schedule_seed, faults=faults)
        result = cluster.run(main)
        outputs = result.results
        dsm, fault_stats = None, cluster.net.fault_stats

    elapsed, wtraffic = result.window()
    return RunResult(
        app=request.app, variant=request.variant, nprocs=request.nprocs,
        preset=request.preset, time=elapsed, seq_time=seq_time,
        messages=wtraffic.messages, kilobytes=wtraffic.kilobytes,
        signature=fold(outputs), dsm=dsm,
        total_messages=result.messages,
        total_kilobytes=result.kilobytes,
        categories={k: (v[0], v[1])
                    for k, v in wtraffic.by_category.items()},
        races=(getattr(result, "racecheck", None)
               if request.racecheck else None),
        array_hashes=(None if arrays is None else
                      {name: _array_hash(a)
                       for name, a in sorted(arrays.items())}),
        speculation=getattr(bundle.get("exe"), "last_spec_stats", None),
        events=getattr(result, "events", 0),
        retransmissions=result.stats.retransmissions,
        acks=result.stats.acks,
        dup_suppressed=result.stats.dup_suppressed,
        fault_stats=fault_stats,
        mode="sim", tag=request.tag, cache_hit=hit,
    ), arrays


def execute_with_arrays(request: RunRequest,
                        cache: Optional[ProgramCache] = None):
    """:func:`execute`, plus the coherent array *contents* of a
    ``readback`` run: ``(RunResult, {name: ndarray} or None)``.

    The in-process seam for judges that need more than hashes (the
    racecheck harness compares arrays against the sequential oracle);
    the arrays never enter :class:`RunResult` or the wire.
    """
    _validate(request)
    cache = cache if cache is not None else ProgramCache()
    t0 = _time.perf_counter()
    bundle, hit = _prepare(request, cache)
    if request.variant == "seq":
        res, arrays = _seq_result(request, bundle, hit), None
    elif request.mode == "model":
        res, arrays = _execute_model(request, hit), None
    else:
        res, arrays = _execute_sim(request, bundle, hit)
    return _replace(res, wall_s=round(_time.perf_counter() - t0, 6)), arrays


def execute(request: RunRequest,
            cache: Optional[ProgramCache] = None) -> RunResult:
    """Run one request and return its result (raising on invalid input).

    ``cache`` persists compiled programs across calls; omit it for a
    one-shot run (a fresh throwaway cache).  Execution errors propagate
    as exceptions here; :class:`InProcess` is what converts them into
    structured failure results.
    """
    return execute_with_arrays(request, cache)[0]


def default_runner(request_doc: dict, cache: ProgramCache) -> dict:
    """The runner every tier uses unless told otherwise: deserialize,
    :func:`execute`, serialize back."""
    return execute(RunRequest.from_json(request_doc), cache).to_json()


class InProcess:
    """The in-process tier: one cache, requests run here in the order
    given, behind the ``workers``/``stream``/``stats`` surface the wire
    layer serves and :func:`repro.eval.parallel.run_requests` drives.

    It is both the ``service=None`` tier of every harness and the whole of
    a :mod:`repro.serve` pool worker (``worker`` is then its id, stamped
    on each result).  ``runner(request_doc, cache) -> result_doc`` is
    what runs a request; an exception it raises becomes a structured
    ``ok=False`` result (``error_kind`` = the exception class name) —
    here, once, for every tier.
    """

    workers = 1

    def __init__(self, runner: Callable = default_runner,
                 worker: Optional[int] = None):
        self.runner = runner
        self.worker = worker
        self.cache = ProgramCache()

    def stream(self, requests: Iterable):
        """Yield ``(index, RunResult)`` for :class:`RunRequest` objects
        or request docs, in request order."""
        for index, request in enumerate(requests):
            doc = request.to_json() if isinstance(request, RunRequest) \
                else request
            try:
                out = self.runner(doc, self.cache)
                out["worker"] = self.worker
                result = RunResult.from_json(out)
            except Exception as exc:   # noqa: BLE001 — structured, not fatal
                result = failure_result(doc, str(exc), type(exc).__name__,
                                        worker=self.worker)
            yield index, result

    def stats(self) -> dict:
        return {"workers": self.workers, "cache": self.cache.stats()}
