"""Speculative SPF: parallelize UNKNOWN loops, race-monitor as safety net.

The paper's compilers serialize any loop whose dependence test fails.
``spf_spec`` implements the CPF/Perspective recipe on top of the SPF
backend instead: the symbolic engine of :mod:`repro.compiler.depend`
classifies every loop, and the backend picks a policy per fork-join
dispatch unit —

* **PROVEN-PARALLEL** — dispatched exactly like plain SPF (no
  speculation cost);
* **PROVEN-SERIAL** — a confirmed loop-carried dependence: the master
  runs the whole iteration space itself, workers are never forked (what
  a strict compiler would have generated);
* **UNKNOWN** — *speculate*: the master checkpoints the unit's write-set
  arrays (a coherent read + copy of each), dispatches the loop in
  parallel as usual, and after the join asks the PR 1 happens-before
  race monitor whether any *true race* (word-granularity overlap between
  concurrent accesses) occurred among the events of this unit.  On a
  clean run the speculation commits with zero extra work beyond the
  checkpoint.  On misspeculation the master restores the checkpoint
  (its post-join writes supersede the workers' diffs under LRC) and
  re-executes the unit sequentially — the same fallback semantics as
  PROVEN-SERIAL, paid only when speculation actually fails.

Reduction scalars are reset to the identity again before a sequential
re-execution (the workers' partial folds are garbage after
misspeculation), and accumulate staging is rewritten wholesale (master's
row gets the full-space contributions, the other rows zero), so the
synthetic merge loop that follows still sums to the correct answer.

The backend *requires* an attached race monitor (``tmk_run(...,
racecheck=True)``); without one a speculative unit silently degrades to
the sequential policy — never to unchecked parallelism.
``exe.last_spec_stats`` records verdicts and per-run speculation
outcomes and is surfaced as ``RunResult.speculation`` by the run API.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.compiler import depend
from repro.compiler.ir import Program
from repro.compiler.partition import Chunk
from repro.compiler.spf import STAGING_PREFIX, SpfExecutable, SpfOptions
from repro.sim.faults import FaultPlan
from repro.sim.machine import MachineModel
from repro.tmk.api import Tmk, tmk_run
from repro.tmk.pagespace import SharedSpace
from repro.tmk.racecheck import find_races

__all__ = ["SpfSpecExecutable", "compile_spf_spec", "run_spf_spec"]

CHECKPOINT_SOURCE = "__spec_ckpt"


class SpfSpecExecutable(SpfExecutable):
    """SPF with verdict-driven policies and speculative fallback."""

    def __init__(self, program: Program, options: SpfOptions, nprocs: int):
        if options.push_halos:
            # halo pushes pair producer/consumer units positionally; a
            # serialized producer would leave consumers waiting forever
            options = replace(options, push_halos=False)
        super().__init__(program, options, nprocs)
        self.depend_report = depend.analyze_program(program, nprocs,
                                                    options)
        self._verdict_cache: dict = {}
        self.unit_plans = [self._plan_unit(unit) for unit in self.units]
        self.last_spec_stats: Optional[dict] = None

    # ------------------------------------------------------------------ #
    # compile-time policy

    def _verdict_of(self, loop) -> str:
        key = (loop.name, loop.start, loop.extent)
        if key not in self._verdict_cache:
            self._verdict_cache[key] = depend.analyze_loop(
                loop, self.program).verdict
        return self._verdict_cache[key]

    def _plan_unit(self, unit) -> Optional[str]:
        if not unit.loops:
            return None
        verdicts = [self._verdict_of(loop) for loop in unit.loops]
        if all(v == depend.PROVEN_PARALLEL for v in verdicts):
            return "parallel"
        if any(v == depend.PROVEN_SERIAL for v in verdicts):
            return "serial"
        return "speculate"

    def policy_summary(self) -> dict:
        """Loop families under each policy (compile-time view)."""
        out = {"parallel": [], "serial": [], "speculate": []}
        seen = set()
        for unit, plan in zip(self.units, self.unit_plans):
            if plan is None:
                continue
            for loop in unit.loops:
                fam = depend.tag_family(loop.name + ":")
                if fam not in seen:
                    seen.add(fam)
                    out[plan].append(fam)
        return out

    # ------------------------------------------------------------------ #
    # execution: the master's unit walk and the worker loop are SPF's;
    # only what the master does with one parallel unit differs

    def run_on(self, tmk: Tmk):
        """SPF's program, with fresh speculation stats for this run."""
        if tmk.pid == 0:
            self.last_spec_stats = {
                "verdicts": {fam: v.verdict for fam, v in
                             sorted(self.depend_report.verdicts.items())},
                "policies": self.policy_summary(),
                "speculations": 0, "commits": 0, "misspeculations": 0,
                "serial_instances": 0,
                "monitored": tmk.world.race_monitor is not None,
            }
        return (yield from super().run_on(tmk))

    def _run_unit_forked(self, tmk: Tmk, fj, idx: int, unit, views: dict):
        """The unit's verdict policy: dispatch it as SPF does, run it on
        the master alone (serial; speculate without a monitor), or
        dispatch it speculatively."""
        stats = self.last_spec_stats
        monitor = tmk.world.race_monitor
        plan = self.unit_plans[idx]
        if plan == "serial" or (plan == "speculate" and monitor is None):
            yield from self._run_unit_sequentially(tmk, unit, views)
            stats["serial_instances"] += 1
        elif plan == "speculate":
            yield from self._run_unit_speculative(tmk, fj, idx, unit,
                                                  views, monitor, stats)
        else:
            yield from super()._run_unit_forked(tmk, fj, idx, unit, views)

    def _unit_write_set(self, unit) -> list:
        """Arrays a speculative unit may write (staging excluded: its
        rows are per-processor private by construction)."""
        names = []
        for loop in unit.loops:
            staged = set(loop.accumulate)
            for acc in loop.writes:
                if acc.array not in staged and acc.array not in names:
                    names.append(acc.array)
        return names

    def _run_unit_speculative(self, tmk: Tmk, fj, idx: int, unit,
                              views: dict, monitor, stats: dict):
        tag = unit.loops[0].name
        snapshot = {}
        for name in self._unit_write_set(unit):
            handle = tmk.world.space[name]
            region = tuple(slice(0, s) for s in handle.shape)
            miss = tmk.node.ensure_read_steps(
                handle, region, source=f"{tag}:{CHECKPOINT_SOURCE}")
            if miss is not None:
                yield from miss
            snapshot[name] = views[name].copy()
        mark = len(monitor.events)
        yield from super()._run_unit_forked(tmk, fj, idx, unit, views)
        stats["speculations"] += 1
        verdict = find_races(monitor.events[mark:], space=tmk.world.space)
        if not verdict.true_races:
            stats["commits"] += 1
            return
        stats["misspeculations"] += 1
        # restore the checkpoint: the master's post-join writes dominate
        # every worker diff under LRC (join is an acquire of their
        # releases), so readers afterwards see the pre-loop state ...
        for name, saved in snapshot.items():
            handle = tmk.world.space[name]
            region = tuple(slice(0, s) for s in handle.shape)
            miss = tmk.node.ensure_write_steps(
                handle, region, source=f"{tag}:{CHECKPOINT_SOURCE}")
            if miss is not None:
                yield from miss
            views[name][...] = saved
        # ... the workers' partial reduction folds are garbage: restart
        # from the identity before the sequential re-execution folds the
        # full-space partials
        yield from self._reset_reductions(tmk, unit)
        yield from self._run_unit_sequentially(tmk, unit, views)

    def _run_unit_sequentially(self, tmk: Tmk, unit, views: dict):
        """The sequential policy: the master executes each loop's whole
        iteration space (workers are not involved and were never forked)."""
        for loop in unit.loops:
            yield from self._run_chunk(tmk, loop, views, Chunk.whole(loop),
                                       stage=self._stage_full)

    def _stage_full(self, tmk: Tmk, loop, privates: dict):
        """Sequential-policy staging: the master's row carries the whole
        contribution, every other processor's row is zeroed (wiping any
        stale or misspeculated chunk contributions)."""
        for name, buf in privates.items():
            handle = tmk.world.space[STAGING_PREFIX + name]
            source = f"{loop.name}:{STAGING_PREFIX}{name}"
            region = tuple(slice(0, s) for s in handle.shape)
            miss = tmk.node.ensure_write_steps(handle, region, source=source)
            if miss is not None:
                yield from miss
            staging = tmk.array(STAGING_PREFIX + name).raw()
            staging[0] = buf
            staging[1:] = 0
            self._prev_touched(tmk).pop((loop.name, name), None)


def compile_spf_spec(program: Program, nprocs: int = 8,
                     options: Optional[SpfOptions] = None
                     ) -> SpfSpecExecutable:
    return SpfSpecExecutable(program, options or SpfOptions(), nprocs)


def run_spf_spec(program: Program, nprocs: int = 8,
                 options: Optional[SpfOptions] = None,
                 model: Optional[MachineModel] = None,
                 schedule_seed: Optional[int] = None,
                 faults: Optional[FaultPlan] = None):
    """Compile and run with the race monitor attached (speculation needs
    its misspeculation detector); scalars land in ``result.scalars``."""
    exe = compile_spf_spec(program, nprocs, options)

    def setup(space: SharedSpace) -> None:
        exe.setup_space(space)

    result = tmk_run(nprocs, exe.run_on, setup, model=model,
                     schedule_seed=schedule_seed, racecheck=True,
                     faults=faults)
    result.scalars = result.results[0]
    result.speculation = exe.last_spec_stats
    return result
