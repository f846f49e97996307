"""The four pinned workloads: their keys, and the seeded request lists.

Nothing here imports ``repro`` at module level: a workload child pins
itself to a CPU *before* the first ``repro`` import, and the parent
(``run.py``) never imports the program at all.

A *key* is one ``(app, variant, nprocs, preset, mode)`` coordinate — one
``RunRequest.cache_key()``.  A *round* is one request per key of the
workload (``serve_mix``: one Zipf-weighted list), in an order drawn from
``--seed``; a workload child runs whole rounds until its time slice is
used, so every round of every run carries the same work and only the
order of the requests depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALL_APPS = ("jacobi", "shallow", "mgs", "fft3d", "igrid", "nbf")


@dataclass(frozen=True)
class Key:
    app: str
    variant: str
    nprocs: int
    preset: str
    mode: str = "sim"

    @property
    def label(self) -> str:
        """``app-variant`` — how the sim keys appear in metric names."""
        return f"{self.app}-{self.variant}"

    @property
    def id(self) -> str:
        """Unique id (the golden.json key and the sample-table row)."""
        return (f"{self.app}-{self.variant}-n{self.nprocs}-"
                f"{self.preset}-{self.mode}")

    def request(self, tag=None):
        """The ``RunRequest`` for this key.  ``seq_time`` is pinned so the
        sequential oracle is not re-timed inside every run, and
        ``schedule_seed`` stays ``None`` so virtual results do not depend
        on the benchmark seed."""
        from repro.api import RunRequest
        return RunRequest(self.app, self.variant, nprocs=self.nprocs,
                          preset=self.preset, mode=self.mode, seq_time=1.0,
                          tag=tag)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str            # one line, also the BENCHMARK.json ``why``
    keys: tuple
    serve: bool = False         # True: through RunService, else execute()
    zipf_scale: int = 0         # serve only: requests of the rank-1 key

    def round_requests(self, seed: int, child: int, round_no: int) -> list:
        """Keys of one round, in this seed's order (a pure function of
        its arguments: the same seed gives byte-identical request lists)."""
        rng = random.Random(f"{self.name}:{seed}:{child}:{round_no}")
        if not self.serve:
            order = list(self.keys)
        else:
            order = [key for rank, key in enumerate(self.keys, start=1)
                     for _ in range(max(1, round(self.zipf_scale / rank)))]
        rng.shuffle(order)
        return order


SIM_SYNC = Workload(
    "sim_sync",
    "synchronisation-bound DSM runs (thousands of tiny barrier/lock/fault "
    "messages, little data): sim.engine and tmk.sync/protocol do the work, "
    "so an engine rewrite must show here first",
    keys=(Key("jacobi", "spf", 8, "test"), Key("jacobi", "tmk", 8, "test"),
          Key("igrid", "spf", 8, "test"), Key("nbf", "spf", 8, "test")))

SIM_BULK = Workload(
    "sim_bulk",
    "the same engine moving few large messages (MBs of diffs, pages, pushes "
    "and broadcasts at paper array sizes): tmk.diffs/pagespace, "
    "msg.collectives and payloads dominate; handoff gains move it less",
    keys=(Key("fft3d", "tmk", 2, "bench"), Key("shallow", "spf_opt", 2, "bench"),
          Key("igrid", "xhpf", 4, "bench")))

MODEL_SWEEP = Workload(
    "model_sweep",
    "analytic mode only (compiler.model + ir; no simulator thread, tmk or "
    "serve): bypass workload for every engine/protocol/serve change, "
    "mechanism workload for the LRC accounting-core refactor",
    keys=tuple(Key(app, variant, n, "test", "model")
               for app in ALL_APPS for variant in ("spf", "xhpf")
               for n in (8, 16)))

# serve_mix draws Zipf(s=1) over a *pinned* shuffle of the test-preset
# keys.  The shuffle is not taken from --seed: key costs span 1 ms to
# 0.13 s, so a seed that moved the hot head would change the work several
# times over and two runs with different seeds could not be compared.
RANK_SEED = 7
# Left out of the 72 (app, variant, nprocs) keys:
# * two whose hand-coded programs the seq oracle shows to compute different
#   numbers at this size (gmax 4.84 against 10.92; sig_p off by 1e-3) — a
#   finding about the program, recorded in README.md; a workload must not
#   contain requests that fail;
# * five that cost 0.26-0.93 s each, a tenth to a third of a whole round:
#   on two workers the round's makespan then depends on where the seed
#   happens to put them (measured: 12 % spread between seeds from that
#   alone), which says nothing about the service.
NUMERICS_DIFFER = {("igrid", "tmk", 2), ("shallow", "tmk", 8)}
LUMPY = {("mgs", "spf", 4), ("mgs", "spf", 8), ("mgs", "tmk", 4),
         ("mgs", "tmk", 8), ("shallow", "spf", 8)}
_serve_keys = [Key(app, variant, n, "test")
               for app in ALL_APPS
               for variant in ("spf", "tmk", "xhpf", "pvme")
               for n in (2, 4, 8)
               if (app, variant, n) not in NUMERICS_DIFFER | LUMPY]
random.Random(RANK_SEED).shuffle(_serve_keys)

SERVE_MIX = Workload(
    "serve_mix",
    "the service tier on many small runs, hot head and a 65-key tail wider "
    "than a worker's 64-entry cache: spawn, cache-affine dispatch, stealing, "
    "pipe + JSON round-trip, worker parallelism",
    keys=tuple(_serve_keys), serve=True, zipf_scale=30)

WORKLOADS = {w.name: w for w in (SIM_SYNC, SIM_BULK, MODEL_SWEEP, SERVE_MIX)}

#: the seven sim keys the per-layer ``<key>`` metrics range over, and
#: their apps (``<app>``)
SIM_KEYS = SIM_SYNC.keys + SIM_BULK.keys
SIM_APPS = tuple(dict.fromkeys(key.app for key in SIM_KEYS))


def golden_keys() -> list:
    """Every key any workload runs (what ``--regen-golden`` regenerates)."""
    seen: dict = {}
    for workload in WORKLOADS.values():
        for key in workload.keys:
            seen.setdefault(key.id, key)
    return list(seen.values())
