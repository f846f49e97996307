"""The unified run API: typed, frozen, serializable requests and results.

One schema — ``repro-run/1`` — covers every way a run crosses a boundary
in this codebase: the CLI handing work to the library, the library handing
work to a :class:`~repro.serve.RunService` worker process, the serve wire
protocol (JSON lines over stdio or a socket), and the JSON artifacts the
sweep/chaos harnesses archive.  There is exactly one serializer for each
object (``to_json``/``from_json`` here); ``repro.eval.sweep``,
``repro.eval.chaos`` and ``repro.serve.wire`` all reuse it rather than
hand-rolling their own.

* :class:`RunRequest` — everything needed to reproduce one run: the
  ``(app, variant, nprocs, preset)`` coordinates, the execution ``mode``
  (``sim`` event simulation or ``model`` analytic prediction), machine
  parameter overrides, codegen option overrides, the schedule seed, and a
  serialized fault plan.  A request is a *value*: frozen, comparable, and
  the source of the compiled-program cache key.
* :class:`RunResult` — the paper-facing metrics plus service metadata
  (``ok``/``error``, ``wall_s``, ``worker``, ``cache_hit``) and the
  request correlation ``tag``.
* :class:`BatchResult` — an ordered collection of results with the
  service-level counters (wall time, cache hits/misses, runs/min).

``RunResult.canonical_bytes()`` is what "the same run" means: two runs of
the same request must produce equal bytes no matter which process, pool
worker or fleet host executed them.  ``fingerprint()`` is those bytes
parsed back, the form the benchmark's golden digests are taken over.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from numbers import Integral
from typing import Mapping, Optional

__all__ = ["RUN_SCHEMA", "RunRequest", "RunResult", "BatchResult",
           "failure_result", "fault_plan_to_doc", "fault_plan_from_doc",
           "dsm_stats_to_doc", "dsm_stats_from_doc",
           "machine_to_doc", "machine_from_doc", "races_from_doc"]

RUN_SCHEMA = "repro-run/1"

#: RunResult fields that legitimately differ between two executions of the
#: same request (scheduling, placement, wall clock) — excluded from
#: ``RunResult.canonical_bytes()``.
VOLATILE_RESULT_FIELDS = ("wall_s", "worker", "cache_hit", "races")


# ---------------------------------------------------------------------- #
# shared component serializers (the "one serializer, not three" rule)

def machine_to_doc(machine) -> Optional[dict]:
    """``MachineModel`` (or an overrides mapping) -> plain JSON dict."""
    if machine is None:
        return None
    if isinstance(machine, Mapping):
        return dict(machine)
    return asdict(machine)


def machine_from_doc(doc: Optional[Mapping]):
    """Overrides dict -> concrete ``MachineModel`` (None passes through).

    The document may be partial: unspecified fields keep their SP/2
    defaults, which is what the CLI's ``--machine KEY=VALUE`` emits.  A
    key that is not a ``MachineModel`` field raises ``ValueError`` listing
    the fields.
    """
    if doc is None:
        return None
    from repro.sim.machine import SP2_MODEL, MachineModel
    return SP2_MODEL.with_(**_known_keys("machine", doc, MachineModel))


def fault_plan_to_doc(plan) -> Optional[dict]:
    """``FaultPlan`` -> plain JSON dict (also accepts an existing doc)."""
    if plan is None:
        return None
    if isinstance(plan, Mapping):
        return dict(plan)
    return {
        "seed": plan.seed,
        "rates": dict(vars(plan.rates)),
        "stalls": [dict(vars(s)) for s in plan.stalls],
    }


def _known_keys(what: str, doc: Mapping, cls) -> dict:
    """``doc`` as a dict, refusing any key that is not a field of ``cls``
    and any missing field that has no default."""
    doc = dict(doc)
    known = [f.name for f in fields(cls)]
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"{what} takes no key {', '.join(map(repr, unknown))}"
                         f" (it takes {', '.join(known)})")
    missing = [f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{what} needs key {', '.join(map(repr, missing))}")
    return doc


def fault_plan_from_doc(doc: Optional[Mapping]):
    """Plain dict -> ``FaultPlan`` (None and FaultPlan pass through).

    The doc takes exactly ``seed``, ``rates`` and ``stalls`` (any may be
    left out), with the fields of ``FaultRates`` (each defaults to 0) and
    ``NodeStall`` (all three required) inside them; any other key or a
    missing stall field raises ``ValueError`` naming it, and so does a
    seed that is not an integer (a bool included) and a value
    ``FaultRates``/``NodeStall`` refuse.
    """
    if doc is None:
        return None
    from repro.sim.faults import FaultPlan, FaultRates, NodeStall
    if isinstance(doc, FaultPlan):
        return doc
    doc = _known_keys("fault_plan", doc, FaultPlan)
    seed = doc.get("seed", 0)
    integral = isinstance(seed, Integral) or (isinstance(seed, float)
                                              and seed.is_integer())
    if isinstance(seed, bool) or not integral:
        raise ValueError(f"fault_plan seed must be an integer, not {seed!r}")
    return FaultPlan(
        seed=int(seed),
        rates=FaultRates(**_known_keys("fault_plan rates",
                                       doc.get("rates", {}), FaultRates)),
        stalls=tuple(NodeStall(**_known_keys("fault_plan stall", s, NodeStall))
                     for s in doc.get("stalls", ())),
    )


def dsm_stats_to_doc(dsm) -> Optional[dict]:
    if dsm is None:
        return None
    if isinstance(dsm, Mapping):
        return dict(dsm)
    return dict(vars(dsm))


def dsm_stats_from_doc(doc: Optional[Mapping]):
    if doc is None:
        return None
    from repro.tmk.stats import DsmStats
    return DsmStats(**dict(doc))


def _fault_stats_to_doc(fs) -> Optional[dict]:
    if fs is None:
        return None
    if isinstance(fs, Mapping):
        return dict(fs)
    return fs.as_dict()


def _fault_stats_from_doc(doc: Optional[Mapping]):
    if doc is None:
        return None
    from repro.sim.faults import FaultStats
    return FaultStats(**dict(doc))


def _races_to_doc(races) -> Optional[dict]:
    """Race verdict as a wire document: summary counts plus findings.

    The findings travel too (as plain ``RaceFinding`` field dicts) so a
    service worker's race-check run is as informative as a local one —
    :func:`races_from_doc` reconstructs the live objects on the far side.
    """
    if races is None:
        return None
    if isinstance(races, Mapping):
        return dict(races)
    return {"ok": bool(races.ok),
            "true_races": len(races.true_races),
            "false_sharing": len(races.false_sharing),
            "n_events": races.n_events,
            "n_dropped": races.n_dropped,
            "findings": [asdict(f) for f in
                         list(races.true_races) + list(races.false_sharing)]}


def races_from_doc(doc):
    """Wire document -> ``RaceCheckResult`` (None and live pass through)."""
    if doc is None:
        return None
    from repro.tmk.racecheck import RaceCheckResult, RaceFinding
    if isinstance(doc, RaceCheckResult):
        return doc
    findings = []
    for f in doc.get("findings", ()):
        f = dict(f)
        if f.get("overlap") is not None:
            f["overlap"] = tuple(f["overlap"])
        findings.append(RaceFinding(**f))
    return RaceCheckResult(
        true_races=[f for f in findings if f.kind == "true-race"],
        false_sharing=[f for f in findings if f.kind != "true-race"],
        n_events=int(doc.get("n_events", 0)),
        n_dropped=int(doc.get("n_dropped", 0)))


def _freeze_mapping(value):
    """Normalize an optional mapping field to a plain dict copy."""
    return None if value is None else dict(value)


def _canonical(value):
    """Deterministic hashable form of a JSON-ish value (for cache keys)."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


# ---------------------------------------------------------------------- #
# RunRequest

@dataclass(frozen=True)
class RunRequest:
    """One run, fully specified — the unit of work of the run service.

    ``machine`` holds *overrides* of the SP/2 model's fields (a partial
    dict, as the CLI's ``--machine`` flags produce) or a full field dict
    (as :func:`machine_to_doc` makes from a ``MachineModel``, e.g.
    ``eval.tables.SENSITIVITY_MODELS``); ``None``
    means the stock SP/2.  ``options`` overrides ``SpfOptions`` fields
    of a ``mode="sim"`` ``spf``, ``spf_old`` or ``spf_spec`` run; any
    other request with options is refused, as is ``improved_interface``
    (the variant picks the fork-join interface).  The non-serializable
    ``piggyback`` hook cannot cross this boundary — drive
    :func:`repro.compiler.spf.compile_spf` directly for that.
    ``fault_plan`` is the :func:`fault_plan_to_doc` form.
    ``readback`` (DSM variants only) appends a barrier-ordered coherent
    readback of every application array and reports their sha256 hashes
    on ``RunResult.array_hashes`` — how the chaos/racecheck harnesses
    judge numeric identity when their runs execute in a remote worker.
    ``tag`` is an opaque client correlation id echoed into the result.
    """

    app: str
    variant: str
    nprocs: int = 8
    preset: str = "bench"
    mode: str = "sim"                       # "sim" | "model"
    machine: Optional[dict] = None          # MachineModel field overrides
    options: Optional[dict] = None          # SpfOptions overrides
    schedule_seed: Optional[int] = None
    seq_time: Optional[float] = None
    racecheck: bool = False
    readback: bool = False
    fault_plan: Optional[dict] = None       # fault_plan_to_doc form
    tag: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "machine", _freeze_mapping(self.machine))
        object.__setattr__(self, "options", _freeze_mapping(self.options))
        object.__setattr__(self, "fault_plan",
                           _freeze_mapping(self.fault_plan))
        if self.mode not in ("sim", "model"):
            raise ValueError(f"mode must be 'sim' or 'model', "
                             f"not {self.mode!r}")

    def cache_key(self) -> tuple:
        """Compiled-program identity: everything codegen depends on.

        Seeds, fault plans and ``seq_time`` deliberately do not appear —
        they parameterize a *run* of a compiled program, not the program.
        Override order does not matter either: a request is a value.
        """
        return (self.app, self.variant, self.preset, self.nprocs,
                self.mode, _canonical(self.machine),
                _canonical(self.options))

    def to_json(self) -> dict:
        doc = {"schema": RUN_SCHEMA, "kind": "request"}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                doc[f.name] = value
        # always pin the coordinates, even when they equal the defaults
        doc["app"], doc["variant"] = self.app, self.variant
        doc["nprocs"], doc["preset"] = self.nprocs, self.preset
        return doc

    @classmethod
    def from_json(cls, doc) -> "RunRequest":
        if isinstance(doc, str):
            doc = json.loads(doc)
        doc = dict(doc)
        schema = doc.pop("schema", RUN_SCHEMA)
        if schema != RUN_SCHEMA:
            raise ValueError(f"unsupported request schema {schema!r} "
                             f"(this build speaks {RUN_SCHEMA})")
        doc.pop("kind", None)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown RunRequest field(s) "
                             f"{sorted(unknown)}")
        return cls(**doc)


# ---------------------------------------------------------------------- #
# RunResult

@dataclass(frozen=True)
class RunResult:
    """Everything one run reports: the paper-facing metrics, then the
    service metadata at the bottom."""

    app: str
    variant: str
    nprocs: int
    preset: str
    time: float = 0.0            # measured-window elapsed virtual seconds
    seq_time: float = 0.0        # sequential oracle's window time
    messages: int = 0            # measured-window totals (the paper's
    kilobytes: float = 0.0       # tables cover the timed region: Jacobi
                                 # PVMe's 1400 = 14 x 100 timed iterations)
    signature: dict = field(default_factory=dict)
    dsm: Optional[object] = None
    total_messages: int = 0      # whole run, startup included
    total_kilobytes: float = 0.0
    categories: dict = field(default_factory=dict)   # window, per category
    races: Optional[object] = None   # RaceCheckResult when racecheck=True
    array_hashes: Optional[dict] = None    # name -> sha256 when readback=True
    speculation: Optional[dict] = None     # spf_spec verdict/outcome stats
    events: int = 0              # simulator events processed (whole run)
    retransmissions: int = 0     # reliable-delivery re-sends (fault runs)
    acks: int = 0                # reliable-delivery acknowledgements
    dup_suppressed: int = 0      # duplicate deliveries suppressed
    fault_stats: Optional[object] = None   # FaultStats when faults attached
    mode: str = "sim"            # "sim" (event simulation) or "model"
                                 # (analytic prediction, repro.compiler.model)
    # --- service metadata (absent from the paper-facing surface) --------
    ok: bool = True              # False: structured failure, see .error
    error: Optional[str] = None
    error_kind: Optional[str] = None       # exception class name
    tag: Optional[str] = None    # request correlation id, echoed back
    wall_s: Optional[float] = None         # host seconds this run took
    worker: Optional[int] = None           # serve worker id that ran it
    cache_hit: Optional[bool] = None       # compiled-program cache verdict

    @property
    def speedup(self) -> float:
        return self.seq_time / self.time if self.time > 0 else float("inf")

    def row(self) -> str:
        badge = " [model]" if self.mode == "model" else ""
        if not self.ok:
            return (f"{self.app:8s} {self.variant:8s} n={self.nprocs} "
                    f"ERROR {self.error_kind}: {self.error}")
        return (f"{self.app:8s} {self.variant:8s} n={self.nprocs} "
                f"time={self.time:10.4f}s speedup={self.speedup:5.2f} "
                f"msgs={self.messages:8d} data={self.kilobytes:10.1f}KB"
                f"{badge}")

    def to_json(self) -> dict:
        """One serializer for every surface (sweep, chaos, serve, bench)."""
        doc = {"schema": RUN_SCHEMA, "kind": "result"}
        for f in fields(self):
            doc[f.name] = getattr(self, f.name)
        doc["dsm"] = dsm_stats_to_doc(self.dsm)
        doc["fault_stats"] = _fault_stats_to_doc(self.fault_stats)
        doc["races"] = _races_to_doc(self.races)
        doc["signature"] = {k: float(v) for k, v in self.signature.items()}
        doc["categories"] = {k: [int(v[0]), float(v[1])]
                             for k, v in self.categories.items()}
        doc["speedup"] = self.speedup if self.time > 0 else None
        return doc

    @classmethod
    def from_json(cls, doc) -> "RunResult":
        if isinstance(doc, str):
            doc = json.loads(doc)
        doc = dict(doc)
        schema = doc.pop("schema", RUN_SCHEMA)
        if schema != RUN_SCHEMA:
            raise ValueError(f"unsupported result schema {schema!r} "
                             f"(this build speaks {RUN_SCHEMA})")
        doc.pop("kind", None)
        doc.pop("speedup", None)          # derived, not stored
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown RunResult field(s) {sorted(unknown)}")
        if "dsm" in doc:
            doc["dsm"] = dsm_stats_from_doc(doc["dsm"])
        if "fault_stats" in doc:
            doc["fault_stats"] = _fault_stats_from_doc(doc["fault_stats"])
        if "categories" in doc and doc["categories"] is not None:
            doc["categories"] = {k: (int(v[0]), float(v[1]))
                                 for k, v in doc["categories"].items()}
        return cls(**doc)

    def canonical_bytes(self) -> bytes:
        """Identity of the run: ``to_json()`` without the volatile fields,
        in the document's own key order (never sorted: ``categories`` is in
        first-use order), with fixed separators.  Equal for two executions
        of one request whichever process, worker or host ran them."""
        doc = self.to_json()
        for key in VOLATILE_RESULT_FIELDS:
            del doc[key]
        return json.dumps(doc, separators=(",", ":")).encode()

    def fingerprint(self) -> dict:
        """``canonical_bytes()`` as a document."""
        return json.loads(self.canonical_bytes())

    @classmethod
    def failure(cls, request: RunRequest, error: str,
                error_kind: str = "Error", **extra) -> "RunResult":
        """Structured failure for ``request`` (crash/exception surface)."""
        return cls(app=request.app, variant=request.variant,
                   nprocs=request.nprocs, preset=request.preset,
                   mode=request.mode, ok=False, error=error,
                   error_kind=error_kind, tag=request.tag, **extra)


def failure_result(doc, error: str, error_kind: str, **extra) -> RunResult:
    """Structured ``ok=False`` result for a request doc — even one so
    malformed that it does not parse (``app``/``variant`` then fall back
    to whatever the doc names, or ``"?"``)."""
    try:
        request = RunRequest.from_json(doc)
    except Exception:          # noqa: BLE001 — any bad doc gets a result
        named = doc if isinstance(doc, dict) else {}
        request = RunRequest(app=str(named.get("app", "?")),
                             variant=str(named.get("variant", "?")))
    return RunResult.failure(request, error=error, error_kind=error_kind,
                             **extra)


# ---------------------------------------------------------------------- #
# BatchResult

BATCH_SCHEMA = "repro-batch/1"


@dataclass(frozen=True)
class BatchResult:
    """An ordered batch of results plus the service-level counters."""

    results: tuple                       # RunResult, in request order
    wall_s: float = 0.0                  # host seconds for the whole batch
    workers: int = 0                     # live workers when the batch ended
    cache_hits: int = 0                  # compiled-program cache verdicts,
    cache_misses: int = 0                # summed over the batch's runs
    crashes: int = 0                     # worker deaths surfaced as errors
    rejected: int = 0                    # admissions refused (backlog cap)

    def __post_init__(self):
        object.__setattr__(self, "results", tuple(self.results))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def runs_per_min(self) -> float:
        return 60.0 * self.runs / self.wall_s if self.wall_s > 0 else 0.0

    def failures(self) -> list:
        return [r for r in self.results if not r.ok]

    def to_json(self) -> dict:
        return {
            "schema": BATCH_SCHEMA,
            "ok": self.ok,
            "runs": self.runs,
            "wall_s": self.wall_s,
            "workers": self.workers,
            "runs_per_min": self.runs_per_min,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "crashes": self.crashes,
            "rejected": self.rejected,
            "results": [r.to_json() for r in self.results],
        }

    @classmethod
    def from_json(cls, doc) -> "BatchResult":
        if isinstance(doc, str):
            doc = json.loads(doc)
        if doc.get("schema") != BATCH_SCHEMA:
            raise ValueError(f"unsupported batch schema "
                             f"{doc.get('schema')!r}")
        return cls(results=tuple(RunResult.from_json(r)
                                 for r in doc["results"]),
                   wall_s=doc.get("wall_s", 0.0),
                   workers=doc.get("workers", 0),
                   cache_hits=doc.get("cache_hits", 0),
                   cache_misses=doc.get("cache_misses", 0),
                   crashes=doc.get("crashes", 0),
                   rejected=doc.get("rejected", 0))


def _replace(result: RunResult, **changes) -> RunResult:
    """``dataclasses.replace`` re-export (results are frozen)."""
    return replace(result, **changes)
