"""Extended scaling sweep: the analytic model at 16-1024 nodes.

The paper's evaluation stops at the 8-node SP/2.  The sweep composes the
validated analytic model (:mod:`repro.compiler.model`) at N well past what
the event simulator can schedule, and emits the extended speedup/traffic
tables plus a JSON artifact.  Every number it reports is *modeled*, never
simulated: rows carry ``mode: "model"`` and the tables badge it, so these
extrapolations can never be confused with simulated DsmStats (the
validate-small / trust-large protocol of docs/MODEL.md).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Optional

from repro.api.types import RunRequest, machine_to_doc
from repro.eval.constants import APPS
from repro.eval.parallel import run_requests
from repro.sim.machine import SP2_MODEL, MachineModel

__all__ = ["SWEEP_SCHEMA", "DEFAULT_NODES", "DEFAULT_SWEEP_VARIANTS",
           "run_sweep", "format_sweep_tables"]

SWEEP_SCHEMA = "repro-sweep/3"
DEFAULT_NODES = (8, 16, 64, 256, 1024)
DEFAULT_SWEEP_VARIANTS = ("spf", "spf_old", "xhpf", "xhpf_ie")


def run_sweep(apps: Optional[list] = None,
              variants: Optional[list] = None,
              nodes: tuple = DEFAULT_NODES,
              preset: str = "test",
              machine: Optional[MachineModel] = None,
              service=None,
              progress=None) -> dict:
    """Model every (app, variant, N) combination; returns the JSON doc.

    ``service`` retires the grid (``None``: in-process; a
    :class:`~repro.serve.RunService` pool or a
    :class:`~repro.serve.FleetService` over ``repro serve --port PORT``
    hosts).  Rows land in deterministic request order every way, and the
    document is **bit-identical** to a serial run — requests carry no tag
    or other per-submission state, so their fingerprints cannot diverge
    (the CI parallel-sweep and fleet smokes assert this against the
    serial golden).

    The document is schema-stable (``tests/test_sweep_schema.py`` pins it):

    * ``schema`` — ``"repro-sweep/3"``
    * ``preset``, ``machine`` (full parameter set), ``nodes``, ``variants``
    * ``apps[app]`` — ``seq_time`` (the sequential oracle's time its rows
      carry) plus per-variant lists of per-N rows.
      Each row is the deterministic (fingerprint) form of the unified
      ``repro-run/1`` result document — the same serializer the serve wire
      protocol and the chaos harness use — and carries ``mode: "model"``.
    """
    apps = list(apps or APPS)
    variants = list(variants or DEFAULT_SWEEP_VARIANTS)
    mach = machine or SP2_MODEL
    doc = {
        "schema": SWEEP_SCHEMA,
        "preset": preset,
        "machine": asdict(mach),
        "nodes": [int(n) for n in nodes],
        "variants": variants,
        "apps": {},
    }
    machine_doc = machine_to_doc(mach)
    requests = []
    slots = []                  # (app, variant, node index) per request
    for app in apps:
        entry = doc["apps"][app] = {"seq_time": None, "variants": {}}
        for variant in variants:
            entry["variants"][variant] = [None] * len(nodes)
            for i, n in enumerate(nodes):
                requests.append(RunRequest(
                    app=app, variant=variant, nprocs=int(n), preset=preset,
                    mode="model", machine=machine_doc))
                slots.append((app, variant, i))
    results = run_requests(
        requests, service, progress=progress,
        describe=lambda r: f"model {r.app} {r.variant} n={r.nprocs}")
    for (app, variant, i), res in zip(slots, results):
        doc["apps"][app]["seq_time"] = res.seq_time
        doc["apps"][app]["variants"][variant][i] = res.fingerprint()
    return doc


def _table(title: str, variants: list, nodes: list, cell) -> str:
    width = 11
    lines = [f"  {title}"]
    lines.append("  " + f"{'':10s}"
                 + "".join(f"{'n=' + str(n):>{width}s}" for n in nodes))
    for variant in variants:
        row = f"  {variant:10s}"
        for i, _n in enumerate(nodes):
            row += f"{cell(variant, i):>{width}s}"
        lines.append(row)
    return "\n".join(lines)


def format_sweep_tables(doc: dict) -> str:
    """Speedup, message and data tables per application, model-badged."""
    nodes = doc["nodes"]
    variants = doc["variants"]
    out = []
    for app, entry in doc["apps"].items():
        rows = entry["variants"]
        out.append(f"{app} — extended scaling [model] "
                   f"(preset {doc['preset']!r}, analytic predictions, "
                   f"not simulated)")
        out.append(_table("speedup", variants, nodes,
                          lambda v, i: f"{rows[v][i]['speedup']:.2f}"))
        out.append(_table("messages", variants, nodes,
                          lambda v, i: f"{rows[v][i]['messages']:d}"))
        out.append(_table("data (KB)", variants, nodes,
                          lambda v, i: f"{rows[v][i]['kilobytes']:.1f}"))
        out.append("")
    return "\n".join(out).rstrip()
