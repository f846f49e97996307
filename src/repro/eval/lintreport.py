"""Registry-wide lint summary: the badge table ``repro lint`` prints.

Runs the static verifier of :mod:`repro.compiler.lint` over every
registered application (at the test preset by default — the rules are
size-independent, only the false-sharing geometry changes) and renders a
per-app badge table: lint status, finding counts, and the static SPF
traffic estimate where the program is analyzable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.common import APP_REGISTRY, get_app
from repro.compiler import depend
from repro.compiler.lint import LintReport, lint_program

__all__ = ["AppLint", "RegistryLint", "lint_registry"]


@dataclass
class AppLint:
    """One application's lint outcome."""

    app: str
    report: LintReport
    verdicts: dict = field(default_factory=dict)   # family -> depend verdict

    @property
    def badge(self) -> str:
        e, w, i = self.report.counts()
        if e:
            return f"FAIL ({e} error(s))"
        if w or i:
            return f"clean ({w} warning(s), {i} info)"
        return "clean"

    def traffic_cell(self) -> str:
        t = self.report.traffic
        if t is None:
            return "-"
        if not t.analyzable:
            return "unanalyzable"
        return f"~{t.fetches} fetches / ~{t.twins_created} diffs"

    def depend_cell(self) -> str:
        if not self.verdicts:
            return "-"
        n = {depend.PROVEN_PARALLEL: 0, depend.PROVEN_SERIAL: 0,
             depend.UNKNOWN: 0}
        for v in self.verdicts.values():
            n[v] += 1
        return (f"{n[depend.PROVEN_PARALLEL]}P/"
                f"{n[depend.PROVEN_SERIAL]}S/"
                f"{n[depend.UNKNOWN]}U")


@dataclass
class RegistryLint:
    """Lint results for the whole application registry."""

    nprocs: int
    preset: str
    apps: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.report.ok for a in self.apps)

    def badge(self, app: str) -> str:
        for a in self.apps:
            if a.app == app:
                return a.badge
        return "-"

    def format(self, verbose: bool = False) -> str:
        lines = [f"Static lint (python -m repro lint, preset "
                 f"{self.preset!r}, n={self.nprocs}):", ""]
        width = max((len(a.app) for a in self.apps), default=8)
        lines.append(f"{'app':{width}s}  {'lint':28s}  {'depend':8s}  "
                     f"traffic (spf)")
        for a in self.apps:
            lines.append(f"{a.app:{width}s}  {a.badge:28s}  "
                         f"{a.depend_cell():8s}  {a.traffic_cell()}")
        if verbose:
            for a in self.apps:
                if a.report.findings:
                    lines += ["", a.report.format()]
        return "\n".join(lines)

    def as_doc(self) -> dict:
        docs = {}
        for a in self.apps:
            docs[a.app] = a.report.as_doc()
            docs[a.app]["depend_verdicts"] = dict(a.verdicts)
        return {"nprocs": self.nprocs, "preset": self.preset,
                "ok": self.ok, "apps": docs}


def lint_registry(apps=None, nprocs: int = 8, preset: str = "test",
                  backends: tuple = ("spf", "xhpf"), shadow: bool = True,
                  traffic: bool = True, suppress=(),
                  progress=None) -> RegistryLint:
    """Lint every registered app (or the given subset)."""
    out = RegistryLint(nprocs=nprocs, preset=preset)
    for app in (apps or sorted(APP_REGISTRY)):
        if progress:
            progress(f"lint {app}...")
        spec = get_app(app)
        program = spec.build_program(spec.params(preset))
        report = lint_program(program, nprocs, backends=backends,
                              shadow=shadow, traffic=traffic,
                              suppress=suppress)
        dep = depend.analyze_program(program, nprocs)
        out.apps.append(AppLint(
            app=app, report=report,
            verdicts={fam: v.verdict
                      for fam, v in sorted(dep.verdicts.items())}))
    return out
