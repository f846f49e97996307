"""The one app/variant registry every entry point shares.

Before this module existed, ``repro list``, ``cmd_explain``, the
experiments harness and the chaos/racecheck sweeps each re-derived what
applications and variants exist (and which variant supports what) from
their own copies of the lists.  Adding an application meant updating all
of them.  Now :mod:`repro.apps` registration plus the paper constants are
composed *here*, once, and everything else — CLI argument choices, the
``list`` command, request validation in :mod:`repro.api.execute` —
reads this module.

The registry is intentionally data-only (small frozen records); running
things is :mod:`repro.api.execute`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.eval.constants import (APPS, IRREGULAR_APPS, PAPER, REGULAR_APPS,
                                  VARIANT_NAMES)

__all__ = ["VARIANTS", "DSM_VARIANTS", "MODELED_VARIANTS",
           "FIGURE_VARIANTS", "PRESETS",
           "VariantInfo", "AppInfo", "variant_info", "app_info",
           "app_names", "apps", "variants", "supports",
           # paper groupings, re-exported for registry consumers
           "APPS", "REGULAR_APPS", "IRREGULAR_APPS", "PAPER"]

#: canonical variant order (the historical ``experiments.VARIANTS``)
VARIANTS = ["seq", "spf", "tmk", "xhpf", "pvme", "spf_opt", "spf_old",
            "xhpf_ie", "spf_spec"]

#: shared-memory variants (race checking / coherent readback apply;
#: ``repro racecheck`` accepts these, spf family first)
DSM_VARIANTS = ("spf", "spf_opt", "spf_old", "tmk", "spf_spec")

#: variants a ``mode="model"`` request may name: ``seq`` runs the oracle,
#: compiler.model (which imports this) predicts the rest
MODELED_VARIANTS = ("seq", "spf", "spf_old", "xhpf", "xhpf_ie")

#: the four bars of the paper's Figures 1/2, plus the oracle
FIGURE_VARIANTS = ("seq", *VARIANT_NAMES)

#: problem-size presets every application provides
PRESETS = ("paper", "bench", "test")


@dataclass(frozen=True)
class VariantInfo:
    """What one variant is and which machinery applies to it."""

    name: str
    kind: str           # "seq" | "dsm" | "mp"
    source: str         # "oracle" | "compiler" | "hand"
    modeled: bool       # has an analytic replica in repro.compiler.model
    description: str


_VARIANT_INFO = {
    "seq": VariantInfo("seq", "seq", "oracle", True,
                       "sequential oracle (speedup baseline)"),
    "spf": VariantInfo("spf", "dsm", "compiler", True,
                       "compiler-generated shared memory (SPF -> Tmk)"),
    "tmk": VariantInfo("tmk", "dsm", "hand", False,
                       "hand-coded TreadMarks shared memory"),
    "xhpf": VariantInfo("xhpf", "mp", "compiler", True,
                        "compiler-generated message passing (XHPF)"),
    "pvme": VariantInfo("pvme", "mp", "hand", False,
                        "hand-coded PVMe message passing"),
    "spf_opt": VariantInfo("spf_opt", "dsm", "compiler", False,
                           "SPF plus the paper's hand optimizations"),
    "spf_old": VariantInfo("spf_old", "dsm", "compiler", True,
                           "SPF over the original fork-join interface"),
    "xhpf_ie": VariantInfo("xhpf_ie", "mp", "compiler", True,
                           "XHPF with inspector-executor schedules"),
    "spf_spec": VariantInfo("spf_spec", "dsm", "compiler", False,
                            "speculative SPF: statically-unproven loops "
                            "run parallel under the race monitor, with "
                            "sequential re-execution on misspeculation"),
}


@dataclass(frozen=True)
class AppInfo:
    """One application's registry card (spec + paper numbers, composed)."""

    name: str
    regular: bool
    problem_size: str
    presets: tuple
    has_spf_opt: bool
    notes: str = ""

    @property
    def kind(self) -> str:
        return "regular" if self.regular else "irregular"


def _specs() -> dict:
    # importing the package runs each app module's register() call
    import repro.apps  # noqa: F401  (registration side effect)
    from repro.apps.common import APP_REGISTRY
    return APP_REGISTRY


def app_names() -> list:
    """Canonical application order (regular apps first, as the paper)."""
    return list(APPS)


def variant_info(name: str) -> VariantInfo:
    try:
        return _VARIANT_INFO[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r} (choose from "
                         f"{', '.join(VARIANTS)})") from None


def app_info(name: str) -> AppInfo:
    specs = _specs()
    if name not in specs:
        raise ValueError(f"unknown application {name!r} (choose from "
                         f"{', '.join(APPS)})")
    spec = specs[name]
    paper = PAPER.get(name)
    return AppInfo(name=name, regular=spec.regular,
                   problem_size=paper.problem_size if paper else "",
                   presets=tuple(sorted(spec.presets)),
                   has_spf_opt=spec.spf_opt_options is not None,
                   notes=spec.notes)


def apps() -> list:
    return [app_info(name) for name in app_names()]


def variants() -> list:
    return [variant_info(name) for name in VARIANTS]


def supports(app: str, variant: str) -> Optional[str]:
    """None when (app, variant) is runnable, else the reason it is not."""
    variant_info(variant)                 # raises on unknown variant
    card = app_info(app)                  # raises on unknown app
    if variant == "spf_opt" and not card.has_spf_opt:
        return (f"{app} has no hand-optimized variant in the paper")
    return None
