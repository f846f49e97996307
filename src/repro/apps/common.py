"""Shared application plumbing: specs, registry, signatures.

A *signature* is a small dict of floats summarizing a run's numeric output
(array checksums plus reduction scalars).  Hand-coded variants return
per-processor partial signatures (sums over owned data); the harness adds
them up and compares against the sequential oracle with a relative
tolerance (chunked float summation reorders rounding).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.compiler.ir import (Access, Full, ParallelLoop, Program,
                               Reduction, Span)

__all__ = ["AppSpec", "APP_REGISTRY", "get_app", "register",
           "append_signature_loops", "partial_signature",
           "combine_signatures", "signatures_close"]

APP_REGISTRY: dict = {}


@dataclass
class AppSpec:
    """Everything the harness needs to run one application in all variants."""

    name: str
    regular: bool
    build_program: Callable[[dict], Program]
    hand_tmk_setup: Callable      # (space, params) -> None
    # the two hand-coded programs are generator functions (generator
    # processes: no thread), returning the partial signature dict
    hand_tmk: Callable            # (tmk, params)
    hand_pvme: Callable           # (pvme, params)
    presets: dict = field(default_factory=dict)   # name -> params dict
    signature_arrays: list = field(default_factory=list)
    spf_opt_options: Optional[Callable] = None
    """() -> SpfOptions reproducing the paper's hand optimizations."""
    notes: str = ""

    def params(self, preset: str = "test") -> dict:
        if preset not in self.presets:
            raise KeyError(f"{self.name}: unknown preset {preset!r} "
                           f"(have {sorted(self.presets)})")
        return dict(self.presets[preset])


def register(spec: AppSpec) -> AppSpec:
    """Add ``spec`` to the registry; a hand-coded program that is not a
    generator function (a plain one would run on a thread of its own) is
    a ``TypeError``."""
    for field_name in ("hand_tmk", "hand_pvme"):
        if not inspect.isgeneratorfunction(getattr(spec, field_name)):
            raise TypeError(f"{spec.name}: {field_name} must be a generator "
                            f"function (yield from the *_gen/*_steps "
                            f"operations), not a plain function")
    APP_REGISTRY[spec.name] = spec
    return spec


def get_app(name: str) -> AppSpec:
    return APP_REGISTRY[name]


# ---------------------------------------------------------------------- #
# signatures

def append_signature_loops(program: Program, arrays: list) -> Program:
    """Add post-``stop`` checksum loops over ``arrays``.

    They run outside the measured window, so the extra faults they cause do
    not perturb the reproduced numbers, and they make every IR backend
    report comparable ``sig_<array>`` scalars.
    """
    for name in arrays:
        decl = program.decl(name)

        def kernel(views, lo, hi, _name=name):
            return {f"sig_{_name}": abs_sum(views[_name][lo:hi])}

        program.body.append(ParallelLoop(
            name=f"__sig_{name}",
            extent=decl.shape[0],
            kernel=kernel,
            reads=[Access(name, (Span(),) + tuple(
                Full() for _ in decl.shape[1:]))],
            reductions=[Reduction(f"sig_{name}")],
        ))
    return program


def abs_sum(data: np.ndarray) -> float:
    """Cancellation-proof checksum: sum of |real| + |imag| in float64.

    Plain sums of symmetric fields (velocities, forces) cancel to ~0 and
    make relative comparison meaningless; absolute sums stay O(n).
    """
    arr = np.asarray(data)
    if np.iscomplexobj(arr):
        return float(np.sum(np.abs(arr.real), dtype=np.float64)
                     + np.sum(np.abs(arr.imag), dtype=np.float64))
    return float(np.sum(np.abs(arr), dtype=np.float64))


def partial_signature(arrays: dict, lo: int, hi: int) -> dict:
    """Hand-variant helper: ``sig_*`` checksums over owned rows [lo, hi)."""
    return {f"sig_{name}": abs_sum(data[lo:hi])
            for name, data in arrays.items()}


def combine_signatures(parts: list) -> dict:
    """Sum per-processor partial signatures (skipping Nones)."""
    out: dict = {}
    for part in parts:
        if not part:
            continue
        for key, val in part.items():
            out[key] = out.get(key, 0.0) + val
    return out


def signatures_close(a: dict, b: dict, rtol: float = 1e-4) -> bool:
    """Compare signature dicts with relative tolerance.

    Non-finite values never compare equal (NaN would otherwise slip
    through the ``>`` comparison and mask a corrupted run).
    """
    if set(a) != set(b):
        return False
    for key in a:
        x, y = a[key], b[key]
        if not (np.isfinite(x) and np.isfinite(y)):
            return False
        scale = max(abs(x), abs(y), 1e-12)
        if abs(x - y) > rtol * scale:
            return False
    return True
