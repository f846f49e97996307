"""Loop-nest intermediate representation.

An application is a :class:`Program`: array declarations plus a statement
list.  Statements are

* :class:`SeqBlock` — sequential code with declared array footprints,
* :class:`ParallelLoop` — a DO loop annotated parallel, whose per-chunk
  array footprints are *affine region expressions* of the chunk bounds
  (``Span``), whole dimensions (``Full``), fixed indices (``Point``), or
  explicitly unanalyzable (``Irregular`` — an indirection array defeats the
  compiler, exactly the situation IGrid and NBF put the paper's compilers
  in),
* :class:`TimeLoop` — a sequential iteration loop around inner statements.

The numeric work of each block/loop is an ordinary numpy *kernel* operating
on full-array views; the backends guarantee (by DSM hooks or by message
passing) that the declared footprint is locally current before the kernel
runs.  Kernels must touch only their declared footprints — the test suite
checks every application variant against the sequential oracle, which
executes the same kernels, so a footprint lie shows up as a numeric
mismatch on some processor count.

Region expressions evaluate to concrete numpy basic indices given chunk
bounds ``(lo, hi)``::

    Access("a", (Span(-1, +1), Full()))       # a[lo-1 : hi+1, :]
    Access("x", (Point(0), Span()))           # x[0, lo:hi]
    Access("grid", Irregular(lambda views, lo, hi: flat_indices))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

__all__ = ["Dim", "Span", "Full", "Point", "Irregular", "Access",
           "ArrayDecl", "Reduction", "SeqBlock", "ParallelLoop", "TimeLoop",
           "Program", "Stmt", "FootprintError", "MARK_WINDOWS"]


class FootprintError(ValueError):
    """A region expression that cannot be resolved against its array.

    Subclasses :class:`ValueError` for backward compatibility, but carries
    the facts of the failure as attributes so a static checker can report
    the defect with source attribution instead of parsing a message:

    ``array``        the array name,
    ``kind``         "rank" (region rank exceeds array rank) or "bounds"
                     (a ``Point`` index outside ``[0, extent)``),
    ``region_rank``/``array_rank``   set for "rank" failures,
    ``dim``/``index``/``extent``     set for "bounds" failures.
    """

    def __init__(self, array: str, kind: str, message: str, *,
                 region_rank: Optional[int] = None,
                 array_rank: Optional[int] = None,
                 dim: Optional[int] = None,
                 index: Optional[int] = None,
                 extent: Optional[int] = None):
        super().__init__(f"{array}: {message}")
        self.array = array
        self.kind = kind
        self.region_rank = region_rank
        self.array_rank = array_rank
        self.dim = dim
        self.index = index
        self.extent = extent


# ---------------------------------------------------------------------- #
# region expressions

class Dim:
    """Base class of per-dimension region expressions."""

    def resolve(self, lo: int, hi: int, extent: int):
        raise NotImplementedError


@dataclass(frozen=True)
class Span(Dim):
    """``slice(lo + lo_off, hi + hi_off)`` clipped to the dimension.

    The default ``Span()`` is exactly the chunk; ``Span(-1, +1)`` widens one
    row each way (a stencil halo).
    """

    lo_off: int = 0
    hi_off: int = 0

    def resolve(self, lo: int, hi: int, extent: int) -> slice:
        return slice(max(0, lo + self.lo_off), min(extent, hi + self.hi_off))


@dataclass(frozen=True)
class Full(Dim):
    """The whole dimension."""

    def resolve(self, lo: int, hi: int, extent: int) -> slice:
        return slice(0, extent)


@dataclass(frozen=True)
class Point(Dim):
    """A fixed index, or a computed one (``fn(lo, hi) -> int``)."""

    index: Union[int, Callable[[int, int], int]] = 0

    def resolve(self, lo: int, hi: int, extent: int) -> int:
        idx = self.index(lo, hi) if callable(self.index) else self.index
        if idx < 0:
            idx += extent
        return idx


@dataclass(frozen=True)
class Irregular:
    """An access the compiler cannot analyze (indirect addressing).

    ``footprint(views, lo, hi) -> flat element indices`` is evaluated *at
    run time* by the generated code — the DSM backend faults exactly the
    touched pages (on-demand fetching), while the XHPF backend falls back
    to broadcasting whole partitions, as the paper describes.
    """

    footprint: Callable = None  # (views, lo, hi) -> np.ndarray of flat indices


@dataclass(frozen=True)
class Access:
    """One array access of a statement: which array, which region."""

    array: str
    region: Union[tuple, Irregular]

    @property
    def irregular(self) -> bool:
        return isinstance(self.region, Irregular)

    def resolve(self, lo: int, hi: int, shape: tuple) -> tuple:
        """Concrete numpy index for chunk [lo, hi) (affine accesses only)."""
        if self.irregular:
            raise TypeError(f"access to {self.array} is irregular")
        dims = self.region
        if len(dims) > len(shape):
            raise FootprintError(
                self.array, "rank",
                f"region rank {len(dims)} exceeds array rank {len(shape)}",
                region_rank=len(dims), array_rank=len(shape))
        out = []
        for d, dim_expr in enumerate(dims):
            comp = dim_expr.resolve(lo, hi, shape[d])
            if isinstance(comp, int) and not 0 <= comp < shape[d]:
                raise FootprintError(
                    self.array, "bounds",
                    f"Point index {comp} outside [0, {shape[d]}) "
                    f"in dimension {d}",
                    dim=d, index=comp, extent=shape[d])
            out.append(comp)
        for d in range(len(dims), len(shape)):
            out.append(slice(0, shape[d]))
        return tuple(out)


# ---------------------------------------------------------------------- #
# declarations and statements

@dataclass(frozen=True)
class ArrayDecl:
    """A program array.

    ``distribute`` is the HPF-style data-distribution directive consumed by
    XHPF: the dimension distributed BLOCK-wise across processors (``None``
    means replicated).  SPF ignores it (TreadMarks gives a single shared
    image); the DSM layout pads every array to page boundaries.
    """

    name: str
    shape: tuple
    dtype: object = np.float32
    distribute: Optional[int] = None
    dist_kind: str = "block"            # block | cyclic (HPF CYCLIC)

    def __post_init__(self):
        object.__setattr__(self, "shape",
                           tuple(int(s) for s in self.shape))
        if self.dist_kind not in ("block", "cyclic"):
            raise ValueError(f"bad dist_kind {self.dist_kind!r}")


@dataclass(frozen=True)
class Reduction:
    """A scalar reduction produced by a loop's kernel.

    The kernel returns partial values per chunk in a dict keyed by ``name``;
    SPF combines them through a lock-protected shared scalar, XHPF through a
    reduce collective — both exactly as Section 2 describes.
    """

    name: str
    op: str = "sum"          # sum | max | min
    dtype: object = np.float64

    def combine(self, a, b):
        if self.op == "sum":
            return a + b
        if self.op == "max":
            return max(a, b)
        if self.op == "min":
            return min(a, b)
        raise ValueError(f"unknown reduction op {self.op}")

    @property
    def identity(self):
        return {"sum": 0.0, "max": -np.inf, "min": np.inf}[self.op]


@dataclass
class SeqBlock:
    """Sequential code: ``kernel(views, env)`` with declared footprints.

    ``cost`` is the charged virtual compute time in seconds (a float or a
    callable of the program's params).  ``master_only`` models code that
    writes — under SPMD every processor executes it redundantly unless its
    writes are to distributed arrays (owner guards).
    """

    name: str
    kernel: Callable
    reads: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    cost: float = 0.0

    def cost_for(self, params: dict) -> float:
        return self.cost(params) if callable(self.cost) else float(self.cost)


@dataclass
class ParallelLoop:
    """A parallel DO loop over ``extent`` iterations.

    ``kernel(views, lo, hi)`` performs the chunk's work and returns either
    ``None`` or a dict of reduction partials.  ``align`` names the
    (array, dim) whose distribution drives owner-computes in XHPF; the SPF
    backend schedules iterations ``block`` or ``cyclic`` regardless.
    ``accumulate`` lists arrays that receive scatter-add contributions from
    every chunk (NBF's force buffer) — see the backends for how each
    paradigm realizes that.
    """

    name: str
    extent: int
    kernel: Callable
    reads: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    reductions: list = field(default_factory=list)
    schedule: str = "block"             # block | cyclic
    align: Optional[tuple] = None       # (array_name, dim)
    accumulate: list = field(default_factory=list)
    cost_per_iter: float = 0.0
    start: int = 0                      # iteration space is [start, extent)
    merge_cost_per_iter: float = 0.0    # cost of summing accumulation buffers

    def chunk_cost(self, lo: int, hi: int, step: int = 1) -> float:
        """Virtual compute time of iterations ``range(lo, hi, step)``."""
        return float(self.cost_per_iter) * len(range(lo, hi, step))

    @property
    def irregular(self) -> bool:
        return any(a.irregular for a in self.reads + self.writes)


@dataclass
class TimeLoop:
    """``DO t = 1, count`` around ``body`` (the outer iteration loop).

    ``body`` is either a statement list (same every iteration) or a factory
    ``body(t) -> [stmts]`` for iteration-dependent structure (MGS's
    triangular iteration space builds its statements per outer index).
    """

    name: str
    count: int
    body: Union[list, Callable[[int], list]] = field(default_factory=list)

    def stmts_at(self, t: int) -> list:
        return self.body(t) if callable(self.body) else self.body


@dataclass(frozen=True)
class Mark:
    """A measurement boundary: the paper times only part of each run
    ("the last 100 iterations are timed").  All backends record the mark;
    the harness reports the time and traffic between "start" and "stop"."""

    label: str


Stmt = Union[SeqBlock, ParallelLoop, TimeLoop, Mark]

# the measurement window each Mark label opens (the first is "setup")
MARK_WINDOWS = {"start": "measured", "stop": "epilogue"}


@dataclass
class Program:
    """A complete application instance (sizes bound at construction)."""

    name: str
    arrays: list
    body: list
    params: dict = field(default_factory=dict)

    def decl(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"no array {name!r} in program {self.name!r}")

    def flat_statements(self):
        """Iterate statement instances in execution order (TimeLoops
        unrolled, factories instantiated).  Every backend walks this same
        deterministic schedule, which is what lets fork-join workers match
        the master's dispatches by sequence number."""
        def walk(stmts):
            for s in stmts:
                if isinstance(s, TimeLoop):
                    for t in range(s.count):
                        yield from walk(s.stmts_at(t))
                else:
                    yield s
        yield from walk(self.body)

    def flat_statements_with_window(self):
        """Like :meth:`flat_statements` but pairs each statement with the
        measurement window it falls in — "setup" before ``Mark("start")``,
        "measured" between the marks, "epilogue" after ``Mark("stop")``.
        Mark statements themselves are yielded with the window they open."""
        window = "setup"
        for s in self.flat_statements():
            if isinstance(s, Mark):
                window = MARK_WINDOWS.get(s.label, window)
            yield s, window

    def parallel_loops(self):
        for s in self.flat_statements():
            if isinstance(s, ParallelLoop):
                yield s

    def validate(self) -> None:
        """Static sanity checks (every access names a declared array...)."""
        names = {a.name for a in self.arrays}
        def check(stmts):
            for s in stmts:
                if isinstance(s, TimeLoop):
                    check(s.stmts_at(0))
                    continue
                if isinstance(s, Mark):
                    continue
                accesses = list(s.reads) + list(s.writes)
                for acc in accesses:
                    if acc.array not in names:
                        raise ValueError(
                            f"{self.name}/{s.name}: access to undeclared "
                            f"array {acc.array!r}")
                if isinstance(s, ParallelLoop):
                    if s.extent <= 0:
                        raise ValueError(f"{s.name}: bad extent {s.extent}")
                    for acc in s.accumulate:
                        if acc not in names:
                            raise ValueError(
                                f"{s.name}: accumulate of undeclared {acc!r}")
        check(self.body)
