"""The parallelizing-compiler analogs: Forge SPF and Forge XHPF.

The paper compiles annotated Fortran 77.  Here, applications are written
once in a loop-nest intermediate representation (:mod:`repro.compiler.ir`):
sequential blocks and parallel loops whose array accesses are declared as
affine regions of the loop bounds (or marked irregular/indirect), with the
numeric work itself supplied as numpy kernels — the black-box-with-footprint
model a directive compiler works with.

Two backends consume the same IR:

* :mod:`repro.compiler.spf` — the shared-memory parallelizer: every array
  touched in a parallel loop is placed in (page-padded) DSM shared memory,
  loops run under the fork-join runtime of Section 2.3, scalar reductions
  use a lock, and the master executes all sequential code.  Compiler
  options reproduce the paper's hand optimizations (communication
  aggregation, loop fusion/barrier elimination, data push, broadcast).
* :mod:`repro.compiler.xhpf` — the message-passing parallelizer: SPMD
  owner-computes from HPF-style distribution directives, exact neighbour
  exchanges for affine access patterns, and the paper's
  broadcast-everything fallback when an indirection array defeats the
  analysis.

:mod:`repro.compiler.partition` holds what they share per processor — a
``Chunk`` of a loop: how its kernel is called, what it costs and what an
access touches (each backend owns only its partition *policy*) —
:mod:`repro.compiler.depend` the cross-processor dependence tests, and
:mod:`repro.compiler.seq` executes the IR sequentially as the correctness
oracle and Table 1 baseline.
"""

from repro.compiler.ir import (Access, ArrayDecl, Dim, Full, Irregular, Mark,
                               ParallelLoop, Point, Program, Reduction,
                               SeqBlock, Span, TimeLoop)
from repro.compiler.seq import run_sequential, sequential_time
from repro.compiler.spf import SpfOptions, compile_spf, run_spf
from repro.compiler.xhpf import XhpfOptions, compile_xhpf, run_xhpf

__all__ = [
    "Access", "ArrayDecl", "Dim", "Full", "Irregular", "Mark",
    "ParallelLoop", "Point", "Program", "Reduction", "SeqBlock", "Span",
    "TimeLoop",
    "run_sequential", "sequential_time",
    "SpfOptions", "compile_spf", "run_spf",
    "XhpfOptions", "compile_xhpf", "run_xhpf",
]
