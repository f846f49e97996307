"""repro — Software DSM as a target for parallelizing compilers.

A from-scratch reproduction of Cox, Dwarkadas, Lu & Zwaenepoel,
"Evaluating the Performance of Software Distributed Shared Memory as a
Target for Parallelizing Compilers" (IPPS 1997).

The package provides:

* :mod:`repro.sim` — a deterministic discrete-event simulated cluster
  (the stand-in for the paper's 8-node IBM SP/2),
* :mod:`repro.msg` — MPL/PVMe-style message passing (point-to-point +
  collectives),
* :mod:`repro.tmk` — a TreadMarks-style software DSM (lazy invalidate
  release consistency, multiple-writer diffs, barriers, locks, the
  Section 2.3 fork-join interface, and the enhanced interface used by the
  paper's hand optimizations),
* :mod:`repro.compiler` — the SPF (shared-memory) and XHPF (message-
  passing) parallelizing-compiler analogs over a shared loop-nest IR,
* :mod:`repro.apps` — the six applications (Jacobi, Shallow, MGS, 3-D
  FFT, IGrid, NBF), each in four variants,
* :mod:`repro.eval` — the harness regenerating every table and figure.

Quick start::

    from repro.api import RunRequest, execute
    print(execute(RunRequest("jacobi", "tmk", nprocs=8, preset="bench")).row())

Batches go through the persistent worker pool::

    from repro.serve import RunService
    with RunService(workers=4) as svc:
        batch = svc.run_batch([RunRequest("jacobi", "spf"), ...])
"""

from repro.api import BatchResult, RunRequest, RunResult, execute
from repro.sim import Cluster, MachineModel, SP2_MODEL
from repro.tmk import Tmk, tmk_run

__version__ = "1.1.0"

__all__ = [
    "RunRequest",
    "RunResult",
    "BatchResult",
    "execute",
    "Cluster",
    "MachineModel",
    "SP2_MODEL",
    "Tmk",
    "tmk_run",
    "__version__",
]
