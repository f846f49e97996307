"""The six applications of the paper.

Regular access patterns: :mod:`~repro.apps.jacobi` (iterative PDE solver),
:mod:`~repro.apps.shallow` (NCAR shallow-water benchmark),
:mod:`~repro.apps.mgs` (Modified Gramm-Schmidt orthonormalization),
:mod:`~repro.apps.fft3d` (NAS 3-D FFT PDE solver).  Irregular:
:mod:`~repro.apps.igrid` (9-point stencil through a run-time indirection
map), :mod:`~repro.apps.nbf` (non-bonded force kernel of a molecular
dynamics code).

Each module provides one :class:`~repro.apps.common.AppSpec` exposing

* ``build_program(params)`` — the IR description that SPF, XHPF and the
  sequential oracle all consume,
* ``hand_tmk`` — the hand-coded TreadMarks program,
* ``hand_pvme`` — the hand-coded PVMe message-passing program,
* size presets: ``paper`` (Table 1 sizes), ``bench`` (scaled down, same
  shape), ``test`` (tiny; CI-speed).

Both hand-coded programs are *generator functions*, like every program the
compilers emit: each blocking operation is a ``yield from`` of its one
generator body (``tmk.barrier_gen()``, ``p.recv_gen(...)``) or, for a
shared-array access, ``steps = a.writable_steps(region)`` / ``if steps is
not None: yield from steps`` before the plain numpy view.  The engine runs
them as generator processes, on the caller's thread;
:func:`~repro.apps.common.register` refuses a plain function, which would
bring a thread per processor back.

All variants of an app share the same numpy kernels, so one sequential run
is the correctness oracle for the other four.
"""

from repro.apps.common import APP_REGISTRY, AppSpec, get_app
from repro.apps import jacobi, shallow, mgs, fft3d, igrid, nbf  # registers

__all__ = ["APP_REGISTRY", "AppSpec", "get_app",
           "jacobi", "shallow", "mgs", "fft3d", "igrid", "nbf"]
