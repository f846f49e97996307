"""Cost model for the simulated machine.

The paper's platform is an 8-node IBM SP/2 (thin nodes, AIX 3.2.5) with the
high-performance two-level crossbar switch, using the user-level MPL
communication library.  We model it with a small set of constants:

* a message costs ``send_overhead`` CPU seconds at the sender, then arrives
  ``latency + nbytes * byte_time`` later, and costs ``recv_overhead`` CPU
  seconds at the receiver when consumed (a LogGP-flavoured model);
* DSM-specific software costs: page-fault handling (the SIGSEGV/mprotect
  analog), twin creation, diff creation and application (with per-byte
  terms) — these match the overheads Section 5 of the paper attributes to
  "detecting modifications to shared memory (twinning, diffing, and page
  faults)";
* computation is charged explicitly by the applications through
  per-element costs calibrated so that single-processor virtual times
  reproduce Table 1 of the paper (see :mod:`repro.eval.constants`).

The defaults below are taken from published SP/2 / TreadMarks measurements
of the era: ~60 us small-message one-way latency through MPL, ~35 MB/s
point-to-point bandwidth, and page-fault + protocol handling on the order of
a hundred microseconds.  Absolute fidelity is not the goal (the paper itself
warns results are platform-specific); preserving the *ratios* that drive the
paper's conclusions is.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

__all__ = ["MachineModel", "SP2_MODEL"]

PAGE_SIZE = 4096
"""Shared-memory page size in bytes (AIX used 4 KB pages)."""


@dataclass(frozen=True)
class MachineModel:
    """All tunable costs of the simulated platform, in seconds (or bytes)."""

    nprocs: int = 8

    # --- network (MPL user-level messaging over the SP/2 switch) ---------
    latency: float = 150e-6
    """One-way latency for a message through user-level MPL (the paper's
    era reported 100-200 us small-message latencies)."""
    byte_time: float = 1.0 / 25e6
    """Transfer time per payload byte (~25 MB/s effective point-to-point
    through the user-level library)."""
    send_overhead: float = 60e-6
    """CPU time at the sender per message (user-level MPL send path)."""
    recv_overhead: float = 60e-6
    """CPU time at the receiver per message consumed."""

    # --- DSM software costs (TreadMarks) ----------------------------------
    fault_overhead: float = 300e-6
    """Kernel trap + signal delivery + handler dispatch per simulated page
    fault (SIGSEGV + mprotect on AIX 3.2.5).  The resulting end-to-end
    remote miss is ~1.5 ms, the upper range of published TreadMarks
    microbenchmarks on networks of this class."""
    twin_overhead: float = 100e-6
    """Copying a page to create a twin (4 KB bcopy plus mprotect)."""
    diff_create_overhead: float = 150e-6
    diff_create_byte_time: float = 25e-9
    """Word-compare of page against twin: fixed + per-byte-scanned cost."""
    diff_apply_overhead: float = 60e-6
    diff_apply_byte_time: float = 15e-9
    """Patching a page with a received diff."""
    protocol_overhead: float = 60e-6
    """Misc. protocol bookkeeping per remote request served."""
    write_notice_bytes: int = 8
    """Wire size of one write-notice *run* (first page + count); notices for
    consecutive pages are run-length encoded."""
    interval_header_bytes: int = 16
    """Wire size of an interval record header (proc, id, vtsum, run count)."""
    message_header_bytes: int = 32
    """Envelope bytes added to every message's transfer time (not payload
    accounting; Tables 2/3 in the paper report payload kilobytes)."""

    # --- message-passing runtime buffering ---------------------------------
    mp_packet_bytes: int = 4096
    """The XHPF run-time system transfers array sections through a bounded
    internal buffer; large broadcasts are segmented into packets of this
    size.  (This reproduces the per-message granularity visible in the
    paper's Table 3, where the XHPF data/message ratio is ~4 KB.)
    ``0`` means unsegmented: every send is one message, an idealized
    runtime.  Hand-coded PVMe sends are *not* segmented."""

    def __post_init__(self):
        # overrides come from outside the program (``--machine``, the
        # wire): a negative, non-finite or fractional one would run and
        # report nonsense (negative or nan time) or fail mid-simulation
        for f in fields(self):
            value = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(
                    f"machine field {f.name} must be "
                    f"{'an integer' if f.type == 'int' else 'a number'}, "
                    f"not {value!r}")
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"machine field {f.name} must be finite "
                                 f"and >= 0, not {value!r}")

    def message_time(self, nbytes: int) -> float:
        """Wire time from end-of-send to delivery for an ``nbytes`` payload."""
        return self.latency + (nbytes + self.message_header_bytes) * self.byte_time

    def diff_create_time(self, page_bytes: int) -> float:
        return self.diff_create_overhead + page_bytes * self.diff_create_byte_time

    def diff_apply_time(self, diff_bytes: int) -> float:
        return self.diff_apply_overhead + diff_bytes * self.diff_apply_byte_time

    def with_(self, **kw) -> "MachineModel":
        """Return a copy with some fields replaced (for ablations)."""
        return replace(self, **kw)


SP2_MODEL = MachineModel()
"""Default calibration: the 8-node SP/2 of the paper."""
