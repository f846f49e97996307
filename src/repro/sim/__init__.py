"""Deterministic discrete-event simulation substrate.

This package stands in for the paper's physical 8-node IBM SP/2.  It provides

* :mod:`repro.sim.engine` -- a virtual-time event scheduler whose simulated
  "processes" are cooperatively scheduled: OS threads for plain-function
  bodies, inline-stepped generators for generator-function bodies (exactly
  one runs at a time, so execution is deterministic and reproducible),
* :mod:`repro.sim.machine` -- the cost model (message latency/bandwidth,
  page-fault handling, twin/diff costs, per-FLOP compute cost) calibrated to
  published SP/2 figures,
* :mod:`repro.sim.network` -- a switched interconnect with mailbox delivery,
  tag matching, and full message/byte accounting (for Tables 2 and 3),
* :mod:`repro.sim.cluster` -- the top-level runner that spawns ``n``
  simulated processors, runs a program on each, and reports virtual times.
"""

from repro.sim.engine import (HOLD, PARK, Deadlock, Process, SimError,
                              Simulator)
from repro.sim.faults import (FaultInjector, FaultPlan, FaultRates,
                              FaultStats, NodeStall)
from repro.sim.machine import MachineModel, SP2_MODEL
from repro.sim.network import Network, Message, NetworkStats, ANY_SOURCE, ANY_TAG
from repro.sim.cluster import Cluster, ProcEnv, RunResult

__all__ = [
    "Simulator",
    "Process",
    "SimError",
    "Deadlock",
    "HOLD",
    "PARK",
    "FaultInjector",
    "FaultPlan",
    "FaultRates",
    "FaultStats",
    "NodeStall",
    "MachineModel",
    "SP2_MODEL",
    "Network",
    "Message",
    "NetworkStats",
    "ANY_SOURCE",
    "ANY_TAG",
    "Cluster",
    "ProcEnv",
    "RunResult",
]
