"""Deterministic, seeded fault injection for the simulated interconnect.

The paper's platform (MPL/PVMe on the SP/2 switch) is assumed perfectly
reliable, and the seed :class:`~repro.sim.network.Network` inherited that
assumption: every ``send`` eventually ``_deliver``s, exactly once, in
per-pair FIFO order.  Real cluster transports break all three promises —
software DSM runtimes for heterogeneous machines (Cudennec,
arXiv:2009.01507) and PGAS runtimes layered over raw transports (DART-MPI,
arXiv:1507.01773) both treat link-level reliability as a first-class
design concern.  This module supplies the *adversary*: a seeded layer the
network consults on every wire transmission to

* **drop** the copy (it never arrives),
* **duplicate** it (a second copy arrives slightly later),
* **delay** it (extra in-flight time, up to :attr:`FaultPlan.delay_max`),
* **reorder** it (a large extra delay — enough to land after messages
  sent later on the same pair), and
* **stall or slow individual nodes** (an explicit fault-*schedule*:
  deliveries touching a stalled node's interface are deferred to the end
  of the stall window; a slow node adds a fixed delay to every message).

Everything is driven by one seeded ``random.Random`` — **no global
``random`` at simulation time** — so a run is a pure function of
``(program, schedule_seed, FaultPlan)``: the same plan replays the same
anomalies event-for-event, which is what lets ``python -m repro chaos``
assert bit-identical numerics across seeds.

The recovery side (sequence numbers, cumulative acks, retransmission) is
the network's job — see *Reliable delivery* in ``repro.sim.network`` —
this module only decides what the wire does to each copy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

__all__ = ["FaultRates", "NodeStall", "FaultPlan", "FaultStats",
           "FaultInjector"]


@dataclass(frozen=True)
class FaultRates:
    """Per-transmission fault probabilities (independent draws)."""

    drop: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0


@dataclass(frozen=True)
class NodeStall:
    """One entry of the explicit fault schedule: ``node``'s network
    interface is unresponsive during ``[at, at + duration)`` virtual
    seconds — deliveries to or from it land at the window's end."""

    node: int
    at: float
    duration: float

    @property
    def end(self) -> float:
        return self.at + self.duration


#: default per-transmission rates: 2% drop, 2% duplicate, 5% reorder,
#: 5% extra delay — aggressive enough that every bench run exercises
#: every recovery path, mild enough that backoff never hits its cap.
DEFAULT_RATES = FaultRates(drop=0.02, dup=0.02, reorder=0.05, delay=0.05)


@dataclass(frozen=True)
class FaultPlan:
    """Everything the injector needs, in one immutable, seedable object.

    ``rates`` applies to every message; ``overrides`` maps an accounting
    *category* (``"sync"``, ``"diff_rep"``, ...) to different rates —
    e.g. a plan that only ever drops bulk data.  ``stalls`` is the
    explicit fault schedule.  ``reliable=False`` exposes the raw faulty
    wire (for tests that demonstrate why recovery is needed).
    """

    seed: int = 0
    rates: FaultRates = DEFAULT_RATES
    overrides: Mapping[str, FaultRates] = field(default_factory=dict)
    delay_max: float = 4e-4          # uniform extra in-flight time bound (s)
    reorder_lag: float = 2e-3        # reordering delay scale (s)
    stalls: tuple = ()               # NodeStall entries
    slow_nodes: Mapping[int, float] = field(default_factory=dict)
    reliable: bool = True            # arm the ack/retransmit sublayer
    rto: Optional[float] = None      # retransmit slack; None = derived
    max_attempts: int = 12           # transmissions per message before giving up

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

    def rates_for(self, category: str) -> FaultRates:
        return self.overrides.get(category, self.rates)

    @classmethod
    def default(cls, seed: int = 0) -> "FaultPlan":
        """Default chaos plan: all four rates plus one node stall."""
        return cls(seed=seed, stalls=(NodeStall(node=1, at=0.01,
                                               duration=0.01),))


@dataclass
class FaultStats:
    """What the injector actually did to this run (observability)."""

    drops: int = 0
    dups: int = 0
    delays: int = 0
    reorders: int = 0
    stall_deferrals: int = 0
    slow_deferrals: int = 0
    ack_drops: int = 0
    ack_delays: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))

    def total(self) -> int:
        return sum(vars(self).values())


@dataclass
class Verdict:
    """The injector's decision for one wire transmission."""

    drop: bool
    dup: bool
    delay: float


class FaultInjector:
    """Seeded per-run fault source; consulted by the network on every
    wire transmission (originals, retransmissions, and acks alike)."""

    def __init__(self, plan: FaultPlan, nprocs: int):
        self.plan = plan
        self.nprocs = nprocs
        self.rng = random.Random(plan.seed)
        self.stats = FaultStats()
        self._stalls = tuple(sorted(plan.stalls, key=lambda s: (s.at, s.node)))

    # ------------------------------------------------------------------ #

    def draw(self, category: str) -> Verdict:
        """Decide drop/dup/extra-delay for one transmission.

        The draw order is fixed (drop, dup, delay, amount, reorder,
        amount) so a plan replays identically whenever the network's
        transmission sequence is identical.
        """
        rates = self.plan.rates_for(category)
        rng = self.rng
        drop = rng.random() < rates.drop
        dup = rng.random() < rates.dup
        delay = 0.0
        if rng.random() < rates.delay:
            delay += rng.random() * self.plan.delay_max
            self.stats.delays += 1
        if rng.random() < rates.reorder:
            # enough lag to land behind several later sends on the pair
            delay += self.plan.reorder_lag * (0.5 + rng.random())
            self.stats.reorders += 1
        if drop:
            self.stats.drops += 1
        if dup:
            self.stats.dups += 1
        return Verdict(drop=drop, dup=dup, delay=delay)

    def draw_ack(self) -> Verdict:
        """Acks ride the same faulty wire (category ``"ack"``)."""
        verdict = self.draw("ack")
        if verdict.drop:
            self.stats.ack_drops += 1
            self.stats.drops -= 1       # counted separately
        if verdict.delay:
            self.stats.ack_delays += 1
        return verdict

    def dup_lag(self) -> float:
        """Extra in-flight time of an injected duplicate copy."""
        return self.plan.delay_max * (0.25 + 0.75 * self.rng.random())

    def defer(self, src: int, dst: int, t: float) -> float:
        """Apply the fault *schedule* to an arrival time: stalled-node
        windows push the arrival to the window end; slow nodes add their
        fixed per-message penalty."""
        slow = self.plan.slow_nodes
        if slow:
            extra = slow.get(src, 0.0) + slow.get(dst, 0.0)
            if extra:
                t += extra
                self.stats.slow_deferrals += 1
        for stall in self._stalls:
            if (src == stall.node or dst == stall.node) \
                    and stall.at <= t < stall.end:
                t = stall.end
                self.stats.stall_deferrals += 1
        return t
