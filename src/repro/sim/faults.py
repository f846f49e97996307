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
* **delay** it (extra in-flight time, up to :data:`DELAY_BOUND_S`),
* **reorder** it (a large extra delay, scaled by :data:`REORDER_LAG_S` —
  enough to land after messages sent later on the same pair), and
* **stall individual nodes** (an explicit fault-*schedule*: deliveries
  touching a stalled node's interface are deferred to the end of the
  stall window).

A :class:`FaultPlan` is exactly what ``python -m repro chaos`` varies —
a seed, the four rates and the stall schedule; the delay bounds are
fixed module constants and every transmission draws from the same rates.

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
from dataclasses import dataclass, fields, replace

from repro.sim.machine import check_value

__all__ = ["FaultRates", "NodeStall", "FaultPlan", "FaultStats",
           "FaultInjector", "DELAY_BOUND_S", "REORDER_LAG_S"]

#: uniform extra in-flight time bound of a delayed copy (s); an injected
#: duplicate lags its original by a quarter to all of it
DELAY_BOUND_S = 4e-4
#: reordering delay scale (s): a reordered copy lags 0.5-1.5x this
REORDER_LAG_S = 2e-3


@dataclass(frozen=True)
class FaultRates:
    """Per-transmission fault probabilities (independent draws)."""

    drop: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            check_value(f"fault rate {f.name}", getattr(self, f.name),
                        most=1.0)


@dataclass(frozen=True)
class NodeStall:
    """One entry of the explicit fault schedule: ``node``'s network
    interface is unresponsive during ``[at, at + duration)`` virtual
    seconds — deliveries to or from it land at the window's end."""

    node: int
    at: float
    duration: float

    def __post_init__(self):
        check_value("stall node", self.node, integral=True)
        check_value("stall at", self.at)
        check_value("stall duration", self.duration)

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

    ``rates`` applies to every transmission (data, acks and
    retransmissions alike); ``stalls`` is the explicit fault schedule.
    Attaching a plan always arms the network's recovery sublayer.
    """

    seed: int = 0
    rates: FaultRates = DEFAULT_RATES
    stalls: tuple = ()               # NodeStall entries

    def with_seed(self, seed: int) -> "FaultPlan":
        return replace(self, seed=seed)

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

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.stats = FaultStats()
        self._stalls = tuple(sorted(plan.stalls, key=lambda s: (s.at, s.node)))

    # ------------------------------------------------------------------ #

    def draw(self) -> Verdict:
        """Decide drop/dup/extra-delay for one transmission.

        The draw order is fixed (drop, dup, delay, amount, reorder,
        amount) so a plan replays identically whenever the network's
        transmission sequence is identical.
        """
        rates = self.plan.rates
        rng = self.rng
        drop = rng.random() < rates.drop
        dup = rng.random() < rates.dup
        delay = 0.0
        if rng.random() < rates.delay:
            delay += rng.random() * DELAY_BOUND_S
            self.stats.delays += 1
        if rng.random() < rates.reorder:
            # enough lag to land behind several later sends on the pair
            delay += REORDER_LAG_S * (0.5 + rng.random())
            self.stats.reorders += 1
        if drop:
            self.stats.drops += 1
        if dup:
            self.stats.dups += 1
        return Verdict(drop=drop, dup=dup, delay=delay)

    def draw_ack(self) -> Verdict:
        """Acks ride the same faulty wire, counted apart from data."""
        verdict = self.draw()
        if verdict.drop:
            self.stats.ack_drops += 1
            self.stats.drops -= 1       # counted separately
        if verdict.delay:
            self.stats.ack_delays += 1
        return verdict

    def dup_lag(self) -> float:
        """Extra in-flight time of an injected duplicate copy."""
        return DELAY_BOUND_S * (0.25 + 0.75 * self.rng.random())

    def defer(self, src: int, dst: int, t: float) -> float:
        """Apply the fault *schedule* to an arrival time: stalled-node
        windows push the arrival to the window end."""
        for stall in self._stalls:
            if (src == stall.node or dst == stall.node) \
                    and stall.at <= t < stall.end:
                t = stall.end
                self.stats.stall_deferrals += 1
        return t
