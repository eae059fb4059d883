"""Message-level fault injection and the self-healing repair protocol.

The paper (Section 3.3) specifies a *graceful* departure protocol — a
leaving object hands its region, its close-neighbour declarations and its
hosted back-long-range registrations to the survivors before withdrawing —
and explicitly leaves crash recovery open.  The oracle-mode
:class:`~repro.simulation.failures.CrashInjector` quantifies that gap by
mutating overlay state directly; this module closes it *at the message
level*: crashes, message loss and partitions are injected into the network
layer, and the survivors detect and repair the damage entirely through
counted protocol messages.

Four pieces compose the subsystem:

* :class:`FaultPlane` — the injection point, consulted by
  :meth:`Network.send <repro.simulation.network.Network.send>` for every
  non-local message.  It drops traffic to/from crashed nodes, cuts
  messages crossing an active split (:class:`SplitSpec`: named sides of
  ids severed from each other for a window of the virtual clock — a
  group isolated from the rest is the two-sided case, the rest being
  the other side), and loses or delays messages probabilistically from
  a dedicated seeded random source, so delivery decisions are
  reproducible end to end.
* :class:`ProtocolCrashInjector` — crashes live protocol nodes abruptly.
  Exactly mirroring the oracle injector, the *substrate* is repaired (the
  shared kernel, the locate grid and the network handler table forget the
  victim — the hosting infrastructure notices the peer vanished) while
  every protocol-level hand-over of Section 3.3 is skipped, stranding the
  survivors' local views.
* :class:`HeartbeatDetector` — periodic ``PING``/``PONG`` probing of each
  node's reference set (Voronoi neighbours, close neighbours, long-link
  endpoints and back-link sources).  A peer missing ``miss_threshold``
  consecutive rounds lands on the prober's local suspect list; a live
  suspect that later answers a probe is exonerated by the ``PONG``
  handler, so lost heartbeats self-correct.  :class:`HeartbeatConfig`
  optionally piggy-backs freshness on ordinary protocol traffic (any
  delivered message exonerates its sender, recently heard peers are not
  probed, crossed probes suppress the redundant ``PONG``) and probes
  long-link/back-link edges on a deterministic sampling stride instead of
  every round — an order-of-magnitude cheaper steady state for a bounded
  increase in detection latency.  The default probes every reference
  every round.
* :class:`RepairProtocol` — the crash-mode extension of the Section 3.3
  departure protocol.  Where a graceful leaver *pushes* its state out, the
  repair protocol lets the survivors *pull* the overlay back together in
  phased rounds: suspicion gossip (``SUSPECT_NOTIFY``, which also scrubs
  close entries and dangling back registrations), Voronoi view repair
  (``VIEW_SCRUB``, the survivors' ``RemoveVoronoiRegion`` — each wounded
  view is refreshed from a version-stamped local kernel consultation, and
  mis-held back registrations are handed one greedy step towards their
  target's owner), dangling long-link re-resolution (re-running the routed
  ``SEARCH_LONG_LINK`` machinery, which re-registers the back link and
  answers ``LONG_LINK_ESTABLISHED``), and close re-discovery seeded by the
  simulator's locate grid.  Rounds are retry-safe: a node keeps a suspect
  until no local reference to it survives, so repair messages lost to the
  fault plane are simply re-attempted next round.

:class:`ProtocolChurnHarness` wires the pieces into one reproducible
experiment — bulk-join a population, churn it gracefully, crash a
fraction, detect, repair, verify — with per-phase message accounting; the
``ablation_churn_protocol`` experiment and ``bench_protocol_churn``
benchmark are thin wrappers around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import VoroNetConfig
from repro.simulation.failures import (ChurnScheduler, CrashDamageReport,
                                       among_crashed, crash_damage,
                                       protocol_references)
from repro.simulation.network import Message
from repro.simulation.protocol import ProtocolSimulator
from repro.simulation.trace import TraceRecorder
from repro.utils.rng import RandomSource
from repro.workloads.distributions import ObjectDistribution, UniformDistribution
from repro.workloads.generators import generate_objects

__all__ = [
    "FaultDecision",
    "FaultPlane",
    "SplitSpec",
    "ProtocolCrashInjector",
    "HeartbeatConfig",
    "HeartbeatDetector",
    "RepairProtocol",
    "RepairReport",
    "ProtocolChurnHarness",
    "ProtocolChurnReport",
]


# ----------------------------------------------------------------------
# the fault plane
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultDecision:
    """Verdict of the fault plane on one message."""

    deliver: bool
    reason: str = "ok"
    extra_delay: float = 0.0


_DELIVER = FaultDecision(deliver=True)


class SplitSpec:  # simlint: ignore[SIM003] — one per partition event, not per message
    """A k-way network split with explicit side membership.

    Every side is named: traffic within a side flows, traffic between
    any two different sides is cut while the window is active.  A group
    cut off from everyone else is the two-sided case ``[group, rest]``.
    Ids on no side (nodes joining mid-split) are never cut until placed
    with :meth:`assign`, so side membership tracks exactly the population
    the merge protocol must reconcile.

    ``in_flight`` pins the semantics for messages already travelling when
    a window opens (see ``TESTING.md`` "Partitions & merge"):

    * ``"deliver"`` (default): the fault decision is made at *send* time
      only — a message sent before the window opens is a packet already
      on the wire and is delivered even if its delivery lands mid-split.
    * ``"cut"``: delivery-time enforcement — a cross-side message whose
      delivery would land inside the window is dropped too.
    """

    __slots__ = ("sides", "start", "end", "in_flight", "_side_of", "healed")

    def __init__(self, sides: Sequence[Sequence[int]], start: float,
                 end: float, *, in_flight: str = "deliver") -> None:
        if end < start:
            raise ValueError(f"split window ends before it starts: "
                             f"[{start}, {end})")
        if in_flight not in ("deliver", "cut"):
            raise ValueError(f"in_flight must be 'deliver' or 'cut', "
                             f"got {in_flight!r}")
        if len(sides) < 2:
            raise ValueError("a split needs at least two sides")
        self.sides: List[Set[int]] = [set(side) for side in sides]
        self._side_of: Dict[int, int] = {}
        for index, side in enumerate(self.sides):
            for object_id in side:
                if object_id in self._side_of:
                    raise ValueError(f"object {object_id} appears on "
                                     f"two sides of the split")
                self._side_of[object_id] = index
        self.start = float(start)
        self.end = float(end)
        self.in_flight = in_flight
        self.healed = False

    def __repr__(self) -> str:
        sizes = "/".join(str(len(side)) for side in self.sides)
        return (f"SplitSpec(sides={sizes}, start={self.start!r}, "
                f"end={self.end!r}, in_flight={self.in_flight!r})")

    def active(self, now: float) -> bool:
        return not self.healed and self.start <= now < self.end

    def side_of(self, object_id: int) -> Optional[int]:
        """Side index of ``object_id``, or ``None`` if unassigned."""
        return self._side_of.get(object_id)

    def assign(self, object_id: int, side: int) -> None:
        """Place a split-era joiner on ``side`` (idempotent re-assign is an error)."""
        if not 0 <= side < len(self.sides):
            raise ValueError(f"no side {side} in a {len(self.sides)}-way split")
        current = self._side_of.get(object_id)
        if current is not None and current != side:
            raise ValueError(f"object {object_id} already on side {current}")
        self.sides[side].add(object_id)
        self._side_of[object_id] = side

    def separates(self, sender: int, recipient: int) -> bool:
        """True when both endpoints are assigned and sit on different sides.

        Unassigned endpoints (objects that predate the split machinery or
        external observers) are never cut — the split only severs traffic
        between *known* sides, matching how a WAN partition separates
        whole sites rather than individual flows.
        """
        sender_side = self._side_of.get(sender)
        recipient_side = self._side_of.get(recipient)
        return (sender_side is not None and recipient_side is not None
                and sender_side != recipient_side)


class FaultPlane:
    """Message-level fault injection for the protocol simulator.

    Attach via ``ProtocolSimulator(..., faults=FaultPlane(seed=...))`` (or
    by setting :attr:`Network.faults <repro.simulation.network.Network.faults>`
    directly).  Every non-local send is then submitted to :meth:`decide`.

    Decision order is fixed — crashed sender, crashed recipient, split
    cut, probabilistic loss, probabilistic delay — and random draws come
    from a dedicated :class:`~repro.utils.rng.RandomSource`, so for a given
    seed and message sequence the decisions are deterministic (the
    Hypothesis suite pins this).

    Parameters
    ----------
    seed:
        Seed of the loss/delay random source.
    loss_probability:
        Per-message probability of silent loss (applied after crash and
        split checks).
    delay_probability / delay_range:
        Probability that a delivered message is stretched by an extra
        latency drawn uniformly from ``delay_range``.
    """

    __slots__ = ("_rng", "seed", "_crashed", "_splits",
                 "_heal_hooks", "in_flight_cuts",
                 "loss_probability", "delay_probability", "delay_range",
                 "decisions", "drops_by_reason")

    def __init__(self, *, seed: Optional[int] = None,
                 loss_probability: float = 0.0,
                 delay_probability: float = 0.0,
                 delay_range: Tuple[float, float] = (0.0, 0.0)) -> None:
        self._rng = RandomSource(seed)
        #: The seed the decision stream was built from (``None`` when the
        #: plane was deliberately left unseeded) — kept so reprs and
        #: experiment reports can state how to replay the fault schedule.
        self.seed = seed
        self._crashed: Set[int] = set()
        self._splits: List[SplitSpec] = []
        self._heal_hooks: List = []
        #: Count of live specs with delivery-time (``in_flight="cut"``)
        #: enforcement — the network's send hot path only consults
        #: :meth:`cuts_in_flight` when this is non-zero.
        self.in_flight_cuts = 0
        self.set_loss(loss_probability)
        self.set_delay(delay_probability, delay_range)
        self.decisions = 0
        self.drops_by_reason: Dict[str, int] = {}

    def __repr__(self) -> str:
        return (f"FaultPlane(seed={self.seed!r}, "
                f"loss_probability={self.loss_probability!r}, "
                f"delay_probability={self.delay_probability!r}, "
                f"delay_range={self.delay_range!r})")

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def set_loss(self, probability: float) -> None:
        """Set the per-message loss probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {probability}")
        self.loss_probability = probability

    def set_delay(self, probability: float,
                  delay_range: Tuple[float, float]) -> None:
        """Set the extra-delay probability and its uniform range."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"delay probability must be in [0, 1], got {probability}")
        low, high = delay_range
        if not 0.0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got {delay_range}")
        self.delay_probability = probability
        self.delay_range = (float(low), float(high))

    def crash(self, object_id: int) -> None:
        """Mark a node crashed: every message to or from it is dropped."""
        self._crashed.add(object_id)

    def is_crashed(self, object_id: int) -> bool:
        return object_id in self._crashed

    @property
    def crashed(self) -> frozenset:
        """Ids currently marked crashed."""
        return frozenset(self._crashed)

    def split(self, sides: Sequence[Sequence[int]], start: float,
              end: float = math.inf, *,
              in_flight: str = "deliver") -> SplitSpec:
        """Open a k-way split: traffic between different ``sides`` is cut.

        Returns the :class:`SplitSpec`, whose :meth:`~SplitSpec.assign`
        tracks split-era joiners.  ``end`` defaults to +inf — a split is
        normally closed explicitly via :meth:`heal_partitions` (which
        fires the registered heal hooks) rather than by the clock.
        """
        spec = SplitSpec(sides, start, end, in_flight=in_flight)
        self._splits.append(spec)
        if in_flight == "cut":
            self.in_flight_cuts += 1
        return spec

    def active_split(self, now: float) -> Optional[SplitSpec]:
        """The first split whose window covers ``now``, if any."""
        for spec in self._splits:
            if spec.active(now):
                return spec
        return None

    def side_of(self, object_id: int, now: float) -> Optional[int]:
        """Side of ``object_id`` under the split active at ``now``."""
        spec = self.active_split(now)
        return None if spec is None else spec.side_of(object_id)

    def on_heal(self, hook) -> None:
        """Register ``hook(spec)`` to fire when a split heals.

        Hooks fire once per healed spec, in registration order, from
        :meth:`heal_partitions` — the explicit heal path.  Windows that
        merely expire on the virtual clock are passive (pruned on the
        ``decide`` hot path without firing hooks); drive the heal
        explicitly when merge bookkeeping must run.
        """
        self._heal_hooks.append(hook)

    def heal_partitions(self) -> int:
        """Drop every split spec; returns how many were open.

        Fires the :meth:`on_heal` hooks for each dropped spec so higher
        layers (the merge runtime) can start anti-entropy bookkeeping at
        the moment connectivity returns.
        """
        healed = self._splits
        self._splits = []
        for spec in healed:
            spec.healed = True
            if spec.in_flight == "cut":
                self.in_flight_cuts -= 1
        for spec in healed:
            for hook in self._heal_hooks:
                hook(spec)
        return len(healed)

    # ------------------------------------------------------------------
    # the decision hook
    # ------------------------------------------------------------------
    def decide(self, message: Message, now: float) -> FaultDecision:
        """Fate of one message sent at virtual time ``now``."""
        self.decisions += 1
        if message.sender in self._crashed:
            return self._drop("crashed_sender")
        if message.recipient in self._crashed:
            return self._drop("crashed_recipient")
        if self._splits:
            # Prune expired windows first: decide() sits on the per-message
            # hot path, and the virtual clock never goes backwards.
            expired = [spec for spec in self._splits if spec.end <= now]
            if expired:
                for spec in expired:
                    if spec.in_flight == "cut":
                        self.in_flight_cuts -= 1
                self._splits = [spec for spec in self._splits
                                if spec.end > now]
            for spec in self._splits:
                if spec.active(now) and spec.separates(message.sender,
                                                       message.recipient):
                    return self._drop("partition")
        if self.loss_probability > 0.0 and self._rng.uniform() < self.loss_probability:
            return self._drop("loss")
        if self.delay_probability > 0.0 and self._rng.uniform() < self.delay_probability:
            low, high = self.delay_range
            return FaultDecision(deliver=True, reason="delayed",
                                 extra_delay=self._rng.uniform(low, high))
        return _DELIVER

    def cuts_in_flight(self, message: Message, delivery_time: float) -> bool:
        """Delivery-time check for ``in_flight="cut"`` windows.

        Called by the network *after* the send-time :meth:`decide` said
        deliver, with the computed delivery timestamp: a cross-side
        message landing inside a cut-mode window is dropped even though
        it was sent before the window opened.  Only consulted while
        :attr:`in_flight_cuts` is non-zero, keeping the default
        (send-time-only) semantics free on the hot path.
        """
        for spec in self._splits:
            if (spec.in_flight == "cut" and spec.active(delivery_time)
                    and spec.separates(message.sender, message.recipient)):
                self._drop("partition_in_flight")
                return True
        return False

    def _drop(self, reason: str) -> FaultDecision:
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        return FaultDecision(deliver=False, reason=reason)


# ----------------------------------------------------------------------
# protocol-mode crash injection
# ----------------------------------------------------------------------
class ProtocolCrashInjector:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Abruptly removes objects from a message-level overlay.

    The substrate semantics mirror the oracle-mode
    :class:`~repro.simulation.failures.CrashInjector` exactly: the shared
    kernel, the locate grid and the network handler table forget the victim
    (the hosting infrastructure notices the peer vanished), and the fault
    plane starts dropping any traffic addressed to it — but none of the
    Section 3.3 hand-overs run, so every surviving local view that
    referenced the victim is left stale.  :meth:`assess_damage` quantifies
    the wreckage in the same :class:`CrashDamageReport` terms the oracle
    injector uses, which is what the protocol-vs-oracle parity tests pin.
    """

    def __init__(self, simulator: ProtocolSimulator,
                 rng: Optional[RandomSource] = None) -> None:
        self._simulator = simulator
        if simulator.network.faults is None:
            simulator.network.faults = FaultPlane()
        # Interactive/standalone default; experiments pass a seeded stream.
        self._rng = rng if rng is not None else RandomSource()  # simlint: ignore[SIM002]
        self._crashed: List[int] = []

    @property
    def crashed(self) -> List[int]:
        """Ids crashed so far, in crash order."""
        return list(self._crashed)

    def crash_random(self, count: int) -> List[int]:
        """Crash ``count`` uniformly random objects; returns their ids."""
        victims: List[int] = []
        for _ in range(count):
            ids = self._simulator.object_ids()
            if len(ids) <= 3:
                break
            victim = ids[self._rng.integer(0, len(ids))]
            self.crash(victim)
            victims.append(victim)
        return victims

    def crash(self, object_id: int) -> None:
        """Crash one object: substrate repaired, protocol hand-overs skipped.

        Safe at *any* message index: a victim caught mid-join may not be
        carved into the kernel yet, and one caught mid-leave has already
        withdrawn its region — the kernel removal is therefore conditional
        on the victim actually backing a vertex.  Multi-message operations
        the victim was driving are closed out (their watchdogs cancelled);
        a join still pending surfaces as a ``timed_out`` outcome on the
        caller's :class:`~repro.simulation.protocol.JoinReport` instead of
        leaking silently with the victim's starter state.
        """
        simulator = self._simulator
        if object_id not in simulator.nodes:
            raise KeyError(f"unknown object {object_id}")
        node = simulator.nodes[object_id]
        simulator.network.faults.crash(object_id)
        if simulator.kernel.vertex_at(node.position) == object_id:
            simulator.kernel.remove(object_id)
        simulator.locate.discard(object_id)
        simulator.network.unregister(object_id)
        del simulator.nodes[object_id]
        for kind, owner in simulator.pending_operations():
            if owner != object_id:
                continue
            simulator.finish_operation((kind, owner))
            if kind == "join":
                simulator._join_outcomes[object_id] = "timed_out"
        self._crashed.append(object_id)
        simulator.trace.record(simulator.engine.now, "crash",
                               object_id=object_id)
        simulator.metrics.increment("crashes")

    def assess_damage(self) -> CrashDamageReport:
        """Count stale references the crashes left in surviving views."""
        return crash_damage(protocol_references(self._simulator.nodes),
                            self._crashed)


# ----------------------------------------------------------------------
# heartbeat failure detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HeartbeatConfig:
    """Parameters of the liveness subsystem.

    The defaults probe every reference every round; ``piggyback`` plus
    ``sample_fraction`` is the cheaper steady-state policy
    (``BENCH_protocol_churn`` records its message reduction):

    Attributes
    ----------
    interval:
        Spacing of clock-driven rounds, and the detector's notion of "one
        round" for bookkeeping.
    miss_threshold:
        Consecutive unanswered rounds before a peer is suspected.
    piggyback:
        Piggy-back freshness on ordinary protocol traffic: every delivered
        message counts as proof of life for its sender (and exonerates a
        suspected one), peers heard from within the last ``miss_threshold``
        rounds are not probed at all — evidence that recent cannot support
        a suspicion anyway — and a ``PONG`` is suppressed when the
        recipient's own ``PING`` of the same round is already in flight to
        the sender (crossed probes prove liveness both ways).  On an idle
        overlay probing therefore alternates instead of firing every
        round; on a busy one, edges carrying traffic are never probed.
        Worst-case detection latency grows by the freshness window:
        ``2 · miss_threshold`` rounds instead of ``miss_threshold``.
    sample_fraction:
        Fraction of *long-link/back-link* edges probed per round (Voronoi
        and close neighbours — the structural core — are always probed).
        Sampled edges are probed on a deterministic per-edge stride of
        period ``round(1 / sample_fraction)``, so every edge is covered
        once per period and worst-case detection latency for a dangling
        long link grows by one period.  A peer with a missed heartbeat or
        on the suspect list is always probed, so suspicion in progress
        resolves at full speed.
    """

    interval: float = 8.0
    miss_threshold: int = 2
    piggyback: bool = False
    sample_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive, got {self.interval}")
        if self.miss_threshold < 1:
            raise ValueError(
                f"miss_threshold must be >= 1, got {self.miss_threshold}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}")

    @property
    def sample_period(self) -> int:
        """Stride (in rounds) between probes of one sampled edge."""
        return max(1, int(round(1.0 / self.sample_fraction)))


class HeartbeatDetector:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Periodic ``PING``/``PONG`` probing with per-node suspect lists.

    In the default full-probe configuration every live node probes its
    full reference set (:meth:`ProtocolNode.monitored_peers
    <repro.simulation.protocol.ProtocolNode.monitored_peers>`) each round;
    a peer that misses ``miss_threshold`` consecutive rounds is added to
    the prober's local suspect list.  A :class:`HeartbeatConfig` with
    ``piggyback`` and/or ``sample_fraction`` set trades bounded extra
    detection latency for an order-of-magnitude cheaper steady state (see
    the config docstring).  Two driving modes:

    * :meth:`run_round` — synchronous: send the probes, drain the engine,
      sweep the answers.  The repair protocol and the churn harness drive
      detection this way for bounded, countable rounds.
    * :meth:`start` — clock-driven: rounds are scheduled every ``interval``
      on the virtual clock (each tick sweeps the previous round before
      probing), composing with other scheduled activity such as churn or
      partition windows; :meth:`stop` cancels the remaining ticks.
    """

    #: Multiplier on ``object_id``/``peer`` in the deterministic stride
    #: phase of sampled edges (two odd constants decorrelate the two ids).
    _PHASE_A = 2654435761
    _PHASE_B = 40503

    def __init__(self, simulator: ProtocolSimulator,
                 config: Optional[HeartbeatConfig] = None) -> None:
        if config is None:
            config = HeartbeatConfig()
        self.simulator = simulator
        self.config = config
        self.interval = config.interval
        self.miss_threshold = config.miss_threshold
        self.rounds_run = 0
        self._round = 0
        self._outstanding: Dict[int, Set[int]] = {}
        self._scheduled: List = []
        #: Virtual start times of the last two rounds ([-1] is the current
        #: round's; the sweep treats contact during the round as an answer).
        self._round_starts: List[float] = []
        #: Piggyback bookkeeping: round at which each (prober, peer) edge
        #: was last observed fresh.  Freshness is aged in *rounds*, not
        #: virtual time — synchronous rounds on an idle overlay do not
        #: advance the clock, so a time-based window would freeze and a
        #: crash on a quiet overlay would never be probed again.
        self._fresh_round: Dict[Tuple[int, int], int] = {}
        self._era: Optional[int] = None
        if config.piggyback:
            # Stays on for the simulator's lifetime (the measurement
            # harness restores it explicitly); the era keeps this
            # detector's probe bookkeeping from ever being confused with
            # an earlier detector's.
            simulator.piggyback_liveness = True
            simulator.liveness_eras += 1
            self._era = simulator.liveness_eras

    # ------------------------------------------------------------------
    def _edge_due(self, object_id: int, peer: int, period: int) -> bool:
        """Whether the sampled edge ``object_id → peer`` probes this round."""
        phase = (object_id * self._PHASE_A + peer * self._PHASE_B) % period
        return (self._round + phase) % period == 0

    def _send_pings(self) -> int:
        simulator = self.simulator
        config = self.config
        self._round += 1
        self._round_starts.append(simulator.engine.now)
        del self._round_starts[:-2]
        self._outstanding = {}
        pings = 0
        piggyback = config.piggyback
        period = config.sample_period
        threshold = config.miss_threshold
        current_round = self._round
        # Contact strictly after the previous round began re-marks an edge
        # fresh (strict: with a frozen clock the previous round's start
        # equals the old contact timestamp, which must *not* count again).
        previous_start = (self._round_starts[-2]
                          if len(self._round_starts) >= 2 else None)
        fresh_rounds = self._fresh_round
        for object_id, node in list(simulator.nodes.items()):
            peers = node.monitored_peers()
            if not peers:
                continue
            if period > 1:
                core = set(node.voronoi)
                core.update(node.close)
            missed = node.missed_heartbeats
            suspects = node.suspects
            last_contact = node.last_contact
            probed: Set[int] = set()
            for peer in sorted(peers):
                if peer not in suspects and not missed.get(peer, 0):
                    if piggyback:
                        contact = last_contact.get(peer)
                        if (contact is not None and previous_start is not None
                                and contact > previous_start):
                            # Heard since last round began: fresh now, and
                            # for the next miss_threshold rounds.
                            fresh_rounds[(object_id, peer)] = current_round
                            continue
                        fresh = fresh_rounds.get((object_id, peer))
                        if (fresh is not None
                                and current_round - fresh < threshold):
                            continue  # within the freshness window
                    if (period > 1 and peer not in core
                            and not self._edge_due(object_id, peer, period)):
                        continue  # sampled long/back edge, off-stride round
                probed.add(peer)
                if piggyback:
                    node.last_ping_round[peer] = (self._era, current_round)
                    simulator.send(node, peer, "PING",
                                   {"round": current_round, "era": self._era})
                else:
                    simulator.send(node, peer, "PING", {"round": current_round})
                pings += 1
            if probed:
                self._outstanding[object_id] = probed
        return pings

    def _sweep(self) -> List[Tuple[int, int]]:
        """Settle the previous round; returns newly created (prober, suspect)."""
        simulator = self.simulator
        piggyback = self.config.piggyback
        round_started = self._round_starts[-1] if self._round_starts else -math.inf
        new_suspects: List[Tuple[int, int]] = []
        for object_id, peers in self._outstanding.items():
            node = simulator.nodes.get(object_id)
            if node is None:  # the prober itself crashed mid-round
                continue
            for peer in sorted(peers):
                if node.last_heard.get(peer) == self._round:
                    continue
                if (piggyback
                        and node.last_contact.get(peer, -math.inf) >= round_started):
                    continue  # any message during the round is an answer
                misses = node.missed_heartbeats.get(peer, 0) + 1
                node.missed_heartbeats[peer] = misses
                if misses >= self.miss_threshold and peer not in node.suspects:
                    node.suspects.add(peer)
                    node.apply_suspicion({peer})
                    new_suspects.append((object_id, peer))
                    simulator.trace.record(simulator.engine.now, "suspect",
                                           prober=object_id, suspect=peer)
        self._outstanding = {}
        self.rounds_run += 1
        return new_suspects

    # ------------------------------------------------------------------
    def run_round(self) -> List[Tuple[int, int]]:
        """One synchronous round: probe, drain, sweep.

        Returns the (prober, suspect) pairs created by this round.
        """
        self._send_pings()
        self.simulator.engine.run_until_quiescent()
        return self._sweep()

    def run_rounds(self, count: int) -> List[Tuple[int, int]]:
        """Run ``count`` synchronous rounds; returns all new suspicions."""
        created: List[Tuple[int, int]] = []
        for _ in range(count):
            created.extend(self.run_round())
        return created

    def all_suspected(self, gone: Callable[[int, int], bool]) -> bool:
        """Does every live node suspect each monitored peer it holds that is gone?

        ``gone(holder, peer)`` names the peers detection must find: crashed
        ids, or ids across a split from ``holder``.
        """
        for object_id, node in self.simulator.nodes.items():
            suspects = node.suspects
            for peer in node.monitored_peers():
                if peer not in suspects and gone(object_id, peer):
                    return False
        return True

    def detect(self, max_rounds: int, gone: Callable[[int, int], bool]) -> int:
        """Run rounds until every gone reference is suspected; returns the count.

        At least ``miss_threshold`` rounds run (no suspicion can form
        sooner) and at most ``max_rounds``.
        """
        rounds = 0
        while rounds < max_rounds:
            self.run_round()
            rounds += 1
            if rounds >= self.miss_threshold and self.all_suspected(gone):
                break
        return rounds

    # ------------------------------------------------------------------
    def start(self, duration: float) -> int:
        """Schedule clock-driven rounds over the next ``duration`` time units.

        Returns the number of ticks scheduled.  The caller drives the
        engine (``engine.run()`` or ``run_until``); each tick sweeps the
        round before it, and a trailing tick settles the final round.
        """
        engine = self.simulator.engine
        ticks = int(duration / self.interval)
        for index in range(1, ticks + 1):
            event = engine.schedule(index * self.interval, self._tick,
                                    label="heartbeat")
            self._scheduled.append(event)
        # The trailing sweep: answers to the final round's probes arrive
        # within a latency, long before another full interval elapses.
        event = engine.schedule((ticks + 1) * self.interval, self._sweep,
                                label="heartbeat-final")
        self._scheduled.append(event)
        return ticks

    def _tick(self) -> None:
        if self._outstanding:
            self._sweep()
        self._send_pings()

    def stop(self) -> int:
        """Cancel every scheduled tick still pending; returns how many."""
        engine = self.simulator.engine
        cancelled = 0
        for event in self._scheduled:
            if not event.cancelled and event.time > engine.now:
                cancelled += 1
            event.cancel()
        self._scheduled.clear()
        return cancelled

    # ------------------------------------------------------------------
    def suspected(self) -> Dict[int, Set[int]]:
        """Current per-node suspect lists (non-empty ones only)."""
        return {object_id: set(node.suspects)
                for object_id, node in self.simulator.nodes.items()
                if node.suspects}


# ----------------------------------------------------------------------
# the repair protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RepairReport:
    """Outcome of a repair session."""

    rounds: int
    converged: bool
    suspects_processed: int
    reissued_long_links: int
    phase_messages: Dict[str, int] = field(default_factory=dict)
    residual_suspects: int = 0


class RepairProtocol:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Heals surviving views after crashes, in phased message rounds.

    One :meth:`repair_round` runs five drained phases — ``probe`` (every
    suspect receives direct ``PING``s from its suspecter; a live suspect's
    ``PONG`` exonerates it *before* any destructive phase acts on the
    suspicion, which is what keeps lossy heartbeats from amputating live
    nodes), ``notify`` (suspicion gossip to the local neighbourhood; the
    handler scrubs close entries and dangling back registrations),
    ``scrub`` (version-stamped ``VIEW_SCRUB`` refreshes every Voronoi view
    that still references a suspect; the handler also hands mis-held back
    registrations one greedy step towards their owner), ``retarget``
    (dangling long links re-run the routed ``SEARCH_LONG_LINK``) and
    ``close`` (locate-grid-seeded close re-discovery, restoring entries
    dropped on false suspicion) — then garbage-collects suspect entries
    that no local reference supports any more.

    :meth:`repair` iterates rounds until every suspect list drains and a
    final long-link audit (the same kernel consultation ``bulk_join``'s
    hand-over phase uses) finds every link pointing at its target's true
    owner, or ``max_rounds`` is exhausted.  Because nodes keep a suspect
    while any stale reference survives, rounds are idempotent and
    retry-safe under message loss.
    """

    PHASES = ("probe", "notify", "scrub", "retarget", "close", "audit")

    #: Direct probes per suspect in the exoneration phase; with loss
    #: probability ``p`` a live suspect survives all of them (and is
    #: wrongly repaired around) with probability ``(1 - (1-p)²)^PROBES`` —
    #: the final audit phase settles those stragglers.
    PROBES_PER_SUSPECT = 2

    def __init__(self, simulator: ProtocolSimulator, *,
                 detector: Optional[HeartbeatDetector] = None,
                 max_rounds: int = 8,
                 scope: Optional[Set[int]] = None) -> None:
        self.simulator = simulator
        self.detector = detector if detector is not None \
            else HeartbeatDetector(simulator)
        self.max_rounds = max_rounds
        #: Optional id set this repairer confines itself to.  A scoped
        #: repairer (one side of a network split healing against its own
        #: kernel fork) only probes, scrubs, retargets and audits members
        #: of the scope; unscoped behaviour is byte-identical to before
        #: the parameter existed.
        self.scope = frozenset(scope) if scope is not None else None
        self._reissued = 0
        self._reissue_attempts: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    def _members(self) -> List[int]:
        """Live ids this repairer is responsible for, in id order."""
        nodes = self.simulator.nodes
        if self.scope is None:
            return sorted(nodes)
        return sorted(object_id for object_id in self.scope
                      if object_id in nodes)

    def _holders(self) -> List[int]:
        """Live in-scope nodes with a non-empty suspect list, in id order."""
        nodes = self.simulator.nodes
        return [object_id for object_id in self._members()
                if nodes[object_id].suspects]

    def repair_round(self) -> Optional[Dict[str, int]]:
        """Run one phased repair round; ``None`` when nothing is suspected."""
        simulator = self.simulator
        network = simulator.network
        members = self._members()
        holders = self._holders()
        rehabilitation_pending = any(simulator.nodes[object_id].rehabilitated
                                     for object_id in members)
        if not holders and not rehabilitation_pending:
            return None
        phase_messages: Dict[str, int] = {}

        # ---- probe: give every suspect a chance to exonerate itself -----
        # Heartbeat rounds under message loss routinely cross the miss
        # threshold for live peers; acting on such a suspicion would repair
        # *around* a healthy node.  Direct probes first: a live suspect's
        # PONG clears the suspicion (and its miss counter) before any
        # destructive phase runs.
        if holders:
            before = network.messages_sent
            for object_id in holders:
                node = simulator.nodes.get(object_id)
                if node is None:
                    continue
                for suspect in sorted(node.suspects):
                    for _ in range(self.PROBES_PER_SUSPECT):
                        simulator.send(node, suspect, "PING", {"round": 0})
            simulator.engine.run_until_quiescent()
            phase_messages["probe"] = network.messages_sent - before
            holders = self._holders()

        suspected = sorted(set().union(set(), *(
            simulator.nodes[object_id].suspects for object_id in holders)))
        suspected_set = set(suspected)

        if holders:
            # ---- notify: gossip suspicion to the local neighbourhood ----
            before = network.messages_sent
            for object_id in holders:
                node = simulator.nodes.get(object_id)
                if node is None:
                    continue
                recipients = sorted((set(node.voronoi) | set(node.close))
                                    - node.suspects - {object_id})
                payload = {"suspects": sorted(node.suspects)}
                for recipient in recipients:
                    simulator.send(node, recipient, "SUSPECT_NOTIFY", payload)
            simulator.engine.run_until_quiescent()
            phase_messages["notify"] = network.messages_sent - before

            # ---- scrub: refresh Voronoi views referencing a suspect -----
            # The sender — a node that detected the crash — plays the role
            # the departing node plays in Section 3.3: it consults its
            # local topologically consistent Voronoi computation (the
            # shared kernel, exactly as AddVoronoiRegion does) and
            # distributes version-stamped views to the wounded survivors.
            before = network.messages_sent
            kernel = simulator.kernel
            degenerate = len(kernel) <= 8 or not kernel.has_triangulation
            if degenerate:
                affected = [object_id for object_id in members
                            if object_id in kernel]
            else:
                affected = [object_id for object_id in members
                            if object_id in kernel
                            and suspected_set
                            & set(simulator.nodes[object_id].voronoi)]
            version = kernel.version
            for object_id in affected:
                if object_id not in simulator.nodes:
                    continue  # crashed while this phase was being sent
                sender_id = next((h for h in holders
                                  if h != object_id and h in simulator.nodes),
                                 object_id)
                view = {nid: kernel.point(nid)
                        for nid in kernel.neighbors(object_id)}
                simulator.send(simulator.nodes[sender_id], object_id,
                               "VIEW_SCRUB",
                               {"voronoi": view, "version": version,
                                "crashed": suspected})
            simulator.engine.run_until_quiescent()
            phase_messages["scrub"] = network.messages_sent - before

            # ---- retarget: dangling long links re-run the routed search -
            # First attempt per link routes from the requester (the join
            # protocol's own walk); a retry — the previous attempt lost a
            # hop or its reply to the fault plane — escalates to a
            # locate-grid seed next to the target, so each further attempt
            # needs only O(1) deliveries to land.
            before = network.messages_sent
            reissued = 0
            for object_id in members:
                node = simulator.nodes.get(object_id)
                if node is None:
                    continue  # crashed while this phase was being sent
                for index, link in enumerate(node.long_links):
                    if link.neighbor in node.suspects:
                        key = (object_id, index)
                        attempts = self._reissue_attempts.get(key, 0)
                        seed = (None if attempts == 0
                                else simulator.locate.hint(link.target))
                        node.reissue_long_link(index, seed=seed)
                        self._reissue_attempts[key] = attempts + 1
                        reissued += 1
            simulator.engine.run_until_quiescent()
            phase_messages["retarget"] = network.messages_sent - before
            self._reissued += reissued

        # ---- close: grid-seeded re-discovery (false-suspicion healing) --
        # Covers exonerated suspects too: suspicion scrubbed their close
        # entry destructively, and by now the probe phase has already
        # emptied the suspect list that would otherwise select the node.
        before = network.messages_sent
        d_min = simulator.config.effective_d_min
        for object_id in members:
            node = simulator.nodes.get(object_id)
            if node is None:
                continue  # crashed while this phase was being sent
            if not node.suspects and not node.rehabilitated:
                continue
            node.rehabilitated.clear()
            found = False
            for close_id in simulator.locate.within(node.position, d_min):
                if (close_id == object_id or close_id in node.close
                        or close_id not in simulator.nodes):
                    continue
                node.close[close_id] = simulator.nodes[close_id].position
                found = True
                simulator.send(node, close_id, "CLOSE_DECLARE",
                               {"position": node.position})
            if found:
                node.touch_view()
        simulator.engine.run_until_quiescent()
        phase_messages["close"] = network.messages_sent - before

        # ---- GC: drop suspicion no surviving reference supports ---------
        for object_id in members:
            node = simulator.nodes.get(object_id)
            if node is not None:
                node.gc_suspects()
        simulator.trace.record(simulator.engine.now, "repair_round",
                               suspects=len(suspected),
                               messages=sum(phase_messages.values()))
        return phase_messages

    # ------------------------------------------------------------------
    def _audit_long_links(self) -> List[Tuple[int, int]]:
        """(object_id, link_index) pairs not pointing at their target's owner.

        The same kernel consultation ``bulk_join``'s hand-over phase uses
        to settle registrations — the simulator standing in for the
        owner-side audit a deployment would run periodically.
        """
        simulator = self.simulator
        wrong: List[Tuple[int, int]] = []
        for object_id in self._members():
            node = simulator.nodes[object_id]
            for index, link in enumerate(node.long_links):
                if (link.neighbor not in simulator.nodes
                        or link.neighbor not in simulator.kernel):
                    # Dead endpoint — or one outside this repairer's
                    # kernel (a cross-side link under a scoped, split-era
                    # repair): either way the link cannot stand.
                    wrong.append((object_id, index))
                    continue
                owner = simulator.kernel.nearest_vertex(link.target,
                                                        hint=link.neighbor)
                if owner != link.neighbor:
                    wrong.append((object_id, index))
        return wrong

    def _audit_dead_references(self) -> List[Tuple[int, Set[int]]]:
        """(holder, dead peers) for close/back entries serving departed nodes.

        A crash that lands *mid-repair* — after the detection sweep and
        the suspicion-driven scrubbing — can leave close entries and back
        registrations pointing at the victim with no surviving suspicion
        to blame: heartbeats have stopped, so nothing re-suspects a peer
        nobody probes anymore.  Long links of that shape are caught by
        :meth:`_audit_long_links` and stale Voronoi views by
        :meth:`_audit_views`; this pass completes the audit for the two
        reference kinds those do not cover.
        """
        simulator = self.simulator
        scope = self.scope
        stale: List[Tuple[int, Set[int]]] = []
        for object_id in self._members():
            node = simulator.nodes[object_id]
            # Under a scoped (split-era) repair, peers outside the scope
            # are presumed dead by this side even though their node
            # objects survive on the other side of the cut.
            dead = {peer for peer in node.close
                    if peer not in simulator.nodes
                    or (scope is not None and peer not in scope)}
            dead.update(source for source, _index in node.back_links
                        if source not in simulator.nodes
                        or (scope is not None and source not in scope))
            if dead:
                stale.append((object_id, dead))
        return stale

    def _audit_views(self) -> List[int]:
        """Ids whose local Voronoi view disagrees with the shared kernel.

        A view can go stale with *no* suspect involved: a consolidated
        ``REGION_UPDATE`` (or its sender) fed a crash mid-``bulk_join`` or
        mid-churn, so the recipient never heard about a live neighbour.
        Suspicion-driven scrubbing cannot reach those — nothing in the
        view points at a dead node — so convergence needs this explicit
        anti-entropy pass over the same kernel consultation the scrub
        phase uses.
        """
        simulator = self.simulator
        kernel = simulator.kernel
        return [object_id for object_id in self._members()
                if object_id in kernel
                and set(simulator.nodes[object_id].voronoi)
                != set(kernel.neighbors(object_id))]

    def repair(self, max_rounds: Optional[int] = None) -> RepairReport:
        """Iterate repair rounds until the overlay converges (or the cap)."""
        simulator = self.simulator
        cap = max_rounds if max_rounds is not None else self.max_rounds
        totals: Dict[str, int] = {}
        processed: Set[int] = set()
        self._reissued = 0
        self._reissue_attempts = {}
        rounds = 0
        converged = False
        while rounds < cap:
            for object_id in self._members():
                processed.update(simulator.nodes[object_id].suspects)
            result = self.repair_round()
            if result is None:
                wrong = self._audit_long_links()
                stale_views = self._audit_views()
                dead_refs = self._audit_dead_references()
                if not wrong and not stale_views and not dead_refs:
                    converged = True
                    break
                # References serving a departed peer (a crash that landed
                # mid-repair, past the suspicion machinery): the same
                # local scrub suspicion would have applied, message-free.
                for object_id, dead in dead_refs:
                    node = simulator.nodes.get(object_id)
                    if node is None:
                        continue  # crashed while this pass was being sent
                    node.apply_suspicion(dead)
                before = simulator.network.messages_sent
                # Stale views (a lost snapshot with no suspect to blame):
                # re-send the version-stamped kernel truth — the same
                # VIEW_SCRUB the scrub phase uses, with nothing to scrub.
                version = simulator.kernel.version
                for object_id in stale_views:
                    node = simulator.nodes.get(object_id)
                    if node is None:
                        continue  # crashed while this pass was being sent
                    view = {nid: simulator.kernel.point(nid)
                            for nid in simulator.kernel.neighbors(object_id)}
                    simulator.send(node, object_id, "VIEW_SCRUB",
                                   {"voronoi": view, "version": version,
                                    "crashed": []})
                # Mis-held links (repair raced a stale view): re-issue the
                # routed search for exactly those links — grid-seeded, this
                # is the settlement pass — and check again.
                for object_id, index in wrong:
                    node = simulator.nodes.get(object_id)
                    if node is None:
                        continue  # crashed while this pass was being sent
                    seed = simulator.locate.hint(node.long_links[index].target)
                    node.reissue_long_link(index, seed=seed)
                    self._reissued += 1
                simulator.engine.run_until_quiescent()
                totals["audit"] = (totals.get("audit", 0)
                                   + simulator.network.messages_sent - before)
                rounds += 1
                continue
            for phase, count in result.items():
                totals[phase] = totals.get(phase, 0) + count
            rounds += 1
        else:
            converged = (not self._holders() and not self._audit_long_links()
                         and not self._audit_views())
        residual = sum(len(simulator.nodes[object_id].suspects)
                       for object_id in self._members())
        return RepairReport(rounds=rounds, converged=converged,
                            suspects_processed=len(processed),
                            reissued_long_links=self._reissued,
                            phase_messages=totals,
                            residual_suspects=residual)


# ----------------------------------------------------------------------
# the churn + fault harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProtocolChurnReport:
    """One full churn/crash/repair experiment, with per-phase accounting.

    ``steady_state_liveness`` (present when the harness was asked to
    measure it) compares the liveness message cost of heartbeat rounds
    over the healthy overlay under the full-probe baseline and under
    piggy-backed/sampled probing — the steady-state overhead the ROADMAP
    flags, measured on the same population and query traffic.
    """

    objects_built: int
    churn_joins: int
    churn_leaves: int
    crashed: int
    damage: CrashDamageReport
    residual_damage: CrashDamageReport
    detection_rounds: int
    repair: RepairReport
    phase_messages: Dict[str, int]
    verify_problems: int
    converged: bool
    virtual_time: float
    steady_state_liveness: Optional[Dict[str, float]] = None


class ProtocolChurnHarness:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Wires bulk construction, churn, crashes, detection and repair.

    The experiment is reproducible from its seed: the population layout,
    the merged churn arrival process, the crash victims and every fault
    decision derive from seeded random sources, and all activity runs on
    the virtual clock.  ``loss_probability`` applies during the detection
    and repair phases (where retry-safety absorbs it), not during
    construction and churn, whose operations assume reliable delivery —
    the same assumption the paper's join/leave protocols make.

    Churn is scheduled through :class:`ChurnScheduler`.  A scheduled
    join/leave drains the engine re-entrantly (``ProtocolSimulator.join``
    runs its operation to quiescence), which would both nest Python frames
    unboundedly and let a nested leave pick a victim whose departure is
    still in flight — so the harness *defers* churn actions through a
    queue: the scheduled event only enqueues the operation, and the
    outermost action executes the queue sequentially in arrival order.
    """

    _CHURN_WINDOW_EVENTS = 24
    #: Long/back-link probe fraction of the piggy-backed liveness phase.
    _LIVENESS_SAMPLE_FRACTION = 0.25

    def __init__(self, *, num_objects: int = 1000, seed: int = 7,
                 num_long_links: int = 1,
                 churn_events: int = 48,
                 join_rate: float = 2.0, leave_rate: float = 1.0,
                 crash_fraction: float = 0.1,
                 loss_probability: float = 0.0,
                 heartbeat: Optional[HeartbeatConfig] = None,
                 max_detection_rounds: int = 8,
                 max_repair_rounds: int = 8,
                 measure_liveness: bool = False,
                 liveness_rounds: int = 4,
                 liveness_queries: int = 25,
                 distribution: Optional[ObjectDistribution] = None,
                 trace: Optional["TraceRecorder"] = None) -> None:
        if not 0.0 <= crash_fraction < 1.0:
            raise ValueError(f"crash_fraction must be in [0, 1), got {crash_fraction}")
        self.num_objects = num_objects
        self.seed = seed
        self.churn_events = churn_events
        self.join_rate = join_rate
        self.leave_rate = leave_rate
        self.crash_fraction = crash_fraction
        self.loss_probability = loss_probability
        self.max_detection_rounds = max_detection_rounds
        self.max_repair_rounds = max_repair_rounds
        self.measure_liveness = measure_liveness
        self.liveness_rounds = liveness_rounds
        self.liveness_queries = liveness_queries
        self.distribution = distribution or UniformDistribution()
        capacity = 4 * (num_objects + churn_events + 8)
        self.config = VoroNetConfig(n_max=capacity,
                                    num_long_links=num_long_links, seed=seed)
        self.faults = FaultPlane(seed=seed + 1)
        self.simulator = ProtocolSimulator(self.config, seed=seed,
                                           faults=self.faults, trace=trace)
        self.rng = RandomSource(seed + 2)
        if heartbeat is None:
            heartbeat = HeartbeatConfig()
        self.heartbeat_config = heartbeat
        self.detector = HeartbeatDetector(self.simulator, config=heartbeat)
        self.repairer = RepairProtocol(self.simulator, detector=self.detector,
                                       max_rounds=max_repair_rounds)
        self.injector = ProtocolCrashInjector(self.simulator, rng=self.rng)
        self.scheduler: Optional[ChurnScheduler] = None
        self._pending_ops: List[Tuple[str, Optional[Tuple[float, float]]]] = []
        self._draining = False
        self._churn_joins = 0
        self._churn_leaves = 0
        self._churn_skipped = 0

    # ------------------------------------------------------------------
    def _churn_done(self) -> bool:
        # Skipped leaves (population guard) still consume an arrival, so
        # termination stays exact even when the overlay is tiny; only
        # genuinely executed operations are *reported*.
        return (self._churn_joins + self._churn_leaves
                + self._churn_skipped >= self.churn_events)

    def _enqueue_join(self, position) -> None:
        if self._churn_done():
            return
        self._pending_ops.append(("join", position))
        self._drain_ops()

    def _enqueue_leave(self) -> None:
        if self._churn_done():
            return
        self._pending_ops.append(("leave", None))
        self._drain_ops()

    def _drain_ops(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._pending_ops:
                # Re-check at execution time: events firing inside a
                # nested engine drain enqueue against stale counts.
                if self._churn_done():
                    self._pending_ops.clear()
                    break
                kind, position = self._pending_ops.pop(0)
                if kind == "join":
                    self.simulator.join(position)
                    self._churn_joins += 1
                else:
                    ids = self.simulator.object_ids()
                    if len(ids) > 8:
                        victim = ids[self.rng.integer(0, len(ids))]
                        self.simulator.leave(victim)
                        self._churn_leaves += 1
                    else:
                        self._churn_skipped += 1
        finally:
            self._draining = False

    def _run_churn(self) -> Tuple[int, int]:
        if self.churn_events <= 0:
            return 0, 0
        scheduler = ChurnScheduler(
            self.simulator.engine,
            join=self._enqueue_join,
            leave=self._enqueue_leave,
            join_rate=self.join_rate, leave_rate=self.leave_rate,
            distribution=self.distribution,
            rng=RandomSource(self.seed + 4),
        )
        self.scheduler = scheduler
        # Arrivals beyond the requested event count are dropped by the
        # enqueue guards (and any still pending are cancelled below), so
        # exactly ``churn_events`` operations execute — the reported
        # counts and phase accounting match the parameter.
        window = self._CHURN_WINDOW_EVENTS / (self.join_rate + self.leave_rate)
        for _ in range(4 * self.churn_events):
            if self._churn_done():
                break
            scheduler.start(window)
            self.simulator.engine.run()
        scheduler.stop()
        return self._churn_joins, self._churn_leaves

    def _reset_liveness_bookkeeping(self) -> None:
        """Clear per-node heartbeat state between liveness measurements."""
        for node in self.simulator.nodes.values():
            node.last_heard.clear()
            node.missed_heartbeats.clear()
            node.last_contact.clear()
            node.last_ping_round.clear()

    def measure_steady_state_liveness(self) -> Dict[str, float]:
        """Liveness message cost over the healthy overlay, both ways.

        Runs ``liveness_rounds`` synchronous heartbeat rounds twice over
        the current (healthy, loss-free) population — once with the
        full-probe baseline and once with piggy-backed freshness plus
        long-link sampling — interleaving ``liveness_queries`` routed
        point queries per round as the "ordinary protocol traffic" the
        piggyback mode feeds on (both phases issue the same queries from
        the same seeded stream, so the comparison is apples to apples).
        Each phase is preceded by one uncounted warm-up round: steady
        state is what's being measured, not the cold start.  Returns the
        PING/PONG counts of both phases and their ratio.
        """
        simulator = self.simulator
        rounds = self.liveness_rounds
        per_round = self.liveness_queries
        query_rng = RandomSource(self.seed + 9)
        # One target batch per (warm-up + measured) round, shared by both
        # phases so routed traffic is identical.
        target_batches = [[query_rng.random_point() for _ in range(per_round)]
                          for _ in range(rounds + 1)]

        def liveness_messages() -> int:
            kinds = simulator.network.sent_by_kind
            return kinds.get("PING", 0) + kinds.get("PONG", 0)

        def run_phase(config: HeartbeatConfig) -> int:
            detector = HeartbeatDetector(simulator, config=config)
            for target in target_batches[0]:  # warm-up round (uncounted)
                simulator.query(target)
            detector.run_round()
            before = liveness_messages()
            for batch in target_batches[1:]:
                for target in batch:
                    simulator.query(target)
                detector.run_round()
            return liveness_messages() - before

        base = HeartbeatConfig(interval=self.heartbeat_config.interval,
                               miss_threshold=self.heartbeat_config.miss_threshold)
        full_probe = run_phase(base)
        self._reset_liveness_bookkeeping()
        piggyback = run_phase(replace(
            base, piggyback=True,
            sample_fraction=self._LIVENESS_SAMPLE_FRACTION))
        self._reset_liveness_bookkeeping()
        # The measurement must not change how the experiment's own
        # detection phase behaves: restore the configured switch.
        simulator.piggyback_liveness = self.heartbeat_config.piggyback
        return {
            "rounds": float(rounds),
            "queries_per_round": float(per_round),
            "sample_fraction": self._LIVENESS_SAMPLE_FRACTION,
            "full_probe_messages": float(full_probe),
            "piggyback_messages": float(piggyback),
            # max(1, ·): a zero-message piggyback phase (degenerate tiny
            # overlay) must not put a non-JSON Infinity in bench records.
            "reduction": full_probe / max(piggyback, 1),
        }

    def _all_damage_suspected(self) -> bool:
        """Does every surviving stale reference sit on a suspect list?"""
        return self.detector.all_suspected(among_crashed(self.injector.crashed))

    # ------------------------------------------------------------------
    def run(self) -> ProtocolChurnReport:
        """Run the full experiment; every phase's messages are accounted."""
        simulator = self.simulator
        network = simulator.network
        phase_messages: Dict[str, int] = {}

        # ---- build ------------------------------------------------------
        before = network.messages_sent
        positions = generate_objects(self.distribution, self.num_objects,
                                     RandomSource(self.seed + 3))
        report = simulator.bulk_join(positions)
        phase_messages["build"] = network.messages_sent - before

        # ---- graceful churn --------------------------------------------
        before = network.messages_sent
        churn_joins, churn_leaves = self._run_churn()
        phase_messages["churn"] = network.messages_sent - before

        # ---- steady-state liveness cost (optional, pre-crash) ----------
        steady_state = None
        if self.measure_liveness:
            before = network.messages_sent
            steady_state = self.measure_steady_state_liveness()
            phase_messages["steady_state"] = network.messages_sent - before

        # ---- crash ------------------------------------------------------
        victims = self.injector.crash_random(
            int(round(self.crash_fraction * len(simulator))))
        damage = self.injector.assess_damage()

        # ---- detection --------------------------------------------------
        self.faults.set_loss(self.loss_probability)
        before = network.messages_sent
        detection_rounds = self.detector.detect(
            self.max_detection_rounds, among_crashed(self.injector.crashed))
        phase_messages["detect"] = network.messages_sent - before

        # ---- repair -----------------------------------------------------
        before = network.messages_sent
        repair = self.repairer.repair(self.max_repair_rounds)
        self.faults.set_loss(0.0)
        phase_messages["repair"] = network.messages_sent - before
        for phase, count in repair.phase_messages.items():
            phase_messages[f"repair:{phase}"] = count

        # ---- verification ----------------------------------------------
        problems = simulator.verify_views()
        residual = self.injector.assess_damage()
        converged = (repair.converged and not problems
                     and residual.total_stale_entries == 0)
        simulator.metrics.observe("repair_rounds", repair.rounds)
        simulator.metrics.observe("detection_rounds", detection_rounds)
        return ProtocolChurnReport(
            objects_built=len(report.object_ids),
            churn_joins=churn_joins, churn_leaves=churn_leaves,
            crashed=len(victims),
            damage=damage, residual_damage=residual,
            detection_rounds=detection_rounds,
            repair=repair,
            phase_messages=phase_messages,
            verify_problems=len(problems),
            converged=converged,
            virtual_time=simulator.engine.now,
            steady_state_liveness=steady_state,
        )
