"""Partition merge: split-brain service and anti-entropy reconciliation.

The fault plane can *open* clock-windowed partitions; this module is the
other half of the WAN story — what happens while the overlay is split,
and how the two (or k) diverged halves become one overlay again:

* :class:`PartitionRuntime` forks the shared substrate per side when a
  :meth:`~repro.simulation.faults.FaultPlane.split` opens: each side gets
  a deep-copied kernel with the other sides' vertices removed (its
  members presume everyone across the cut dead and recompute) and its own
  locate grid, so **both sides keep serving queries and accepting
  inserts** against their own topologically consistent tessellation.
  Split-era inserts publish side-local ids drawn from the id space every
  side believes is next — the collision the merge resolves.
* On heal, :meth:`PartitionRuntime.heal` rebuilds the union: the
  pre-split kernel absorbs every side's inserts (ascending id — the
  deterministic lowest-id rule — with coordinate-overlap losers torn
  down and re-carved ids re-assigned from the healed allocator) and its
  version is advanced past every side's fork, so the union dominates the
  kernel-version partial order.
* :class:`MergeProtocol` then runs the epidemic anti-entropy phase:
  boundary nodes of the healed cut exchange version-stamped
  ``MERGE_DIGEST`` views that flood to each node's refreshed neighbours
  (the epidemic neighbour-notify shape), exonerating split-era suspicion
  and re-running close discovery across the cut; the existing
  :class:`~repro.simulation.faults.RepairProtocol` settles long-link
  retargeting and any stragglers, until ``verify_views()`` is clean.

:class:`ProtocolMergeHarness` wires the whole scenario — split, per-side
stabilisation (a *scoped* repair against the side kernel), both-side
inserts and queries (availability measured per side and phase by
:class:`AvailabilityTracker`), heal, merge, and a final parity check
against a never-split oracle overlay built from the union — for the
test-suite and ``benchmarks/bench_partition_merge.py``.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.config import VoroNetConfig
from repro.geometry.delaunay import DelaunayTriangulation, DuplicatePointError
from repro.geometry.locate_grid import LocateGrid
from repro.geometry.point import Point
from repro.simulation.failures import (PartitionDamageReport, across_split,
                                       assess_partition_damage)
from repro.simulation.faults import (FaultPlane, HeartbeatDetector,
                                     RepairProtocol, SplitSpec)
from repro.simulation.protocol import JoinReport, ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import ObjectDistribution, UniformDistribution
from repro.workloads.generators import generate_objects

__all__ = [
    "AvailabilityTracker",
    "PartitionRuntime",
    "HealSummary",
    "MergeProtocol",
    "MergeReport",
    "ProtocolMergeHarness",
    "MergeHarnessReport",
]

#: Rounds-per-epoch stride: each merge round floods under a fresh epoch
#: (``base * stride + round``) so a second round can re-flood where the
#: first round's copies fed the fault plane, while epochs still increase
#: strictly across repeated (flapping) heals.
_EPOCH_STRIDE = 64


class _SideState:  # simlint: ignore[SIM003] — one per split side, not per message
    """One side's forked substrate while a split is open."""

    __slots__ = ("index", "members", "kernel", "locate", "inserted")

    def __init__(self, index: int, members: Set[int],
                 kernel: DelaunayTriangulation, locate: LocateGrid) -> None:
        self.index = index
        self.members = members
        self.kernel = kernel
        self.locate = locate
        #: Object ids published on this side while split, in join order —
        #: the population whose side-local published ids can collide.
        self.inserted: List[int] = []


@dataclass(frozen=True)
class HealSummary:
    """Union-rebuild accounting from one :meth:`PartitionRuntime.heal`."""

    spec: SplitSpec
    epoch: int
    union_inserts: int
    union_removals: int
    coordinate_conflicts: int
    id_collisions_resolved: int
    side_versions: Tuple[int, ...]
    union_version: int


class PartitionRuntime:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Keeps both sides of a split serving, then rebuilds the union on heal.

    The runtime owns the *substrate divergence* model: the message plane
    is already cut by the fault plane's :class:`SplitSpec`; what the
    protocol additionally needs is for each side's kernel consultations
    (``complete_insertion``, repair scrubs, locate-grid seeding) to see
    only that side's world.  :meth:`side` swaps the simulator's kernel and
    locate grid for a side's fork — the global pair is set aside
    unmutated, so :meth:`heal` can rebuild the union against the pre-split
    truth plus per-side deltas instead of reconciling two full forks.
    """

    def __init__(self, simulator: ProtocolSimulator) -> None:
        if simulator.network.faults is None:
            simulator.network.faults = FaultPlane()
        self.simulator = simulator
        self.faults: FaultPlane = simulator.network.faults
        self.spec: Optional[SplitSpec] = None
        self._sides: List[_SideState] = []
        self._global_kernel: Optional[DelaunayTriangulation] = None
        self._global_locate: Optional[LocateGrid] = None
        self._published_base = 0
        self._epoch = 0
        # Query ids far above the serving layer's range, so a runtime
        # riding on a serving simulator never collides in query_answers.
        self._query_seq = 1 << 40
        #: ``(virtual time, spec)`` for every heal the fault plane fired
        #: our hook for — the heal-hook seam ``FaultPlane.on_heal`` exists
        #: for.
        self.heal_log: List[Tuple[float, object]] = []
        self.faults.on_heal(self._note_heal)

    def _note_heal(self, spec: object) -> None:
        self.heal_log.append((self.simulator.engine.now, spec))

    # ------------------------------------------------------------------
    # split lifecycle
    # ------------------------------------------------------------------
    def open_split(self, sides: Sequence[Sequence[int]], *,
                   in_flight: str = "deliver") -> SplitSpec:
        """Open a k-way split and fork the substrate per side.

        ``sides`` must partition the live population.  Each side's kernel
        fork starts as a deep copy of the shared kernel with every other
        side's vertex removed — the removals bump the fork's version, so
        each side's scrub stamps strictly dominate the pre-split ones.
        """
        simulator = self.simulator
        if self.spec is not None:
            raise RuntimeError("a split is already open")
        if not simulator.engine.quiescent:
            raise RuntimeError("cannot open a split with messages in flight")
        assigned = set()
        for side in sides:
            assigned.update(side)
        live = set(simulator.nodes)
        if assigned != live:
            raise ValueError("split sides must partition the live population")
        spec = self.faults.split(sides, simulator.engine.now,
                                 in_flight=in_flight)
        self.spec = spec
        self._published_base = simulator._next_id
        self._global_kernel = simulator.kernel
        self._global_locate = simulator.locate
        self._sides = []
        for index, members in enumerate(spec.sides):
            kernel = copy.deepcopy(self._global_kernel)
            for other in sorted(set(kernel.vertex_ids()) - set(members)):
                kernel.remove(other)
            locate = LocateGrid()
            locate.bulk_insert(
                (object_id, simulator.nodes[object_id].position)
                for object_id in sorted(members))
            self._sides.append(_SideState(index, set(members), kernel, locate))
        return spec

    @property
    def num_sides(self) -> int:
        return len(self._sides)

    def side_members(self, index: int) -> Set[int]:
        """Current membership of one side (split-era joiners included)."""
        return set(self._sides[index].members)

    def side_inserted(self, index: int) -> List[int]:
        """Object ids published on ``index`` while the split was open."""
        return list(self._sides[index].inserted)

    @contextmanager
    def side(self, index: int) -> Iterator[_SideState]:
        """Swap the simulator's kernel/locate for one side's fork.

        Everything run under the context — joins, scoped repairs — sees
        the side's world; the previous pair is restored on exit.  The
        engine must be quiescent at the swap boundaries (an in-flight
        message delivered under the wrong kernel would consult the wrong
        tessellation).
        """
        simulator = self.simulator
        if not simulator.engine.quiescent:
            raise RuntimeError("cannot switch sides with messages in flight")
        state = self._sides[index]
        previous = (simulator.kernel, simulator.locate)
        simulator.kernel = state.kernel
        simulator.locate = state.locate
        try:
            yield state
        finally:
            simulator.kernel, simulator.locate = previous

    # ------------------------------------------------------------------
    # split-era service
    # ------------------------------------------------------------------
    def side_join(self, index: int, position: Point, *,
                  introducer: Optional[int] = None) -> JoinReport:
        """Publish an object on one side while the split is open.

        The join runs the full distributed protocol against the side's
        fork.  The new object's *published* identity is the next id in
        the side-local sequence every side believes is free (base = the
        allocator value when the split opened), which is exactly how two
        isolated halves mint colliding ids; its object id stays globally
        unique, which is what lets the heal resolve the collision
        deterministically.
        """
        state = self._sides[index]
        simulator = self.simulator
        with self.side(index):
            if introducer is None:
                live = sorted(object_id for object_id in state.members
                              if object_id in simulator.nodes)
                if not live:
                    raise RuntimeError(f"side {index} has no live members")
                introducer = live[0]
            report = simulator.join(position, introducer=introducer)
            object_id = report.object_id
            if report.outcome == "completed" and object_id in simulator.nodes:
                node = simulator.nodes[object_id]
                node.published_id = self._published_base + len(state.inserted)
                state.members.add(object_id)
                state.inserted.append(object_id)
                assert self.spec is not None
                self.spec.assign(object_id, index)
        return report

    def side_query(self, index: int, target: Point, *,
                   start: Optional[int] = None) -> Optional[Dict]:
        """Serve one query from a side; ``None`` when no answer arrived.

        Unlike :meth:`ProtocolSimulator.query` — which silently
        substitutes the start node when the walk dies — this surfaces an
        unanswered query as a miss, which is the honest availability
        signal during a split (a walk whose next hop crosses the cut
        feeds the fault plane and never answers).
        """
        state = self._sides[index]
        simulator = self.simulator
        live = sorted(object_id for object_id in state.members
                      if object_id in simulator.nodes)
        if start is None:
            if not live:
                return None
            start = live[0]
        query_id = self._query_seq
        self._query_seq += 1
        simulator.start_query(target, start=start, query_id=query_id)
        simulator.engine.run()
        return simulator.query_answers.pop(query_id, None)

    # ------------------------------------------------------------------
    # heal: union rebuild
    # ------------------------------------------------------------------
    def heal(self) -> HealSummary:
        """Close the split and rebuild the shared substrate as the union.

        Restores the pre-split kernel/locate, heals the fault plane (the
        registered heal hooks fire), then applies every side's delta:
        departed vertices are removed, split-era inserts are carved into
        the union in ascending object-id order — the deterministic
        lowest-id rule; an insert whose exact coordinates are already
        taken (both sides carved the same point: a region overlap) loses
        and is torn down — and published-id collisions are re-assigned
        from the healed allocator.  Finally the union kernel's version is
        advanced past every side fork, so its snapshots dominate the
        partial order at every node.
        """
        simulator = self.simulator
        spec = self.spec
        if spec is None:
            raise RuntimeError("no split is open")
        if not simulator.engine.quiescent:
            raise RuntimeError("cannot heal with messages in flight")
        assert self._global_kernel is not None
        assert self._global_locate is not None
        simulator.kernel = self._global_kernel
        simulator.locate = self._global_locate
        side_versions = tuple(state.kernel.version for state in self._sides)
        self.faults.heal_partitions()
        kernel = simulator.kernel
        locate = simulator.locate
        removals = 0
        for object_id in sorted(kernel.vertex_ids()):
            if object_id not in simulator.nodes:
                kernel.remove(object_id)
                locate.discard(object_id)
                removals += 1
        inserts = 0
        conflicts = 0
        for object_id in sorted(simulator.nodes):
            if object_id in kernel:
                continue
            node = simulator.nodes[object_id]
            try:
                kernel.insert(node.position, vertex_id=object_id,
                              hint=locate.hint(node.position))
            except DuplicatePointError:
                # Region overlap: an earlier (lower) id already carved
                # these exact coordinates on the other side.  Lowest id
                # keeps the region; the loser is torn down, exactly as a
                # duplicate-coordinate join is refused in steady state.
                conflicts += 1
                simulator.network.unregister(object_id)
                del simulator.nodes[object_id]
                continue
            locate.insert(object_id, node.position)
            inserts += 1
        kernel.advance_version(max(side_versions, default=0) + 1)
        # Published-id collisions: objects inserted on different sides
        # minted the same side-local id.  The lowest object id keeps the
        # published identity; every loser re-publishes under a fresh id
        # from the healed allocator (its region was already re-carved
        # into the union above).
        claims: Dict[int, List[int]] = {}
        for state in self._sides:
            for object_id in state.inserted:
                if object_id not in simulator.nodes:
                    continue
                published = simulator.nodes[object_id].published_id
                if published is not None:
                    claims.setdefault(published, []).append(object_id)
        collisions = 0
        for published in sorted(claims):
            claimants = sorted(claims[published])
            for loser in claimants[1:]:
                simulator.nodes[loser].published_id = simulator._next_id
                simulator._next_id += 1
                collisions += 1
        self._epoch += 1
        summary = HealSummary(spec=spec, epoch=self._epoch,
                              union_inserts=inserts, union_removals=removals,
                              coordinate_conflicts=conflicts,
                              id_collisions_resolved=collisions,
                              side_versions=side_versions,
                              union_version=kernel.version)
        self.spec = None
        self._sides = []
        return summary


@dataclass(frozen=True)
class MergeReport:
    """Outcome of one heal + anti-entropy merge."""

    converged: bool
    rounds: int
    time_to_converge: float
    digest_messages: int
    reconcile_messages: int
    repair_messages: Dict[str, int]
    union_inserts: int
    union_removals: int
    coordinate_conflicts: int
    id_collisions_resolved: int
    boundary_edges: int
    verify_problems: int

    @property
    def messages(self) -> int:
        return (self.digest_messages + self.reconcile_messages
                + sum(self.repair_messages.values()))


class MergeProtocol:  # simlint: ignore[SIM003] — one per heal, not per message
    """Epidemic anti-entropy across a healed cut, settled by repair.

    Each round: every boundary edge of the healed split (union-kernel
    edges whose endpoints sat on different sides) carries one
    version-stamped ``MERGE_DIGEST`` from its lower endpoint; the digest
    floods epoch-guarded through the refreshed neighbourhoods, refreshing
    views, exonerating split-era suspicion and re-running close discovery
    across the cut, with ``MERGE_RECONCILE`` acks pulling in nodes whose
    digest copies were lost.  The standing :class:`RepairProtocol` then
    settles what flooding cannot — long links retargeted *within* a side
    re-resolve to their union owners via the routed search, and any view
    the flood missed is scrubbed by the audit pass — until
    ``verify_views()`` is clean or ``max_rounds`` is spent.
    """

    def __init__(self, simulator: ProtocolSimulator, spec: SplitSpec, *,
                 epoch_base: int = 1,
                 max_rounds: int = 4,
                 max_repair_rounds: int = 8,
                 detector: Optional[HeartbeatDetector] = None) -> None:
        self.simulator = simulator
        self.spec = spec
        self.epoch_base = epoch_base
        self.max_rounds = max_rounds
        self.repairer = RepairProtocol(simulator, detector=detector,
                                       max_rounds=max_repair_rounds)

    def boundary_edges(self) -> List[Tuple[int, int]]:
        """Union-kernel edges crossing the healed cut, each once, sorted."""
        spec = self.spec
        edges: Set[Tuple[int, int]] = set()
        for u, v in self.simulator.kernel.edges():
            side_u = spec.side_of(u)
            side_v = spec.side_of(v)
            if side_u is not None and side_v is not None and side_u != side_v:
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    def run(self, union: Optional[HealSummary] = None) -> MergeReport:
        """Run digest + settle rounds until clean views (or the cap)."""
        simulator = self.simulator
        network = simulator.network
        heal_time = simulator.engine.now
        boundary = self.boundary_edges()
        digest_total = reconcile_total = 0
        repair_messages: Dict[str, int] = {}
        rounds = 0
        converged = False
        problems: List[str] = []
        for round_index in range(self.max_rounds):
            rounds += 1
            epoch = self.epoch_base * _EPOCH_STRIDE + round_index
            version = simulator.kernel.version
            digest_before = network.sent_by_kind.get("MERGE_DIGEST", 0)
            reconcile_before = network.sent_by_kind.get("MERGE_RECONCILE", 0)
            for u, v in boundary:
                sender = simulator.nodes.get(u)
                if sender is None or v not in simulator.nodes:
                    continue
                simulator.send(sender, v, "MERGE_DIGEST",
                               {"epoch": epoch, "version": version})
            simulator.engine.run_until_quiescent()
            digest_total += (network.sent_by_kind.get("MERGE_DIGEST", 0)
                             - digest_before)
            reconcile_total += (network.sent_by_kind.get("MERGE_RECONCILE", 0)
                                - reconcile_before)
            settle = self.repairer.repair()
            for phase, count in settle.phase_messages.items():
                repair_messages[phase] = repair_messages.get(phase, 0) + count
            problems = simulator.verify_views()
            if settle.converged and not problems:
                converged = True
                break
        simulator.trace.record(simulator.engine.now, "partition_merge",
                               rounds=rounds, converged=converged,
                               boundary_edges=len(boundary))
        return MergeReport(
            converged=converged, rounds=rounds,
            time_to_converge=simulator.engine.now - heal_time,
            digest_messages=digest_total,
            reconcile_messages=reconcile_total,
            repair_messages=repair_messages,
            union_inserts=union.union_inserts if union else 0,
            union_removals=union.union_removals if union else 0,
            coordinate_conflicts=union.coordinate_conflicts if union else 0,
            id_collisions_resolved=(union.id_collisions_resolved
                                    if union else 0),
            boundary_edges=len(boundary),
            verify_problems=len(problems))


class AvailabilityTracker:
    """Split-era query availability, per side and phase, plus heal latency.

    The partition-merge harness records every split-era query as
    ``(side, phase, served)`` — ``phase`` is ``"degraded"`` (the cut is
    open but views still reference the far side, so walks die crossing
    it) or ``"stable"`` (each side has repaired against its own fork) —
    and brackets every heal with :meth:`mark_heal` /
    :meth:`mark_converged` so time-to-converge is measured on the same
    virtual clock as the queries.  :meth:`summary` is JSON-safe (string
    keys throughout) for the benchmark records.
    """

    __slots__ = ("_served", "_total", "_heals", "_pending_heal")

    def __init__(self) -> None:
        # (side, phase) -> counts; sides are small ints, phases strings.
        self._served: Dict[tuple, int] = {}
        self._total: Dict[tuple, int] = {}
        self._heals: List[Dict[str, float]] = []
        self._pending_heal: Optional[float] = None

    def record(self, side: int, phase: str, served: bool) -> None:
        """Count one split-era query outcome for ``side`` in ``phase``."""
        key = (side, phase)
        self._total[key] = self._total.get(key, 0) + 1
        if served:
            self._served[key] = self._served.get(key, 0) + 1

    def mark_heal(self, time: float) -> None:
        """The split healed at virtual ``time``; converge timing starts."""
        self._pending_heal = float(time)

    def mark_converged(self, time: float) -> None:
        """Views verified clean at ``time``; closes the pending heal."""
        if self._pending_heal is None:
            raise ValueError("mark_converged without a pending mark_heal")
        self._heals.append({
            "healed_at": self._pending_heal,
            "converged_at": float(time),
            "time_to_converge": float(time) - self._pending_heal,
        })
        self._pending_heal = None

    def success_rate(self, phase: Optional[str] = None) -> float:
        """Served fraction across all sides (optionally one phase)."""
        total = served = 0
        for key, count in self._total.items():
            if phase is not None and key[1] != phase:
                continue
            total += count
            served += self._served.get(key, 0)
        return served / total if total else 0.0

    def summary(self) -> Dict:
        """JSON-safe availability summary for benchmark records."""
        sides: Dict[str, Dict[str, Dict[str, float]]] = {}
        for key in sorted(self._total):
            side, phase = key
            total = self._total[key]
            served = self._served.get(key, 0)
            sides.setdefault(str(side), {})[phase] = {
                "queries": float(total),
                "served": float(served),
                "success_rate": served / total if total else 0.0,
            }
        times = [heal["time_to_converge"] for heal in self._heals]
        return {
            "sides": sides,
            "degraded_success_rate": self.success_rate("degraded"),
            "stable_success_rate": self.success_rate("stable"),
            "heals": list(self._heals),
            "time_to_converge_max": max(times) if times else 0.0,
        }


@dataclass(frozen=True)
class MergeHarnessReport:
    """One full split/serve/heal/merge experiment (possibly flapping)."""

    num_objects: int
    cycles: int
    sides: int
    converged: bool
    cycle_reports: Tuple[MergeReport, ...]
    damage_reports: Tuple[PartitionDamageReport, ...]
    availability: Dict
    final_verify_problems: int
    oracle_view_parity: bool
    routing_parity_queries: int
    routing_parity_mismatches: int
    messages: int
    virtual_time: float

    @property
    def routing_parity(self) -> bool:
        return self.routing_parity_mismatches == 0


class ProtocolMergeHarness:  # simlint: ignore[SIM003] — one per experiment, not per message
    """Drives the full partition/merge scenario matrix, reproducibly.

    Each cycle (``cycles > 1`` models flapping partitions): assign every
    live object a side (seeded shuffle honouring ``side_fractions``),
    open the split, measure *degraded* availability (queries issued while
    views still reference the far side feed the fault plane), let
    detection suspect the cut and run a **scoped repair per side** so
    each half converges to its own fork, insert ``inserts_per_side``
    objects on *every* side (minting colliding published ids), measure
    *stable* per-side availability, then heal and merge.  After the last
    cycle the overlay must be byte-identical to a never-split oracle
    tessellation built from the union, including routing parity on
    sampled lookups.
    """

    def __init__(self, *, num_objects: int = 120, seed: int = 7,
                 num_sides: int = 2,
                 side_fractions: Optional[Sequence[float]] = None,
                 cycles: int = 1,
                 inserts_per_side: int = 2,
                 queries_per_side: int = 12,
                 degraded_queries_per_side: int = 4,
                 num_long_links: int = 1,
                 loss_probability: float = 0.0,
                 max_detection_rounds: int = 8,
                 max_side_repair_rounds: int = 6,
                 max_merge_rounds: int = 4,
                 max_repair_rounds: int = 8,
                 parity_queries: int = 32,
                 in_flight: str = "deliver",
                 distribution: Optional[ObjectDistribution] = None) -> None:
        if num_sides < 2:
            raise ValueError(f"need at least 2 sides, got {num_sides}")
        if side_fractions is not None:
            if len(side_fractions) != num_sides:
                raise ValueError("side_fractions must name every side")
            if any(f <= 0 for f in side_fractions):
                raise ValueError("side fractions must be positive")
        if num_objects < 8 * num_sides:
            raise ValueError(f"{num_objects} objects cannot sustain "
                             f"{num_sides} independently serving sides")
        self.num_objects = num_objects
        self.seed = seed
        self.num_sides = num_sides
        self.side_fractions = (tuple(side_fractions)
                               if side_fractions is not None else None)
        self.cycles = cycles
        self.inserts_per_side = inserts_per_side
        self.queries_per_side = queries_per_side
        self.degraded_queries_per_side = degraded_queries_per_side
        self.loss_probability = loss_probability
        self.max_detection_rounds = max_detection_rounds
        self.max_side_repair_rounds = max_side_repair_rounds
        self.max_merge_rounds = max_merge_rounds
        self.max_repair_rounds = max_repair_rounds
        self.parity_queries = parity_queries
        self.in_flight = in_flight
        self.distribution = distribution or UniformDistribution()
        capacity = 4 * (num_objects
                        + cycles * num_sides * inserts_per_side + 8)
        self.config = VoroNetConfig(n_max=capacity,
                                    num_long_links=num_long_links, seed=seed)
        self.faults = FaultPlane(seed=seed + 1)
        self.simulator = ProtocolSimulator(self.config, seed=seed,
                                           faults=self.faults)
        self.runtime = PartitionRuntime(self.simulator)
        self.detector = HeartbeatDetector(self.simulator)
        self.availability = AvailabilityTracker()
        self.activity_rng = RandomSource(seed + 5)

    # ------------------------------------------------------------------
    def _assign_sides(self) -> List[List[int]]:
        """Seeded side assignment of the live population, every side ≥ 4."""
        live = sorted(self.simulator.nodes)
        # Fisher–Yates over the sorted ids with the harness stream: the
        # assignment depends only on (seed, population), not dict order.
        for i in range(len(live) - 1, 0, -1):
            j = self.activity_rng.integer(0, i + 1)
            live[i], live[j] = live[j], live[i]
        fractions = self.side_fractions
        if fractions is None:
            fractions = tuple(1.0 for _ in range(self.num_sides))
        total = sum(fractions)
        sides: List[List[int]] = []
        offset = 0
        for index, fraction in enumerate(fractions):
            if index == self.num_sides - 1:
                chunk = live[offset:]
            else:
                count = max(4, int(round(len(live) * fraction / total)))
                chunk = live[offset:offset + count]
            offset += len(chunk)
            if len(chunk) < 4:
                raise RuntimeError(f"side {index} too small ({len(chunk)}); "
                                   f"grow num_objects or rebalance fractions")
            sides.append(chunk)
        return sides

    def _serve_side_queries(self, spec: SplitSpec, phase: str,
                            count: int) -> None:
        for index in range(self.num_sides):
            for _ in range(count):
                target = self.activity_rng.random_point()
                answer = self.runtime.side_query(index, target)
                self.availability.record(index, phase, answer is not None)

    # ------------------------------------------------------------------
    def run(self) -> MergeHarnessReport:
        simulator = self.simulator
        runtime = self.runtime
        positions = generate_objects(self.distribution, self.num_objects,
                                     RandomSource(self.seed + 3))
        simulator.bulk_join(positions)
        cycle_reports: List[MergeReport] = []
        damage_reports: List[PartitionDamageReport] = []
        converged = True
        for _cycle in range(self.cycles):
            spec = runtime.open_split(self._assign_sides(),
                                      in_flight=self.in_flight)
            damage_reports.append(
                assess_partition_damage(simulator.nodes, spec.side_of))
            # Degraded phase: views still reference the far side, so a
            # walk whose greedy next hop crosses the cut dies silently.
            self._serve_side_queries(spec, "degraded",
                                     self.degraded_queries_per_side)
            # Detection + per-side stabilisation, under the configured
            # split-era loss (retry-safe machinery only).
            self.faults.set_loss(self.loss_probability)
            self.detector.detect(self.max_detection_rounds,
                                 across_split(spec.side_of))
            for index in range(self.num_sides):
                with runtime.side(index):
                    RepairProtocol(simulator, detector=self.detector,
                                   max_rounds=self.max_side_repair_rounds,
                                   scope=runtime.side_members(index)).repair()
            self.faults.set_loss(0.0)
            # Both-side inserts: every side publishes against its own
            # fork, minting colliding side-local ids.
            for _ in range(self.inserts_per_side):
                for index in range(self.num_sides):
                    runtime.side_join(index,
                                      self.activity_rng.random_point())
            # Stable phase: each side serves from its own tessellation.
            self._serve_side_queries(spec, "stable", self.queries_per_side)
            # Heal + merge.
            summary = runtime.heal()
            self.availability.mark_heal(simulator.engine.now)
            self.faults.set_loss(self.loss_probability)
            merge = MergeProtocol(
                simulator, summary.spec, epoch_base=summary.epoch,
                max_rounds=self.max_merge_rounds,
                max_repair_rounds=self.max_repair_rounds,
                detector=self.detector)
            report = merge.run(summary)
            self.faults.set_loss(0.0)
            if report.converged:
                self.availability.mark_converged(simulator.engine.now)
            cycle_reports.append(report)
            converged = converged and report.converged
        # Never-split oracle: one tessellation built from the union
        # population.  Delaunay triangulations are unique in general
        # position, so insertion order cannot matter — byte-identical
        # views here mean the merge truly erased the split.
        oracle = DelaunayTriangulation()
        for object_id in sorted(simulator.nodes):
            oracle.insert(simulator.nodes[object_id].position,
                          vertex_id=object_id)
        view_parity = all(
            set(simulator.nodes[object_id].voronoi)
            == set(oracle.neighbors(object_id))
            for object_id in sorted(simulator.nodes))
        mismatches = 0
        parity_rng = RandomSource(self.seed + 11)
        live = sorted(simulator.nodes)
        for k in range(self.parity_queries):
            target = parity_rng.random_point()
            start = live[parity_rng.integer(0, len(live))]
            query_id = (1 << 41) + k
            simulator.start_query(target, start=start, query_id=query_id)
            simulator.engine.run()
            answer = simulator.query_answers.pop(query_id, None)
            expected = oracle.nearest_vertex(target)
            if answer is None or answer["owner"] != expected:
                mismatches += 1
        problems = simulator.verify_views()
        return MergeHarnessReport(
            num_objects=self.num_objects, cycles=self.cycles,
            sides=self.num_sides,
            converged=converged and not problems,
            cycle_reports=tuple(cycle_reports),
            damage_reports=tuple(damage_reports),
            availability=self.availability.summary(),
            final_verify_problems=len(problems),
            oracle_view_parity=view_parity,
            routing_parity_queries=self.parity_queries,
            routing_parity_mismatches=mismatches,
            messages=simulator.network.messages_sent,
            virtual_time=simulator.engine.now)
