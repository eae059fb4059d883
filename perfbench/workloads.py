"""The four benchmark workloads over the oracle and message planes.

Each workload is built from its seed alone and runs in *rounds*: a round
is a fixed unit of work (a batch of queries, a batch of moves, one
crash/repair cycle), identical for every run at one seed.  ``run.py``
sets up a workload, runs rounds until the measuring time is
spent, and reads metrics and counters back.

* ``oracle-read`` — ``VoroNet.bulk_load`` of 2·10⁴ uniform objects, every
  routing table warmed during set-up, then closed-loop serving
  (``serve_closed_loop``, 8 virtual workers) of Zipf(0.9) targets.  No
  churn: the kernel idles while route scans and the serving layer's
  observability code do the work.
* ``oracle-churn`` — 3000 objects, uniform targets, one ``MovingObjects``
  move (remove + insert under the same id) per 10 queries.  Writes run
  beside reads on the same layers.
* ``protocol-serve`` — ``ProtocolSimulator.bulk_join`` of 10⁴ objects, then
  ``serve_protocol_closed_loop`` with 8 queries in flight and no
  ``FaultPlane``: the send path, the engine and the ``QUERY`` handler.
* ``protocol-repair`` — ``bulk_join`` of 1500 objects with a ``FaultPlane``,
  then per round 500 sequential joins/leaves timed one by one, a 10 %
  crash, heartbeat detection and ``RepairProtocol.repair`` with no message
  loss, ``verify_views()`` and batches of queries over the healed overlay.

The class attributes below hold each workload's sizes; ``README.md`` says
why they are smaller than the first plan.

Removing a convex-hull vertex makes the kernel rebuild the whole
triangulation, a cost far above any other write.  A uniform pick would
rebuild a Poisson-distributed number of times per run, and no two runs
would agree.  Moves, leaves and crashes therefore pick objects by
stratified sampling: a fixed number per round are hull vertices, the rest
are uniform over the other objects.  Each fixed number is the hull share
measured under uniform picks, times the picks per round (``README.md``
gives the measurements).  Every rebuild is thus in the measurement, the
same number of times in every run.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import VoroNetConfig
from repro.serving.adapters import CAPACITY_HEADROOM, VoroNetServing
from repro.serving.traffic import (build_schedule, serve_closed_loop,
                                   serve_protocol_closed_loop)
from repro.simulation.faults import ProtocolChurnHarness
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads import generators
from repro.workloads.distributions import UniformDistribution
from repro.workloads.samplers import MovingObjects, UniformTargets, ZipfTargets

__all__ = ["WORKLOADS", "make_workload"]

#: Virtual workers (oracle) or queries in flight (protocol) while serving.
CONCURRENCY = 8


def _positions(count: int, seed: int) -> list:
    # Called through the module so a traced run sees ``workloads.generate``.
    return generators.generate_objects(UniformDistribution(), count,
                                       RandomSource(seed))


@contextmanager
def _untraced(tracer):
    """Pause span recording around correctness checks."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


def _pick(rng: np.random.Generator, ids: List[int], is_hull, hull: bool) -> int:
    """A uniform pick among the hull (or the non-hull) objects of ``ids``."""
    if hull:
        candidates = [object_id for object_id in ids if is_hull(object_id)]
        return candidates[int(rng.integers(len(candidates)))]
    while True:
        object_id = ids[int(rng.integers(len(ids)))]
        if not is_hull(object_id):
            return object_id


def hop_percentile(counts: np.ndarray, q: float) -> float:
    """Percentile ``q`` (0–100) of integer hop counts, interpolated.

    ``counts[h]`` is the number of queries that took ``h`` hops.  Hop
    counts are integers, so a plain percentile jumps a whole hop when the
    distribution's mass shifts a little; the grouped-data formula treats
    the queries at ``h`` hops as spread evenly over ``[h - ½, h + ½)``
    and reads the percentile off that piecewise-linear distribution.
    """
    cumulative = np.cumsum(counts)
    rank = q / 100.0 * cumulative[-1]
    h = int(np.searchsorted(cumulative, rank, side="left"))
    return h - 0.5 + (rank - cumulative[h] + counts[h]) / counts[h]


def reference_work(steps: int = 8000) -> float:
    """A fixed piece of pure-Python work that uses none of the program.

    Heap pushes and pops, dict inserts and deletes, tuple allocation and
    float arithmetic, as in the simulator's event loop; 5–10 ms.  Its
    wall time measures how fast the host runs Python code at that moment.
    """
    rng = random.Random(12345)
    queue: list = []
    table: dict = {}
    total = 0.0
    for i in range(steps):
        heapq.heappush(queue, (rng.random(), i))
        table[i] = (float(i), i & 7)
        if len(queue) > 32:
            _, j = heapq.heappop(queue)
            x, k = table.pop(j)
            total += math.hypot(x, k)
    return total


class Workload:
    """Shared bookkeeping: per-query hops, outcomes and per-round timings."""

    name = ""
    #: Rounds every run makes whatever its measuring time; the traced run
    #: makes exactly this many, so its counters are a fixed amount of work.
    min_rounds = 1
    #: Per-round (or per-window) series kept in the run record.
    series = ("round_s", "round_refs", "queries_per_s", "queries_per_ref",
              "reference_s")

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = None
        self.hops: List[int] = []
        self.round_s: List[float] = []
        self.round_refs: List[float] = []
        self.queries_per_s: List[float] = []
        self.queries_per_ref: List[float] = []
        self.reference_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.check_failures: List[str] = []

    def sample_host(self) -> None:
        """Time :func:`reference_work` once, outside every timed window.

        The garbage collector is paused so the program's heap does not
        enter the sample.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference_work()
            self.reference_s.append(time.perf_counter() - started)
        finally:
            if enabled:
                gc.enable()

    def host_since(self, opened: int) -> float:
        """The reference time of a window that opened at sample ``opened``.

        Takes a closing sample and returns the median of it, the samples
        taken inside the window and the last one before it.
        """
        self.sample_host()
        return float(np.median(self.reference_s[max(opened - 1, 0):]))

    def record_serving(self, served: int, seconds: float, host: float) -> None:
        self.queries_per_s.append(served / seconds)
        self.queries_per_ref.append(served / seconds * host)

    def record_round(self, seconds: float, host: float) -> None:
        self.round_s.append(seconds)
        self.round_refs.append(seconds / host)

    def scaled(self, count: int, floor: int = 64) -> int:
        return max(floor, int(round(count * self.scale)))

    def fail_check(self, message: str) -> None:
        if len(self.check_failures) < 20:
            self.check_failures.append(message)
        else:
            self.check_failures[-1] = "... more check failures"

    def count_queries(self, owners: List[int], expected: List[int],
                      hops: List[int], misses: int = 0) -> None:
        """Tally served queries: a wrong owner fails the query and the run."""
        self.attempted += len(owners) + misses
        self.failed += misses
        wrong = sum(1 for got, want in zip(owners, expected) if got != want)
        if wrong:
            self.failed += wrong
            self.fail_check(f"{wrong} queries answered by the wrong owner")
        self.hops.extend(hops)

    # hooks ----------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Final correctness checks, after the measured rounds."""

    def counters(self) -> Dict[str, object]:
        """Deterministic work counters of the rounds run so far."""
        hops = np.asarray(self.hops, dtype=np.int64)
        return {"queries": int(hops.size), "hops_total": int(hops.sum())}

    def per_round(self) -> Dict[str, List[float]]:
        """The per-round series the medians are taken over."""
        return {name: list(getattr(self, name)) for name in self.series}

    def metrics(self) -> Dict[str, Optional[float]]:
        """Every end-to-end figure; ``None`` where the workload has none."""
        counts = np.bincount(np.asarray(self.hops, dtype=np.int64))
        return {
            "round_s": float(np.median(self.round_s)),
            "round_refs": float(np.median(self.round_refs)),
            "queries_per_s": float(np.median(self.queries_per_s)),
            "queries_per_ref": float(np.median(self.queries_per_ref)),
            "reference_ms": float(np.median(self.reference_s) * 1e3),
            "hops_p50": hop_percentile(counts, 50),
            "hops_p99": hop_percentile(counts, 99),
            "error_rate": self.failed / self.attempted,
            "success_rate": 1.0 - self.failed / self.attempted,
            "writes_per_s": None,
            "write_ms_p50": None,
            "write_ms_p99": None,
            "messages_per_s": None,
            "repair_s": None,
            "messages_per_write": None,
            "messages_per_crash": None,
        }


# ----------------------------------------------------------------------
# oracle plane
# ----------------------------------------------------------------------
class _RecordedRoutes:
    """Keeps each ``route_many`` batch so owners are checked after timing."""

    def __init__(self, overlay) -> None:
        self.batches: list = []
        inner = overlay.route_many

        def route_many(pairs, **kwargs):
            pairs = list(pairs)
            results = inner(pairs, **kwargs)
            self.batches.append((pairs, results))
            return results

        overlay.route_many = route_many

    def drain(self):
        batches, self.batches = self.batches, []
        for pairs, results in batches:
            yield from zip(pairs, results)


class StratifiedMoves(MovingObjects):
    """``MovingObjects`` with a fixed number of hull-vertex moves per round.

    Of every ``per_round`` moves, ``hull_per_round`` evenly spaced ones
    pick a hull vertex and the rest an interior object.  Each move's
    remove + re-insert is timed on its own into :attr:`write_s`.  The pick
    and the host samples are the benchmark's own work: they are timed into
    :attr:`overhead_s`, which the caller takes out of its timings.

    ``MovingObjects`` clips a jittered position into the unit square, so
    two objects pushed past the same corner would land on the same point,
    and ``VoroNet.insert`` rejects the second as a duplicate.  A jitter
    that lands on another object's point is therefore drawn again.
    """

    #: A round serves for over a second, so the host is also sampled after
    #: every ``HOST_EVERY``-th pick (``Workload.sample_host``).
    HOST_EVERY = 35

    def __init__(self, seed: int, per_round: int, hull_per_round: int,
                 sample_host) -> None:
        super().__init__(seed=seed)
        self.per_round = per_round
        self.hull_per_round = hull_per_round
        self.sample_host = sample_host
        self._picks = np.random.default_rng(seed + 1)
        self.write_s: List[float] = []
        self.overhead_s = 0.0
        self._vertex_at = None
        self._moving = None

    def apply(self, overlay, object_id=None):
        started = time.perf_counter()
        if object_id is None:
            slot = len(self.write_s) % self.per_round
            hull = (slot * self.hull_per_round // self.per_round
                    != (slot + 1) * self.hull_per_round // self.per_round)
            object_id = _pick(self._picks, overlay.object_ids(),
                              overlay.triangulation.is_hull_vertex, hull)
            if slot % self.HOST_EVERY == self.HOST_EVERY - 1:
                self.sample_host()
        self._vertex_at = overlay.triangulation.vertex_at
        self._moving = object_id
        picked = time.perf_counter()
        self.overhead_s += picked - started
        moved = super().apply(overlay, object_id)
        self.write_s.append(time.perf_counter() - picked)
        return moved

    def _jitter(self, position):
        while True:
            target = super()._jitter(position)
            if self._vertex_at(target) in (None, self._moving):
                return target


class OracleWorkload(Workload):
    population = 0
    queries_per_round = 0
    moves_per_round = 0
    hull_moves_per_round = 0

    def make_sampler(self, population: int):
        return UniformTargets(population, seed=self.seed + 2)

    def setup(self) -> None:
        n = self.scaled(self.population)
        positions = _positions(n, self.seed)
        self.adapter = VoroNetServing(positions, seed=self.seed,
                                      track_paths=True)
        overlay = self.adapter.overlay
        for object_id in overlay.object_ids():
            overlay.routing_table(object_id)
        self.sampler = self.make_sampler(n)
        self.routes = _RecordedRoutes(overlay)
        self.moves = None
        if self.moves_per_round:
            self.moves = StratifiedMoves(
                self.seed + 4,
                per_round=self.scaled(self.moves_per_round, floor=8),
                hull_per_round=self.hull_moves_per_round,
                sample_host=self.sample_host)

    def run_round(self, index: int) -> None:
        queries = self.scaled(self.queries_per_round)
        schedule = build_schedule(self.sampler, queries,
                                  seed=self.seed + 1000 + index)
        churn_every = 0
        batch_size = 2048
        writes_before = 0
        overhead_before = 0.0
        if self.moves is not None:
            churn_every = max(1, queries // self.moves.per_round)
            # Ten moves between consecutive query batches.
            batch_size = 10 * churn_every
            writes_before = len(self.moves.write_s)
            overhead_before = self.moves.overhead_s
        opened = len(self.reference_s)
        started = time.perf_counter()
        report = serve_closed_loop(self.adapter, schedule, self.name,
                                   concurrency=CONCURRENCY,
                                   batch_size=batch_size,
                                   churn=self.moves, churn_every=churn_every)
        # Picking the objects to move is the benchmark's work, not the
        # program's: it counts in no timing.
        elapsed = time.perf_counter() - started
        write_time = 0.0
        if self.moves is not None:
            elapsed -= self.moves.overhead_s - overhead_before
            write_time = sum(self.moves.write_s[writes_before:])
            self.attempted += len(self.moves.write_s) - writes_before
        host = self.host_since(opened)
        self.queries_per_s.append(report["served"] / (elapsed - write_time))
        # Moves run inside the closed loop, between query batches, so the
        # rate a client sees counts the whole round.  (Serving alone is a
        # fifth of an ``oracle-churn`` round, and the difference of two
        # timings: its rate spread three times wider across seeds.)
        self.queries_per_ref.append(report["served"] / elapsed * host)
        self.record_round(elapsed, host)
        with _untraced(self.tracer):
            owners, expected, hops = [], [], []
            misses = 0
            for (_source, target), result in self.routes.drain():
                if not result.success:
                    misses += 1
                    continue
                owners.append(result.owner)
                expected.append(target)
                hops.append(result.hops)
            self.count_queries(owners, expected, hops, misses)
            if len(owners) + misses != len(schedule):
                self.fail_check("served query count differs from the schedule")

    def finish(self) -> None:
        problems = self.adapter.overlay.check_consistency()
        if problems:
            self.fail_check(f"check_consistency: {problems[:3]}")

    def counters(self) -> Dict[str, object]:
        counters = super().counters()
        stats = self.adapter.overlay.stats
        # Since bulk_load: the set-up warm-up builds every table once.
        counters["core.routing.table_rebuilds"] = stats.routing_table_rebuilds
        if self.moves is not None:
            counters["moves"] = len(self.moves.write_s)
        return counters

    def metrics(self) -> Dict[str, Optional[float]]:
        metrics = super().metrics()
        if self.moves is not None:
            writes = np.asarray(self.moves.write_s)
            per_round = self.moves.per_round
            rates = [per_round / writes[i:i + per_round].sum()
                     for i in range(0, len(writes) - per_round + 1, per_round)]
            metrics["writes_per_s"] = float(np.median(rates))
            metrics["write_ms_p50"] = float(np.percentile(writes, 50) * 1e3)
            metrics["write_ms_p99"] = float(np.percentile(writes, 99) * 1e3)
        return metrics


class OracleRead(OracleWorkload):
    name = "oracle-read"
    population = 20_000
    queries_per_round = 2048
    min_rounds = 4

    def make_sampler(self, population: int):
        return ZipfTargets(population, alpha=0.9, seed=self.seed + 2)


class OracleChurn(OracleWorkload):
    name = "oracle-churn"
    population = 3000
    queries_per_round = 1400
    moves_per_round = 140
    #: Plain ``MovingObjects`` picks hit a hull vertex in 1.2–1.3 % of the
    #: moves of a 10–15 round run (more than the 0.7 % of 3000 uniform
    #: points: moves clipped onto the square's edges join the hull).
    hull_moves_per_round = 2
    min_rounds = 8  # 1120 moves, so p99 has 11 samples beyond it


# ----------------------------------------------------------------------
# message plane
# ----------------------------------------------------------------------
def _serve_protocol(workload: Workload, simulator: ProtocolSimulator,
                    id_map: List[int], queries: int, seed: int) -> float:
    """Closed-loop protocol serving of ``queries`` uniform targets.

    Returns the wall seconds spent serving; owners and hops are checked
    and tallied after the clock stops.
    """
    sampler = UniformTargets(len(id_map), seed=seed)
    schedule = build_schedule(sampler, queries, seed=seed + 1)
    simulator.query_answers.clear()
    started = time.perf_counter()
    serve_protocol_closed_loop(simulator, id_map, schedule,
                               concurrency=CONCURRENCY)
    elapsed = time.perf_counter() - started
    with _untraced(workload.tracer):
        answers = simulator.query_answers
        targets = schedule.targets.tolist()
        missing = sum(1 for k in range(queries) if k not in answers)
        served = [k for k in range(queries) if k in answers]
        workload.count_queries([answers[k]["owner"] for k in served],
                               [id_map[targets[k]] for k in served],
                               [answers[k]["hops"] for k in served], missing)
        simulator.query_answers.clear()
    return elapsed


def _message_counters(simulator: ProtocolSimulator) -> Dict[str, object]:
    network = simulator.network
    return {
        "messages_by_kind": dict(sorted(network.sent_by_kind.items())),
        "simulation.engine.events": simulator.engine.processed_events,
        "simulation.network.dropped": (network.messages_lost
                                       + network.messages_dropped),
    }


class ProtocolServe(Workload):
    name = "protocol-serve"
    series = Workload.series + ("messages_per_s",)
    population = 10_000
    queries_per_round = 1024
    min_rounds = 4
    #: Queries re-served through an oracle twin after the measurement.
    parity_sample = 2000

    def setup(self) -> None:
        n = self.scaled(self.population)
        self.positions = _positions(n, self.seed)
        # The configuration ``VoroNetServing`` derives, built directly: no
        # oracle twin inside the timed set-up.
        self.config = VoroNetConfig(n_max=max(16, int(n * CAPACITY_HEADROOM)),
                                    num_long_links=1, track_paths=False,
                                    seed=self.seed)
        self.simulator = ProtocolSimulator(self.config)
        self.ids = self.simulator.bulk_join(self.positions).object_ids
        self.messages_per_s: List[float] = []

    def run_round(self, index: int) -> None:
        queries = self.scaled(self.queries_per_round)
        network = self.simulator.network
        delivered = network.messages_delivered
        opened = len(self.reference_s)
        elapsed = _serve_protocol(self, self.simulator, self.ids, queries,
                                  self.seed + 1000 + 2 * index)
        host = self.host_since(opened)
        self.record_serving(queries, elapsed, host)
        self.record_round(elapsed, host)
        self.messages_per_s.append(
            (network.messages_delivered - delivered) / elapsed)

    def finish(self) -> None:
        problems = self.simulator.verify_views()
        if problems:
            self.fail_check(f"verify_views: {problems[:3]}")
        self._twin_parity()

    def _twin_parity(self) -> None:
        """Hops of a query sample equal an oracle ``bulk_load`` twin's."""
        twin = VoroNetServing(self.positions, seed=self.seed, track_paths=False)
        sampler = UniformTargets(len(self.ids), seed=self.seed + 7)
        schedule = build_schedule(sampler, self.scaled(self.parity_sample),
                                  seed=self.seed + 8)
        pairs = schedule.pairs()
        oracle = [outcome.hops for outcome in twin.route_batch(pairs)]
        simulator = self.simulator
        simulator.query_answers.clear()
        for k, (source, target) in enumerate(pairs):
            simulator.start_query(simulator.nodes[self.ids[target]].position,
                                  start=self.ids[source], query_id=k)
        simulator.engine.run()
        protocol = [simulator.query_answers[k]["hops"]
                    for k in range(len(pairs))]
        simulator.query_answers.clear()
        mismatches = sum(1 for a, b in zip(oracle, protocol) if a != b)
        if mismatches:
            self.fail_check(f"twin parity: {mismatches} of {len(pairs)} "
                            "queries differ in hops from the oracle twin")

    def counters(self) -> Dict[str, object]:
        counters = super().counters()
        counters.update(_message_counters(self.simulator))
        return counters

    def metrics(self) -> Dict[str, Optional[float]]:
        metrics = super().metrics()
        metrics["messages_per_s"] = float(np.median(self.messages_per_s))
        return metrics


class ProtocolRepair(Workload):
    name = "protocol-repair"
    series = Workload.series + ("messages_per_s", "repair_s", "still_damaged",
                                "repair_converged")
    population = 1500
    writes_per_round = 500
    #: Hull vertices are 1.3 % of the population through a run (joins land
    #: uniformly, so the share holds steady): 2 of about 180 leaves a round.
    hull_leaves_per_round = 2
    crash_fraction = 0.1
    #: The same share of the 150 crash victims.
    hull_crashes_per_round = 2
    #: Message loss during detection and repair.  At 10 % loss a few
    #: operations fail in most 20 s runs (an object left damaged after
    #: repair, or a later join timing out), and a benchmark run must
    #: complete all its operations; ``README.md`` gives the measurements.
    loss = 0.0
    #: Queries served after each repair, in batches timed one by one, so
    #: the median of ``queries_per_s`` has thirty samples per round.
    queries_per_batch = 500
    batches_per_round = 30
    #: The host is also sampled after every ``host_every_writes``-th write
    #: and after the repair, so a round's ref covers all its phases.
    host_every_writes = 100
    min_rounds = 2  # 1000 writes, so p99 has 10 samples beyond it

    def setup(self) -> None:
        n = self.scaled(self.population)
        self.target_population = n
        # The harness wires the fault plane, detector, repairer and crash
        # injector with the default round budgets; its own churn is off.
        self.harness = ProtocolChurnHarness(num_objects=n, seed=self.seed,
                                            churn_events=0,
                                            loss_probability=self.loss)
        self.simulator = self.harness.simulator
        self.simulator.bulk_join(_positions(n, self.seed + 3))
        self.rng = RandomSource(self.seed + 11)
        self.picks = np.random.default_rng(self.seed + 12)
        self.write_s: List[float] = []
        self.write_messages = 0
        self.repair_s: List[float] = []
        self.repair_messages = 0
        self.crashed = 0
        self.messages_per_s: List[float] = []
        self.repair_rounds = 0
        self.timed_out = 0
        self.still_damaged: List[int] = []
        self.named_before: set = set()
        self.repair_converged: List[bool] = []

    # ------------------------------------------------------------------
    def _writes(self) -> float:
        """Joins and leaves back to the target population, timed one by one."""
        simulator = self.simulator
        total = self.scaled(self.writes_per_round, floor=32)
        deficit = self.target_population - len(simulator)
        leaves = (total - deficit) // 2
        hull_leaves = {k * leaves // self.hull_leaves_per_round
                       + leaves // (2 * self.hull_leaves_per_round)
                       for k in range(self.hull_leaves_per_round)}
        network = simulator.network
        sent = network.messages_sent
        spent = 0.0
        timed_out = 0
        leave_index = 0
        for j in range(total):
            is_leave = (j * leaves) // total != ((j + 1) * leaves) // total
            if is_leave:
                victim = _pick(self.picks, simulator.object_ids(),
                               simulator.kernel.is_hull_vertex,
                               leave_index in hull_leaves)
                leave_index += 1
                started = time.perf_counter()
                report = simulator.leave(victim)
            else:
                position = self.rng.random_point()
                started = time.perf_counter()
                report = simulator.join(position)
            elapsed = time.perf_counter() - started
            spent += elapsed
            self.write_s.append(elapsed)
            if report.outcome != "completed":
                timed_out += 1
            if j % self.host_every_writes == self.host_every_writes - 1:
                self.sample_host()
        self.attempted += total
        self.failed += timed_out
        self.timed_out += timed_out
        self.write_messages += network.messages_sent - sent
        return spent

    def _crash_victims(self) -> List[int]:
        simulator = self.simulator
        count = int(round(self.crash_fraction * len(simulator)))
        ids = simulator.object_ids()
        is_hull = simulator.kernel.is_hull_vertex
        hull = [object_id for object_id in ids if is_hull(object_id)]
        inner = [object_id for object_id in ids if not is_hull(object_id)]
        hull_count = min(self.hull_crashes_per_round, len(hull))
        chosen_hull = self.picks.choice(len(hull), size=hull_count, replace=False)
        chosen_inner = self.picks.choice(len(inner), size=count - hull_count,
                                         replace=False)
        # Interior victims first: removing them leaves the hull unchanged,
        # so exactly ``hull_count`` removals rebuild the kernel.
        return ([inner[i] for i in sorted(chosen_inner.tolist())]
                + [hull[i] for i in sorted(chosen_hull.tolist())])

    def _damaged(self, victims: set) -> set:
        """Live objects whose views still name one of ``victims``.

        ``ProtocolCrashInjector.assess_damage`` counts the same references
        but only as totals, and over every crash since the start; a round
        counts the objects its own victims damaged.
        """
        damaged = set()
        for object_id, node in self.simulator.nodes.items():
            if (any(link.neighbor in victims for link in node.long_links)
                    or any(peer in victims for peer in node.close)
                    or any(source in victims for source, _ in node.back_links)
                    or any(peer in victims for peer in node.voronoi)):
                damaged.add(object_id)
        return damaged

    def _crash_and_repair(self) -> float:
        harness = self.harness
        simulator = self.simulator
        network = simulator.network
        victims = self._crash_victims()
        started = time.perf_counter()
        for victim in victims:
            harness.injector.crash(victim)
        with _untraced(self.tracer):
            paused = time.perf_counter()
            damaged_before = self._damaged(set(victims))
            started += time.perf_counter() - paused
        harness.faults.set_loss(self.loss)
        sent = network.messages_sent
        rounds = 0
        while rounds < harness.max_detection_rounds:
            harness.detector.run_round()
            rounds += 1
            if (rounds >= harness.detector.miss_threshold
                    and harness._all_damage_suspected()):
                break
        report = harness.repairer.repair(harness.max_repair_rounds)
        harness.faults.set_loss(0.0)
        elapsed = time.perf_counter() - started
        self.repair_messages += network.messages_sent - sent
        self.crashed += len(victims)
        self.repair_rounds += report.rounds
        with _untraced(self.tracer):
            still = self._damaged(set(victims))
            # An object verify_views() already named after an earlier
            # round failed there; it is not counted again.
            named = {int(problem.split(":", 1)[0])
                     for problem in simulator.verify_views()}
            still |= named - self.named_before
            self.named_before = named
            self.attempted += len(damaged_before)
            self.failed += len(still)
            self.still_damaged.append(len(still))
            self.repair_converged.append(report.converged)
        return elapsed

    def run_round(self, index: int) -> None:
        network = self.simulator.network
        delivered = network.messages_delivered
        opened_round = len(self.reference_s)
        self.sample_host()  # the host as the writes begin
        write_time = self._writes()
        repair_time = self._crash_and_repair()
        self.sample_host()
        ids = sorted(self.simulator.nodes)
        queries = self.scaled(self.queries_per_batch)
        serve_time = 0.0
        for batch in range(self.batches_per_round):
            opened = len(self.reference_s)
            elapsed = _serve_protocol(
                self, self.simulator, ids, queries,
                self.seed + 1000 + 2 * (index * self.batches_per_round + batch))
            serve_time += elapsed
            self.record_serving(queries, elapsed, self.host_since(opened))
        busy = write_time + repair_time + serve_time
        self.record_round(busy, float(np.median(self.reference_s[opened_round:])))
        self.repair_s.append(repair_time)
        self.messages_per_s.append(
            (network.messages_delivered - delivered) / busy)

    def counters(self) -> Dict[str, object]:
        counters = super().counters()
        counters.update(_message_counters(self.simulator))
        counters["writes"] = len(self.write_s)
        counters["crashed"] = self.crashed
        counters["repair.rounds"] = self.repair_rounds
        counters["ops.timed_out"] = self.timed_out
        return counters

    def metrics(self) -> Dict[str, Optional[float]]:
        metrics = super().metrics()
        writes = np.asarray(self.write_s)
        per_round = self.scaled(self.writes_per_round, floor=32)
        rates = [per_round / writes[i:i + per_round].sum()
                 for i in range(0, len(writes) - per_round + 1, per_round)]
        metrics.update({
            "writes_per_s": float(np.median(rates)),
            "write_ms_p50": float(np.percentile(writes, 50) * 1e3),
            "write_ms_p99": float(np.percentile(writes, 99) * 1e3),
            "messages_per_s": float(np.median(self.messages_per_s)),
            "repair_s": float(np.median(self.repair_s)),
            "messages_per_write": self.write_messages / len(writes),
            "messages_per_crash": self.repair_messages / self.crashed,
        })
        return metrics


WORKLOADS = {workload.name: workload
             for workload in (OracleRead, OracleChurn, ProtocolServe,
                              ProtocolRepair)}


def make_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    return WORKLOADS[name](seed, scale)
