"""Tests of the message-level fault subsystem.

Covers the fault plane (crash/loss/partition decisions — a partition is a
two-sided split — including a Hypothesis pin of seed-determinism),
heartbeat detection, the phased repair protocol, protocol-vs-oracle crash
parity, and the churn harness.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VoroNet, VoroNetConfig
from repro.simulation.failures import CrashInjector
from repro.simulation.faults import (
    FaultPlane,
    HeartbeatConfig,
    HeartbeatDetector,
    ProtocolChurnHarness,
    ProtocolCrashInjector,
    RepairProtocol,
)
from repro.simulation.network import Message
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects


def build_simulator(count=150, seed=77, num_long_links=2, loss=0.0):
    config = VoroNetConfig(n_max=4 * count, num_long_links=num_long_links,
                           seed=seed)
    simulator = ProtocolSimulator(config, seed=seed,
                                  faults=FaultPlane(seed=seed + 1,
                                                    loss_probability=loss))
    positions = generate_objects(UniformDistribution(), count,
                                 RandomSource(seed))
    simulator.bulk_join(positions)
    return simulator


# ----------------------------------------------------------------------
# FaultPlane
# ----------------------------------------------------------------------
class TestFaultPlane:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlane(loss_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlane(delay_probability=-0.1)
        with pytest.raises(ValueError):
            FaultPlane(delay_probability=0.5, delay_range=(3.0, 1.0))
        with pytest.raises(ValueError):
            FaultPlane().split([[1, 2], [3]], start=5.0, end=1.0)

    def test_crashed_endpoints_drop(self):
        plane = FaultPlane(seed=1)
        plane.crash(7)
        to_dead = plane.decide(Message(sender=1, recipient=7, kind="X"), 0.0)
        from_dead = plane.decide(Message(sender=7, recipient=1, kind="X"), 0.0)
        alive = plane.decide(Message(sender=1, recipient=2, kind="X"), 0.0)
        assert not to_dead.deliver and to_dead.reason == "crashed_recipient"
        assert not from_dead.deliver and from_dead.reason == "crashed_sender"
        assert alive.deliver
        assert plane.drops_by_reason == {"crashed_recipient": 1,
                                         "crashed_sender": 1}

    def test_partition_cuts_only_inside_window(self):
        plane = FaultPlane(seed=2)
        plane.split([[1, 2], [5]], start=10.0, end=20.0)
        crossing = Message(sender=1, recipient=5, kind="X")
        internal = Message(sender=1, recipient=2, kind="X")
        assert plane.decide(crossing, 5.0).deliver          # before the window
        assert not plane.decide(crossing, 10.0).deliver     # inside
        assert plane.decide(internal, 15.0).deliver         # same side
        assert plane.decide(crossing, 20.0).deliver         # half-open end
        # The expired window was pruned by the decide() above; only the
        # newly added spec is left for heal to drop.
        plane.split([[5], [1, 2]], start=30.0, end=40.0)
        assert plane.heal_partitions() == 1
        assert plane.decide(crossing, 15.0).deliver

    def test_loss_and_delay_draws(self):
        plane = FaultPlane(seed=3, loss_probability=0.5,
                           delay_probability=1.0, delay_range=(2.0, 4.0))
        delivered = dropped = 0
        for index in range(200):
            decision = plane.decide(
                Message(sender=0, recipient=index + 1, kind="X"), 0.0)
            if decision.deliver:
                delivered += 1
                assert 2.0 <= decision.extra_delay <= 4.0
            else:
                dropped += 1
        assert delivered > 0 and dropped > 0
        assert plane.drops_by_reason["loss"] == dropped

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        loss=st.floats(0.0, 1.0),
        delay_probability=st.floats(0.0, 1.0),
        endpoints=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)),
            min_size=1, max_size=60),
        crashed=st.sets(st.integers(0, 30), max_size=5),
    )
    def test_decisions_deterministic_under_fixed_seed(self, seed, loss,
                                                      delay_probability,
                                                      endpoints, crashed):
        """Two planes with the same seed and message sequence agree exactly."""
        planes = []
        for _ in range(2):
            plane = FaultPlane(seed=seed, loss_probability=loss,
                               delay_probability=delay_probability,
                               delay_range=(1.0, 2.0))
            for object_id in crashed:
                plane.crash(object_id)
            plane.split([[0, 1, 2], range(3, 31)], start=5.0, end=9.0)
            planes.append(plane)
        messages = [Message(sender=a, recipient=b, kind="X")
                    for a, b in endpoints]
        decisions = [
            [plane.decide(message, float(index % 12))
             for index, message in enumerate(messages)]
            for plane in planes
        ]
        assert decisions[0] == decisions[1]
        assert planes[0].drops_by_reason == planes[1].drops_by_reason


# ----------------------------------------------------------------------
# network integration
# ----------------------------------------------------------------------
class TestNetworkIntegration:
    def test_lost_messages_counted_sent_but_not_delivered(self):
        simulator = build_simulator(count=60, seed=5)
        simulator.faults.set_loss(1.0)
        before = simulator.network.snapshot_counters()
        start = simulator.object_ids()[0]
        simulator.query((0.5, 0.5), start=start)
        deltas = simulator.network.counters_since(before)
        assert deltas.get("sent", 0) >= 1
        assert deltas.get("lost", 0) == deltas.get("sent", 0)
        assert "delivered" not in deltas
        simulator.faults.set_loss(0.0)

    def test_extra_delay_stretches_delivery(self):
        simulator = ProtocolSimulator(
            VoroNetConfig(n_max=64, seed=9), seed=9,
            faults=FaultPlane(seed=9, delay_probability=1.0,
                              delay_range=(5.0, 5.0)))
        simulator.join((0.3, 0.3))
        simulator.join((0.7, 0.7))
        # Every counted message took latency 1 + exactly 5 extra.
        assert simulator.engine.now >= 6.0


# ----------------------------------------------------------------------
# heartbeat detection
# ----------------------------------------------------------------------
class TestHeartbeatDetector:
    def test_validation(self):
        simulator = build_simulator(count=20, seed=6)
        with pytest.raises(ValueError):
            HeartbeatDetector(simulator, HeartbeatConfig(interval=0.0))
        with pytest.raises(ValueError):
            HeartbeatDetector(simulator, HeartbeatConfig(miss_threshold=0))

    def test_healthy_overlay_produces_no_suspects(self):
        simulator = build_simulator(count=60, seed=6)
        detector = HeartbeatDetector(simulator)
        assert detector.run_rounds(3) == []
        assert detector.suspected() == {}

    def test_crashed_peer_suspected_after_threshold(self):
        simulator = build_simulator(count=80, seed=7)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(1))
        victims = set(injector.crash_random(8))
        detector = HeartbeatDetector(simulator,
                                     HeartbeatConfig(miss_threshold=3))
        assert detector.run_rounds(2) == []          # below the threshold
        created = detector.run_round()               # third miss trips it
        assert created
        assert {suspect for _prober, suspect in created} <= victims
        # Every surviving holder of a reference to a victim now suspects it.
        for node in simulator.nodes.values():
            for peer in node.monitored_peers():
                if peer in victims:
                    assert peer in node.suspects

    def test_suspicion_scrubs_back_links_and_close_locally(self):
        simulator = build_simulator(count=80, seed=8)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(2))
        victims = set(injector.crash_random(10))
        HeartbeatDetector(simulator).run_rounds(2)
        for node in simulator.nodes.values():
            assert not victims & set(node.close)
            assert not {source for source, _ in node.back_links} & victims

    def test_clock_driven_partition_window(self):
        """A partition long enough to cross the miss threshold creates
        suspicion; once healed, probes exonerate the live suspects."""
        simulator = build_simulator(count=60, seed=10)
        plane = simulator.faults
        ids = simulator.object_ids()
        detector = HeartbeatDetector(simulator,
                                     HeartbeatConfig(interval=5.0))
        start = simulator.engine.now
        plane.split([ids[:6], ids[6:]], start=start, end=start + 18.0)
        detector.start(duration=20.0)
        simulator.engine.run()
        detector.stop()
        suspected = {suspect for suspects in detector.suspected().values()
                     for suspect in suspects}
        assert suspected
        # Heal and repair: live "victims" answer the probes, nothing is
        # amputated, and the overlay stays structurally intact.
        plane.heal_partitions()
        report = RepairProtocol(simulator, detector=detector).repair()
        assert report.converged
        assert detector.suspected() == {}
        assert simulator.verify_views() == []


# ----------------------------------------------------------------------
# piggy-backed / sampled liveness
# ----------------------------------------------------------------------
class TestHeartbeatConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HeartbeatConfig(interval=0.0)
        with pytest.raises(ValueError):
            HeartbeatConfig(miss_threshold=0)
        with pytest.raises(ValueError):
            HeartbeatConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            HeartbeatConfig(sample_fraction=1.5)

    def test_sample_period(self):
        assert HeartbeatConfig().sample_period == 1
        assert HeartbeatConfig(sample_fraction=0.25).sample_period == 4
        assert HeartbeatConfig(sample_fraction=0.1).sample_period == 10

    def test_full_probe_config_is_byte_identical_to_kwargs(self):
        """Parity pin: the default detector and one given the full-probe
        config's keyword values explicitly take the same code path —
        identical counters on twin overlays."""
        counters = []
        for construct in ("default", "config"):
            simulator = build_simulator(count=80, seed=21)
            if construct == "default":
                detector = HeartbeatDetector(simulator)
            else:
                detector = HeartbeatDetector(
                    simulator, config=HeartbeatConfig(interval=8.0,
                                                      miss_threshold=2))
            detector.run_rounds(3)
            assert not simulator.piggyback_liveness
            counters.append(simulator.network.snapshot_counters())
        assert counters[0] == counters[1]


class TestPiggybackLiveness:
    def test_healthy_overlay_stays_suspectless_and_cheaper(self):
        """Piggy-backed rounds on a healthy overlay create no suspicion and
        probe strictly less than full-probe rounds (alternation + PONG
        suppression + long-link sampling)."""
        simulator = build_simulator(count=80, seed=31)
        full = HeartbeatDetector(simulator, config=HeartbeatConfig())
        before = simulator.network.messages_sent
        assert full.run_rounds(4) == []
        full_cost = simulator.network.messages_sent - before

        simulator = build_simulator(count=80, seed=31)
        piggy = HeartbeatDetector(simulator, config=HeartbeatConfig(
            piggyback=True, sample_fraction=0.25))
        assert simulator.piggyback_liveness
        before = simulator.network.messages_sent
        assert piggy.run_rounds(4) == []
        piggy_cost = simulator.network.messages_sent - before
        assert piggy_cost < full_cost / 2
        assert piggy.suspected() == {}

    def test_ordinary_traffic_substitutes_for_probes(self):
        """A peer heard from through protocol traffic is not probed."""
        simulator = build_simulator(count=60, seed=32)
        detector = HeartbeatDetector(simulator, config=HeartbeatConfig(
            piggyback=True))
        detector.run_round()  # seeds freshness via crossing probes
        cost_idle = simulator.network.sent_by_kind.get("PING", 0)
        rng = RandomSource(5)
        for _ in range(30):
            simulator.query(rng.random_point())
        detector.run_round()
        detector.run_round()
        assert detector.suspected() == {}
        # With traffic continuously refreshing edges, total pings stay far
        # below two additional full-probe rounds.
        assert simulator.network.sent_by_kind.get("PING", 0) < 3 * cost_idle

    def test_retired_piggyback_detector_cannot_poison_full_probe(self):
        """Regression: a piggyback detector's leftover probe bookkeeping
        (round numbers in ``last_ping_round``) must never suppress PONGs
        answered to a *later* full-probe detector — the eras stamped into
        piggyback probes keep the entries from matching."""
        simulator = build_simulator(count=40, seed=36)
        HeartbeatDetector(simulator, config=HeartbeatConfig(
            piggyback=True)).run_rounds(2)
        follow_up = HeartbeatDetector(
            simulator, config=HeartbeatConfig(miss_threshold=1))
        assert follow_up.run_round() == []
        assert follow_up.suspected() == {}

    def test_idle_overlay_crash_detected_without_traffic(self):
        """Regression: freshness must age in *rounds*, not virtual time.

        Synchronous rounds on an idle overlay barely advance the clock, so
        a time-based freshness window freezes after the first probing
        round and a later crash would never be probed again.  Idle rounds
        first, then a crash, then detection within the documented
        2·miss_threshold + sample_period budget."""
        config = HeartbeatConfig(piggyback=True, sample_fraction=0.25)
        simulator = build_simulator(count=60, seed=34)
        detector = HeartbeatDetector(simulator, config=config)
        detector.run_rounds(5)  # idle: no traffic besides the probes
        assert detector.suspected() == {}
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(8))
        victims = set(injector.crash_random(5))
        budget = 2 * config.miss_threshold + config.sample_period + 2
        detector.run_rounds(budget)
        for node in simulator.nodes.values():
            for peer in node.monitored_peers():
                if peer in victims:
                    assert peer in node.suspects

    def test_sampled_detection_still_finds_all_damage(self):
        """Long-link/back-link edges are probed on a stride; every stale
        reference to a crashed peer must still be suspected within the
        threshold + freshness window + sampling period budget."""
        config = HeartbeatConfig(piggyback=True, sample_fraction=0.25)
        simulator = build_simulator(count=100, seed=33, num_long_links=2)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(3))
        victims = set(injector.crash_random(10))
        detector = HeartbeatDetector(simulator, config=config)
        budget = (2 * config.miss_threshold + config.sample_period + 2)
        for _ in range(budget):
            detector.run_round()
        for node in simulator.nodes.values():
            for peer in node.monitored_peers():
                if peer in victims:
                    assert peer in node.suspects
        report = RepairProtocol(simulator, detector=detector).repair()
        assert report.converged
        assert injector.assess_damage().total_stale_entries == 0
        assert simulator.verify_views() == []

    def test_piggyback_repair_converges_under_heavy_loss(self):
        """The acceptance scenario: 10% crash, 30% loss, piggyback and
        sampling on — detection and repair still converge in budget."""
        harness = ProtocolChurnHarness(
            num_objects=200, seed=33, churn_events=16, crash_fraction=0.1,
            loss_probability=0.3,
            heartbeat=HeartbeatConfig(piggyback=True, sample_fraction=0.25),
            max_detection_rounds=16, max_repair_rounds=32)
        report = harness.run()
        assert report.converged
        assert report.verify_problems == 0
        assert report.residual_damage.total_stale_entries == 0

    def test_steady_state_measurement_reports_reduction(self):
        harness = ProtocolChurnHarness(num_objects=150, seed=41,
                                       churn_events=0, crash_fraction=0.1,
                                       measure_liveness=True,
                                       liveness_rounds=3, liveness_queries=15)
        report = harness.run()
        steady = report.steady_state_liveness
        assert steady is not None
        assert steady["full_probe_messages"] > 0
        assert steady["piggyback_messages"] > 0
        assert steady["reduction"] >= 3.0
        # The measurement must not break the experiment itself.
        assert report.converged
        assert report.verify_problems == 0

    def test_measurement_is_reproducible(self):
        reports = [
            ProtocolChurnHarness(num_objects=120, seed=43, churn_events=8,
                                 crash_fraction=0.1, measure_liveness=True,
                                 liveness_rounds=2, liveness_queries=10).run()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]


# ----------------------------------------------------------------------
# protocol-vs-oracle crash parity, and repair
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def crashed_twins():
    """The same bulk batch through the oracle and the protocol simulator,
    with the same crash victims injected into both.

    Identical seeds keep the vectorised Choose-LRT draws byte-identical,
    so long links (targets *and* endpoints) match exactly — the
    precondition for damage parity under identical crash victims.
    """
    config = VoroNetConfig(n_max=1200, num_long_links=2, seed=515)
    positions = generate_objects(UniformDistribution(), 300,
                                 RandomSource(515))
    oracle = VoroNet(config)
    oracle_ids = oracle.bulk_load(positions)
    protocol = ProtocolSimulator(config, seed=515, faults=FaultPlane(seed=516))
    report = protocol.bulk_join(positions)
    assert report.object_ids == oracle_ids
    oracle_injector = CrashInjector(oracle)
    protocol_injector = ProtocolCrashInjector(protocol)
    # Same explicit victims in both modes (the two object_ids() orderings
    # differ, so crash_random with a shared seed would diverge).
    victims = RandomSource(99).choice(sorted(oracle_ids), size=30,
                                      replace=False)
    for victim in victims:
        oracle_injector.crash(victim)
        protocol_injector.crash(victim)
    return oracle_injector, protocol_injector, protocol


class TestProtocolOracleCrashParity:
    def test_same_victims_equivalent_damage(self, crashed_twins):
        oracle_injector, protocol_injector, _protocol = crashed_twins
        oracle_damage = oracle_injector.assess_damage()
        protocol_damage = protocol_injector.assess_damage()
        assert protocol_damage.crashed == oracle_damage.crashed
        assert protocol_damage.dangling_long_links == \
            oracle_damage.dangling_long_links
        assert protocol_damage.stale_close_neighbors == \
            oracle_damage.stale_close_neighbors
        assert protocol_damage.dangling_back_links == \
            oracle_damage.dangling_back_links
        assert protocol_damage.total_stale_entries > 0
        # Only the protocol mode can have stale Voronoi views (the oracle
        # derives them from the kernel).
        assert oracle_damage.stale_voronoi_entries == 0
        assert protocol_damage.stale_voronoi_entries > 0

    def test_both_modes_repair_clean(self, crashed_twins):
        oracle_injector, protocol_injector, protocol = crashed_twins
        fixed = oracle_injector.repair()
        assert fixed > 0
        assert oracle_injector.assess_damage().total_stale_entries == 0

        detector = HeartbeatDetector(protocol)
        detector.run_rounds(2)
        report = RepairProtocol(protocol, detector=detector).repair()
        assert report.converged
        residual = protocol_injector.assess_damage()
        assert residual.total_stale_entries == 0
        assert protocol.verify_views() == []


class TestRepairProtocol:
    def test_repair_without_suspects_is_a_noop(self):
        simulator = build_simulator(count=40, seed=11)
        report = RepairProtocol(simulator).repair()
        assert report.converged
        assert report.rounds <= 1
        assert report.suspects_processed == 0

    def test_repair_converges_under_message_loss(self):
        simulator = build_simulator(count=150, seed=13)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(4))
        injector.crash_random(15)
        simulator.faults.set_loss(0.15)
        detector = HeartbeatDetector(simulator)
        detector.run_rounds(3)
        report = RepairProtocol(simulator, detector=detector,
                                max_rounds=16).repair()
        simulator.faults.set_loss(0.0)
        assert report.converged
        assert injector.assess_damage().total_stale_entries == 0
        assert simulator.verify_views() == []

    def test_false_suspicion_restores_close_entries(self):
        """Suspicion scrubs close entries destructively; once a live
        suspect is exonerated, close re-discovery must restore the entry
        even though the suspect list is empty by the close phase —
        symmetry and totals end up exactly as before the faults."""
        def close_state(sim):
            holes = sum(1 for oid, node in sim.nodes.items()
                        for cid in node.close
                        if oid not in sim.nodes[cid].close)
            return holes, sum(len(n.close) for n in sim.nodes.values())

        simulator = build_simulator(count=150, seed=13, loss=0.0)
        _, total_before = close_state(simulator)
        assert total_before > 0
        simulator.faults.set_loss(0.35)
        detector = HeartbeatDetector(simulator)
        detector.run_rounds(4)          # heavy loss: false suspicion forms
        report = RepairProtocol(simulator, detector=detector,
                                max_rounds=32).repair()
        simulator.faults.set_loss(0.0)
        assert report.converged
        holes, total_after = close_state(simulator)
        assert holes == 0
        assert total_after == total_before
        assert simulator.verify_views() == []

    def test_repaired_overlay_serves_queries(self):
        simulator = build_simulator(count=120, seed=14)
        injector = ProtocolCrashInjector(simulator, rng=RandomSource(5))
        injector.crash_random(12)
        detector = HeartbeatDetector(simulator)
        detector.run_rounds(2)
        assert RepairProtocol(simulator, detector=detector).repair().converged
        rng = RandomSource(6)
        ids = simulator.object_ids()
        for _ in range(15):
            destination = ids[rng.integer(0, len(ids))]
            answer = simulator.query(simulator.node(destination).position)
            assert answer.owner == destination


# ----------------------------------------------------------------------
# the churn harness
# ----------------------------------------------------------------------
class TestProtocolChurnHarness:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolChurnHarness(crash_fraction=1.0)

    def test_full_cycle_converges_with_accounting(self):
        harness = ProtocolChurnHarness(num_objects=250, seed=17,
                                       churn_events=24, crash_fraction=0.1)
        report = harness.run()
        assert report.converged
        assert report.verify_problems == 0
        assert report.residual_damage.total_stale_entries == 0
        assert report.damage.total_stale_entries > 0
        assert report.churn_joins > 0 and report.churn_leaves > 0
        for phase in ("build", "churn", "detect", "repair"):
            assert report.phase_messages[phase] > 0
        repair_total = sum(count for key, count in report.phase_messages.items()
                           if key.startswith("repair:"))
        assert repair_total == report.phase_messages["repair"]

    def test_full_cycle_converges_under_heavy_loss(self):
        """30% loss needs a proportionately larger round budget (rounds
        are retry-safe; each one lands a geometric share of the work)."""
        harness = ProtocolChurnHarness(num_objects=200, seed=33,
                                       churn_events=16, crash_fraction=0.1,
                                       loss_probability=0.3,
                                       max_repair_rounds=32)
        report = harness.run()
        assert report.converged
        assert report.verify_problems == 0
        assert report.residual_damage.total_stale_entries == 0
        assert report.repair.rounds > 1  # loss really made rounds retry

    def test_churn_event_count_is_exact(self):
        harness = ProtocolChurnHarness(num_objects=150, seed=37,
                                       churn_events=20, crash_fraction=0.05)
        report = harness.run()
        assert report.churn_joins + report.churn_leaves == 20

    def test_reproducible_from_seed(self):
        reports = [
            ProtocolChurnHarness(num_objects=150, seed=23, churn_events=16,
                                 crash_fraction=0.1).run()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_trace_records_the_fault_timeline(self):
        from repro.simulation.trace import TraceRecorder

        trace = TraceRecorder()
        harness = ProtocolChurnHarness(num_objects=150, seed=31,
                                       churn_events=0, crash_fraction=0.1,
                                       trace=trace)
        report = harness.run()
        counts = trace.counts_by_kind()
        assert counts["crash"] == report.crashed
        assert counts["repair_round"] == report.repair.rounds
        assert counts["suspect"] >= report.damage.affected_objects

    def test_churn_scheduler_teardown_leaves_engine_quiescent(self):
        harness = ProtocolChurnHarness(num_objects=120, seed=29,
                                       churn_events=16, crash_fraction=0.05)
        harness.run()
        assert harness.scheduler is not None
        assert harness.simulator.engine.quiescent
        # A batched operation is immediately usable after teardown.
        harness.simulator.bulk_join([(0.123456, 0.654321)])


# ----------------------------------------------------------------------
# partition edge cases (crash-at-any-message hardening)
# ----------------------------------------------------------------------
class TestPartitionEdgeCases:
    """Boundary semantics of partition windows on the virtual clock.

    A partition is a two-sided split: the isolated ids on one side, the
    rest on the other.  The fault plane decides a message's fate at
    *send* time, and the window is half-open (``start <= now < end``).
    These tests pin both facts: a message sent before the window opens sails through even
    though its delivery lands inside the window, and the exact boundary
    instants behave deterministically (window start cuts, window end
    does not, a crash landing on the boundary takes precedence).
    """

    def test_message_sent_before_window_delivers_inside_it(self):
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.network import ConstantLatency, Network

        engine = SimulationEngine()
        network = Network(engine, ConstantLatency(10.0))
        plane = FaultPlane(seed=5)
        network.faults = plane
        received = []
        network.register(1, lambda message: None)
        network.register(2, lambda message: received.append(
            (engine.now, message.kind)))
        plane.split([[2], [1]], start=5.0, end=20.0)
        # Sent at t=0 (window closed), delivered at t=10 (window open):
        # the decision was taken at send time, so it goes through.
        network.send(Message(sender=1, recipient=2, kind="EARLY"))
        # Sent at t=6 (window open): cut, even though its delivery at
        # t=16 would also land inside the window.
        engine.schedule(6.0, lambda: network.send(
            Message(sender=1, recipient=2, kind="INSIDE")))
        engine.run()
        assert received == [(10.0, "EARLY")]
        assert plane.drops_by_reason == {"partition": 1}

    def test_crash_landing_exactly_on_window_boundary(self):
        from repro.simulation.engine import SimulationEngine
        from repro.simulation.network import ConstantLatency, Network

        engine = SimulationEngine()
        network = Network(engine, ConstantLatency(1.0))
        plane = FaultPlane(seed=6)
        network.faults = plane
        received = []
        network.register(1, lambda message: None)
        network.register(2, lambda message: received.append(message.kind))
        plane.split([[2], [1]], start=5.0, end=10.0)
        # t=5 exactly: the half-open window includes its start — cut.
        engine.schedule(5.0, lambda: network.send(
            Message(sender=1, recipient=2, kind="AT_START")))
        # t=10 exactly: the window excludes its end, but a crash lands on
        # the same boundary instant first — the fixed decision order
        # (crash before partition) must classify the drop as a crash.
        engine.schedule(10.0, lambda: plane.crash(2))
        engine.schedule(10.0, lambda: network.send(
            Message(sender=1, recipient=2, kind="AT_END")))
        engine.run()
        assert received == []
        assert plane.drops_by_reason == {"partition": 1,
                                         "crashed_recipient": 1}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16),
           start=st.floats(0.0, 50.0, allow_nan=False),
           duration=st.floats(0.001, 50.0, allow_nan=False),
           crash_on_boundary=st.booleans(),
           at_end=st.booleans())
    def test_boundary_decisions_pinned(self, seed, start, duration,
                                       crash_on_boundary, at_end):
        """Seeded planes agree exactly at both window boundary instants."""
        from hypothesis import assume

        end = start + duration
        assume(end > start)
        decisions = []
        for _ in range(2):
            plane = FaultPlane(seed=seed)
            plane.split([[2], [1]], start=start, end=end)
            if crash_on_boundary:
                plane.crash(1)
            now = end if at_end else start
            decisions.append(plane.decide(
                Message(sender=1, recipient=2, kind="X"), now))
        assert decisions[0] == decisions[1]
        decision = decisions[0]
        if crash_on_boundary:
            assert not decision.deliver
            assert decision.reason == "crashed_sender"
        elif at_end:
            assert decision.deliver
        else:
            assert not decision.deliver
            assert decision.reason == "partition"
