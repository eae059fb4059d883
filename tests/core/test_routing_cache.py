"""Tests of the epoch-cached flat routing tables.

Three layers of protection for the routing hot path:

* a Hypothesis *stateful* machine interleaving inserts, removes, bulk
  loads and long-link churn, asserting after every step that each cached
  table equals a freshly assembled view (the module-level contract of
  :mod:`repro.core.overlay`);
* a churn stress test at N≈500 keeping ``lookup`` / ``route`` answers
  identical to a per-hop view-assembly reference (the ``routing_reference``
  fixture of this directory's ``conftest.py``) through alternating insert/remove/link-reset bursts
  (locate-grid and table invalidation under churn);
* direct parity regressions against the same reference for ``route`` /
  ``route_many`` / ``lookup_many`` and the Algorithm 5 stopping rule.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import VoroNet, VoroNetConfig
from repro.core.errors import DuplicateObjectError
from repro.core.routing import route_with_stopping_rule
from repro.utils.rng import RandomSource
from repro.workloads.generators import generate_routing_pairs


@pytest.fixture(autouse=True)
def _bind_machine_reference(routing_reference):
    """Hand the shared reference to the stateful machine (Hypothesis
    builds its instances, so they cannot request fixtures themselves)."""
    RoutingCacheMachine.reference = routing_reference


class RoutingCacheMachine(RuleBasedStateMachine):
    """Arbitrary interleavings of topology mutations never leave a cached
    routing table out of sync with the fresh ``NeighborView``."""

    reference = None

    def __init__(self):
        super().__init__()
        self.overlay = VoroNet(VoroNetConfig(
            n_max=64, allow_overflow=True, num_long_links=2, seed=1202))
        self.last_epoch = self.overlay.topology_epoch

    def _pick(self, token):
        ids = self.overlay.object_ids()
        return ids[token % len(ids)]

    @rule(x=st.floats(0.01, 0.99), y=st.floats(0.01, 0.99))
    def insert_object(self, x, y):
        try:
            self.overlay.insert((x, y))
        except DuplicateObjectError:
            pass

    @rule(xs=st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
                      min_size=1, max_size=4))
    def bulk_load_batch(self, xs):
        try:
            self.overlay.bulk_load(xs)
        except DuplicateObjectError:
            pass

    @precondition(lambda self: len(self.overlay) > 1)
    @rule(token=st.integers(min_value=0))
    def remove_object(self, token):
        self.overlay.remove(self._pick(token))

    @precondition(lambda self: len(self.overlay) > 0)
    @rule(token=st.integers(min_value=0))
    def churn_long_links(self, token):
        self.overlay.reset_long_links(self._pick(token))

    @invariant()
    def epoch_is_monotone(self):
        epoch = self.overlay.topology_epoch
        assert epoch >= self.last_epoch
        self.last_epoch = epoch

    @invariant()
    def tables_equal_fresh_views(self):
        self.reference.assert_tables_match_views(self.overlay)


TestRoutingCacheStateful = RoutingCacheMachine.TestCase
TestRoutingCacheStateful.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None)


class TestChurnStress:
    def test_churn_bursts_keep_answers_identical(self, routing_reference):
        """Alternating insert/remove/link-churn bursts at N≈500: owner_of,
        lookup and route answer exactly as the per-hop view-assembly
        reference does, and the locate grid stays exactly in sync."""
        overlay = VoroNet(VoroNetConfig(n_max=2000, num_long_links=1,
                                        seed=501))
        pool = np.random.default_rng(501)
        overlay.bulk_load([tuple(p) for p in pool.random((500, 2))])

        probe_rng = np.random.default_rng(777)
        for burst in range(3):
            # Removal burst.
            ids = overlay.object_ids()
            for object_id in probe_rng.choice(ids, size=40, replace=False):
                overlay.remove(int(object_id))
            # Insert burst (routed joins).
            for point in pool.random((40, 2)):
                overlay.insert(tuple(point))
            # Long-link churn burst.
            ids = overlay.object_ids()
            for object_id in probe_rng.choice(ids, size=10, replace=False):
                overlay.reset_long_links(int(object_id))

            # The locate grid exactly in sync with the membership …
            assert set(overlay.object_ids()) == {
                oid for oid in overlay.object_ids()
                if oid in overlay.locate_index}
            assert len(overlay.locate_index) == len(overlay)
            # … and every answer identical to the reference.
            ids = overlay.object_ids()
            for point in probe_rng.random((30, 2)):
                point = tuple(point)
                lookup = overlay.lookup(point)
                assert overlay.owner_of(point) == lookup.owner
                routing_reference.assert_matches_reference(lookup, overlay,
                                                           point)
            for a, b in [probe_rng.choice(ids, size=2, replace=False)
                         for _ in range(30)]:
                route = overlay.route(int(a), int(b))
                routing_reference.assert_matches_reference(
                    route, overlay, overlay.position_of(int(b)))
            # … including the join-time Algorithm 5 stopping rule.
            for source, point in zip(probe_rng.choice(ids, size=10),
                                     probe_rng.random((10, 2))):
                early = route_with_stopping_rule(overlay, int(source),
                                                 tuple(point))
                assert (early.owner, early.hops) == \
                    routing_reference.reference_stopping_rule(
                        overlay, int(source), tuple(point))

        assert overlay.check_consistency() == []
        routing_reference.assert_tables_match_views(overlay)


class TestCacheParity:
    @pytest.fixture(scope="class")
    def overlay(self):
        overlay = VoroNet(VoroNetConfig(n_max=2000, num_long_links=2,
                                        seed=88))
        pool = np.random.default_rng(88)
        for point in pool.random((150, 2)):
            overlay.insert(tuple(point))
        return overlay

    @pytest.mark.parametrize("use_long_links", [True, False])
    def test_route_parity(self, overlay, use_long_links, routing_reference):
        ids = overlay.object_ids()
        rng = np.random.default_rng(5)
        for a, b in [rng.choice(ids, size=2, replace=False) for _ in range(40)]:
            route = overlay.route(int(a), int(b), use_long_links=use_long_links)
            routing_reference.assert_matches_reference(
                route, overlay, overlay.position_of(int(b)), use_long_links)

    @pytest.mark.parametrize("use_long_links", [True, False])
    def test_route_many_parity(self, overlay, use_long_links, routing_reference):
        pairs = list(generate_routing_pairs(
            overlay.object_ids(), 60, RandomSource(6)))
        results = overlay.route_many(pairs, use_long_links=use_long_links)
        assert [(r.owner, r.hops) for r in results] == [
            routing_reference.reference_route(overlay, a, overlay.position_of(b),
                                              use_long_links)
            for a, b in pairs]

    def test_lookup_many_parity(self, overlay, routing_reference):
        points = [tuple(p) for p in np.random.default_rng(7).random((60, 2))]
        for result, point in zip(overlay.lookup_many(points), points):
            routing_reference.assert_matches_reference(result, overlay, point)

    def test_stopping_rule_parity(self, overlay, routing_reference):
        """The Algorithm 5 stopping rule fires at the same hop as the
        reference's."""
        ids = overlay.object_ids()
        rng = np.random.default_rng(8)
        for _ in range(40):
            source = int(rng.choice(ids))
            target = tuple(rng.random(2))
            early = route_with_stopping_rule(overlay, source, target)
            assert (early.owner, early.hops) == \
                routing_reference.reference_stopping_rule(overlay, source, target)


class TestEpochContract:
    def test_epoch_bumps_on_every_mutation_kind(self):
        overlay = VoroNet(VoroNetConfig(n_max=64, seed=9))
        epoch = overlay.topology_epoch
        a = overlay.insert((0.2, 0.2))
        assert overlay.topology_epoch > epoch

        epoch = overlay.topology_epoch
        overlay.bulk_load([(0.7, 0.3), (0.4, 0.8), (0.6, 0.6)])
        assert overlay.topology_epoch > epoch

        epoch = overlay.topology_epoch
        overlay.reset_long_links(a)
        assert overlay.topology_epoch > epoch

        epoch = overlay.topology_epoch
        overlay.remove(a)
        assert overlay.topology_epoch > epoch

        epoch = overlay.topology_epoch
        overlay.invalidate_routing_tables()
        assert overlay.topology_epoch == epoch + 1

    def test_stale_table_rebuilt_after_direct_view_mutation(self):
        """External node mutations must call invalidate_routing_tables —
        after which the table reflects the new state."""
        overlay = VoroNet(VoroNetConfig(n_max=64, seed=10))
        ids = overlay.bulk_load([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        overlay.routing_table(ids[0])  # warm the cache
        overlay.node(ids[0]).add_close_neighbor(ids[2])
        overlay.node(ids[2]).add_close_neighbor(ids[0])
        overlay.invalidate_routing_tables()
        table_ids, _ = overlay.routing_table(ids[0])
        assert ids[2] in set(int(i) for i in table_ids)

    def test_removed_object_leaves_no_table_behind(self, routing_reference):
        overlay = VoroNet(VoroNetConfig(n_max=64, seed=11))
        ids = overlay.bulk_load([(0.1, 0.1), (0.9, 0.1), (0.5, 0.9), (0.5, 0.4)])
        for object_id in ids:
            overlay.routing_table(object_id)
        overlay.remove(ids[0])
        assert not any(ids[0] in variant
                       for variant in overlay._routing_tables.values())
        routing_reference.assert_tables_match_views(overlay)

    def test_warm_routes_rebuild_nothing(self):
        """Once every table a batch touches is built, re-routing the batch
        serves every hop from the cache: zero rebuilds."""
        overlay = VoroNet(VoroNetConfig(n_max=1000, seed=12))
        overlay.bulk_load([tuple(p) for p in
                           np.random.default_rng(12).random((300, 2))])
        pairs = list(generate_routing_pairs(
            overlay.object_ids(), 200, RandomSource(13)))
        overlay.route_many(pairs)
        before = overlay.stats.routing_table_rebuilds
        overlay.route_many(pairs)
        assert overlay.stats.routing_table_rebuilds == before
