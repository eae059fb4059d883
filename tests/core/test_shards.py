"""Tests of the overlay's per-shard routing-table epochs.

A shard is one cell of a ``2^L × 2^L`` grid over the unit square, with
``L`` derived from ``n_max`` and cells numbered row-major; the overlay
keeps one epoch per cell and computes an object's cell from its
position.  Four layers:

* **epoch semantics** — a targeted invalidation bumps exactly the cells
  of the live ids it names, once each, and skips departed ids; a bare
  call bumps every cell; the epoch list is mutated in place;
* **sharded vs flat equivalence** — twin overlays differing only in
  shard level answer identically (owners, hops, views) through churn,
  and both equal the per-hop view-assembly reference (the
  ``routing_reference`` fixture): sharding changes *when tables
  rebuild*, never what they contain;
* **per-shard invalidation** — churn inside one shard leaves warm tables
  of a distant shard untouched (``routing_table_rebuilds`` stays flat),
  while a single global epoch (level 0) rebuilds all of them;
* a Hypothesis suite hammering shard-*boundary* inserts/removes (points
  on and around the grid lines, where clamping and cell assignment could
  disagree), checking every cached entry's shard against the cell of its
  object's position.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import VoroNet, VoroNetConfig


def _cell(position, level):
    """Row-major grid cell of a position, computed independently of the
    overlay (``x == 1.0`` clamps into the last column)."""
    side = 1 << level
    ix = min(int(position[0] * side), side - 1)
    iy = min(int(position[1] * side), side - 1)
    return ix * side + iy


def _assert_entry_shards_match_cells(overlay):
    """Warm every table, then check each cached entry's shard index is the
    cell of its object's position and its recorded epoch is current."""
    level = overlay.config.effective_shard_level
    for object_id in overlay.object_ids():
        overlay.routing_table(object_id, True)
        overlay.routing_table(object_id, False)
    for variant in overlay._routing_tables.values():
        assert set(variant) == set(overlay.object_ids())
        for object_id, entry in variant.items():
            assert entry[4] == _cell(overlay.position_of(object_id), level)
            assert entry[0] == overlay._epochs[entry[4]]


class TestShardLevel:
    @pytest.mark.parametrize("n_max, level", [
        (1, 0), (1023, 0), (1024, 1), (4096, 2), (16384, 3), (10**9, 8)])
    def test_level_derives_from_n_max(self, n_max, level):
        assert VoroNetConfig(n_max=n_max).effective_shard_level == level
        overlay = VoroNet(VoroNetConfig(n_max=n_max))
        assert len(overlay._epochs) == 4 ** level


def _two_cell_overlay():
    """Level-2 overlay (n_max 4096, 16 cells) with objects in opposite
    corner cells: ids[0] at (0.1, 0.1) is cell 0, ids[1] at (0.9, 0.9) is
    cell 15."""
    overlay = VoroNet(VoroNetConfig(n_max=4096, seed=41))
    ids = overlay.bulk_load([(0.1, 0.1), (0.9, 0.9), (0.1, 0.9), (0.9, 0.1),
                             (0.55, 0.45)])
    assert overlay.config.effective_shard_level == 2
    return overlay, ids


class TestEpochSemantics:
    def test_epoch_list_is_mutated_in_place(self):
        """The routing loop hoists the epoch list once; bumps must stay
        visible through that reference."""
        overlay, ids = _two_cell_overlay()
        hoisted = overlay._epochs
        before = list(hoisted)
        overlay.invalidate_routing_tables([ids[0]])
        assert hoisted is overlay._epochs
        assert hoisted[0] == before[0] + 1
        overlay.invalidate_routing_tables()
        assert hoisted is overlay._epochs
        assert hoisted[0] == before[0] + 2

    def test_targeted_bump_touches_only_holding_shards(self):
        overlay, ids = _two_cell_overlay()
        before = list(overlay._epochs)
        overlay.invalidate_routing_tables([ids[0]])
        expected = list(before)
        expected[0] += 1
        assert overlay._epochs == expected
        # A live id bumps its cell once however often it is named; a
        # departed id is skipped.
        departed = ids[4]
        overlay.remove(departed)
        before = list(overlay._epochs)
        overlay.invalidate_routing_tables([ids[1], ids[1], departed, 10**6])
        expected = list(before)
        expected[15] += 1
        assert overlay._epochs == expected

    def test_bump_all_touches_every_shard(self):
        overlay, _ids = _two_cell_overlay()
        before = list(overlay._epochs)
        overlay.invalidate_routing_tables()
        assert overlay._epochs == [epoch + 1 for epoch in before]


def _twin_overlays():
    """Two overlays differing only in shard level: n_max 4096 derives level
    2, n_max 1000 level 0 (one global epoch), and a shared explicit
    ``d_min`` keeps close neighbours and long links identical."""
    d_min = VoroNetConfig(n_max=4096).effective_d_min
    sharded, flat = (VoroNet(VoroNetConfig(n_max=n_max, d_min=d_min,
                                           num_long_links=1, seed=3100))
                     for n_max in (4096, 1000))
    assert sharded.config.effective_shard_level == 2
    assert flat.config.effective_shard_level == 0
    return sharded, flat


class TestShardedFlatEquivalence:
    def test_answers_identical_through_churn(self, routing_reference):
        """Owners, hops and views stay identical between a level-2 overlay
        and its one-epoch twin through bulk load + churn bursts, and both
        equal the per-hop reference: sharding changes when tables rebuild,
        never what they contain."""
        sharded, flat = _twin_overlays()
        pool = np.random.default_rng(31)
        batch = [tuple(p) for p in pool.random((300, 2))]
        sharded.bulk_load(batch)
        flat.bulk_load(batch)

        probe = np.random.default_rng(32)
        for _ in range(2):
            ids = sharded.object_ids()
            for object_id in probe.choice(ids, size=20, replace=False):
                sharded.remove(int(object_id))
                flat.remove(int(object_id))
            for point in pool.random((20, 2)):
                sharded.insert(tuple(point))
                flat.insert(tuple(point))

            assert sharded.object_ids() == flat.object_ids()
            ids = sharded.object_ids()
            for object_id in probe.choice(ids, size=25, replace=False):
                assert sharded.neighbor_view(int(object_id)) == \
                    flat.neighbor_view(int(object_id))
            for point in probe.random((25, 2)):
                point = tuple(point)
                lookup = sharded.lookup(point)
                assert sharded.owner_of(point) == lookup.owner
                assert (lookup.owner, lookup.hops) == \
                    routing_reference.reference_route(sharded, lookup.source,
                                                      point)
                lookup_f = flat.lookup(point, start=lookup.source)
                assert (lookup_f.owner, lookup_f.hops) == \
                    (lookup.owner, lookup.hops)
            for a, b in [probe.choice(ids, size=2, replace=False)
                         for _ in range(25)]:
                route = sharded.route(int(a), int(b))
                routing_reference.assert_matches_reference(
                    route, sharded, sharded.position_of(int(b)))
                route_f = flat.route(int(a), int(b))
                assert (route_f.owner, route_f.hops) == \
                    (route.owner, route.hops)

        for overlay in (sharded, flat):
            assert overlay.check_consistency() == []
            routing_reference.assert_tables_match_views(overlay)


class TestEntryShards:
    def test_every_cached_entry_shard_is_its_position_cell(self):
        overlay = VoroNet(VoroNetConfig(n_max=4096, seed=57))
        rng = np.random.default_rng(57)
        ids = overlay.bulk_load([tuple(p) for p in rng.random((200, 2))])
        for object_id in ids[:30]:
            overlay.remove(object_id)
        for point in rng.random((30, 2)):
            overlay.insert(tuple(point))
        # Corners and edges clamp into the last row/column.
        overlay.bulk_load([(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 1.0)])
        _assert_entry_shards_match_cells(overlay)


def _corner_overlay(n_max):
    """Filler grid plus dense corner clusters A (0.1,0.1) and B (0.9,0.9).

    The filler keeps Delaunay adjacency local, so churn inside cluster A
    cannot touch cluster B's forwarding candidates; ``num_long_links=0``
    removes the one link type whose invalidation legitimately crosses the
    square.
    """
    overlay = VoroNet(VoroNetConfig(n_max=n_max, num_long_links=0, seed=77))
    filler = [((i + 0.5) / 12, (j + 0.5) / 12)
              for i in range(12) for j in range(12)]
    rng = np.random.default_rng(77)
    cluster_a = [(0.08 + 0.04 * x, 0.08 + 0.04 * y) for x, y in rng.random((15, 2))]
    cluster_b = [(0.88 + 0.04 * x, 0.88 + 0.04 * y) for x, y in rng.random((15, 2))]
    overlay.bulk_load(filler + cluster_a)
    b_ids = overlay.bulk_load(cluster_b)
    return overlay, b_ids


class TestPerShardInvalidation:
    def test_churn_in_one_shard_leaves_distant_tables_warm(self):
        overlay, b_ids = _corner_overlay(n_max=4096)
        assert overlay.config.effective_shard_level == 2
        for object_id in b_ids:
            overlay.routing_table(object_id)
        # Insert + remove inside cluster A, far from every B shard.  (The
        # join itself may build tables along its route, so the counter is
        # read after the churn: only re-request rebuilds are measured.)
        victim = overlay.insert((0.1, 0.12))
        overlay.remove(victim)
        before = overlay.stats.routing_table_rebuilds
        for object_id in b_ids:
            overlay.routing_table(object_id)
        assert overlay.stats.routing_table_rebuilds == before

    def test_flat_baseline_rebuilds_everything(self):
        overlay, b_ids = _corner_overlay(n_max=1000)
        assert overlay.config.effective_shard_level == 0
        for object_id in b_ids:
            overlay.routing_table(object_id)
        victim = overlay.insert((0.1, 0.12))
        overlay.remove(victim)
        before = overlay.stats.routing_table_rebuilds
        for object_id in b_ids:
            overlay.routing_table(object_id)
        # The global epoch invalidated every warm table.
        assert overlay.stats.routing_table_rebuilds == before + len(b_ids)

    def test_churn_inside_shard_does_invalidate_it(self):
        """Sanity check that the targeted bump is not simply never firing:
        churn next to cluster B must rebuild B's tables."""
        overlay, b_ids = _corner_overlay(n_max=4096)
        for object_id in b_ids:
            overlay.routing_table(object_id)
        victim = overlay.insert((0.9, 0.91))
        overlay.remove(victim)
        before = overlay.stats.routing_table_rebuilds
        for object_id in b_ids:
            overlay.routing_table(object_id)
        assert overlay.stats.routing_table_rebuilds > before


#: Level 3 (grid pitch 1/8) derives from this n_max.
_LEVEL3_N_MAX = 16384

#: Coordinates on and around level-3 shard boundaries (grid pitch 1/8),
#: including the square's edges and exact grid lines.
_boundary_coord = st.one_of(
    st.sampled_from([0.0, 1.0, 0.125, 0.25, 0.5, 0.875]),
    st.builds(lambda k, e: min(max(k / 8 + e, 0.0), 1.0),
              st.integers(min_value=0, max_value=8),
              st.floats(min_value=-1e-9, max_value=1e-9)),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


class TestShardBoundaryHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(_boundary_coord, _boundary_coord),
                           min_size=1, max_size=40, unique=True),
           removals=st.lists(st.integers(min_value=0), max_size=20))
    def test_entry_shards_match_cells_under_boundary_churn(self, points,
                                                          removals):
        overlay = VoroNet(VoroNetConfig(n_max=_LEVEL3_N_MAX, seed=5))
        assert overlay.config.effective_shard_level == 3
        for point in points:
            overlay.insert(point)
        for token in removals:
            ids = overlay.object_ids()
            if len(ids) <= 1:
                break
            overlay.remove(sorted(ids)[token % len(ids)])
        _assert_entry_shards_match_cells(overlay)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    # Seeds that snapped two points into one corner cell, where clipping
    # put both jittered copies on the same point.
    @example(seed=960)
    @example(seed=1328)
    @example(seed=58232)
    def test_overlay_boundary_churn_matches_reference(self, seed,
                                                      routing_reference):
        """Overlay-level churn with positions snapped near shard lines."""
        rng = np.random.default_rng(seed)
        snapped = np.round(rng.random((24, 2)) * 8) / 8
        jitter = (rng.random((24, 2)) - 0.5) * 1e-6
        # One point per snapped grid cell, in draw order: distinct cells
        # stay distinct after the sub-cell jitter and the clip.
        _cells, first = np.unique(snapped, axis=0, return_index=True)
        keep = np.sort(first)
        points = np.clip(snapped[keep] + jitter[keep], 0.0, 1.0)
        overlay = VoroNet(VoroNetConfig(n_max=_LEVEL3_N_MAX, seed=seed,
                                        num_long_links=1))
        ids = []
        for point in points:
            ids.append(overlay.insert(tuple(point)))
        for object_id in ids[: len(ids) // 2]:
            overlay.remove(object_id)
        assert overlay.check_consistency() == []
        alive = overlay.object_ids()
        for source in alive:
            for target in alive:
                routing_reference.assert_matches_reference(
                    overlay.route(source, target), overlay,
                    overlay.position_of(target))
        _assert_entry_shards_match_cells(overlay)
