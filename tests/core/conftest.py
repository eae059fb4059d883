"""Ground truth for the routing-table tests of this directory.

Greedy forwarding by per-hop view assembly: every step scans a freshly
built ``NeighborView`` instead of a cached routing table.  The cached
routes of :class:`~repro.core.overlay.VoroNet` must match it hop for hop,
whatever the cache or shard state.  Test modules reach these helpers
through the ``routing_reference`` fixture.
"""

from types import SimpleNamespace

import pytest

from repro.geometry.point import distance, distance_sq


def fresh_routing_sets(overlay, object_id):
    """Forwarding candidates assembled from a fresh view: ``(with long
    links, Delaunay-only)``."""
    view = overlay.neighbor_view(object_id)
    with_links = view.routing_neighbors
    delaunay_only = set(view.voronoi) | set(view.close)
    delaunay_only.discard(object_id)
    return with_links, delaunay_only


def assert_tables_match_views(overlay):
    """Every cached table equals the freshly assembled view of its object."""
    for object_id in overlay.object_ids():
        with_links, delaunay_only = fresh_routing_sets(overlay, object_id)
        for use_long_links, expected in ((True, with_links),
                                         (False, delaunay_only)):
            ids, positions = overlay.routing_table(object_id, use_long_links)
            assert set(int(i) for i in ids) == expected
            assert positions.shape == (len(ids), 2)
            for row, candidate in enumerate(ids):
                assert tuple(positions[row]) == \
                    overlay.position_of(int(candidate))


def reference_step(overlay, current, target, use_long_links=True):
    """Greedy step by per-hop view assembly: a sorted scan over a fresh
    ``NeighborView``, forwarding only on a strictly smaller distance."""
    with_links, delaunay_only = fresh_routing_sets(overlay, current)
    best = None
    best_d = distance_sq(overlay.position_of(current), target)
    for neighbor in sorted(with_links if use_long_links else delaunay_only):
        d = distance_sq(overlay.position_of(neighbor), target)
        if d < best_d:
            best, best_d = neighbor, d
    return best


def reference_route(overlay, source, target, use_long_links=True):
    """``(owner, hops)`` of greedy routing by per-hop view assembly."""
    target = (float(target[0]), float(target[1]))
    current, hops = source, 0
    while True:
        nxt = reference_step(overlay, current, target, use_long_links)
        if nxt is None:
            return current, hops
        current, hops = nxt, hops + 1


def reference_stopping_rule(overlay, source, target):
    """``(owner, hops)`` of the Algorithm 5 stopping rule, same reference."""
    target = (float(target[0]), float(target[1]))
    d_min = overlay.config.effective_d_min
    current, hops = source, 0
    while True:
        current_distance = distance(overlay.position_of(current), target)
        if current_distance <= d_min:
            return current, hops
        if overlay.distance_to_region(current, target) <= current_distance / 3.0:
            return current, hops
        nxt = reference_step(overlay, current, target)
        if nxt is None:
            return current, hops
        current, hops = nxt, hops + 1


def assert_matches_reference(result, overlay, target, use_long_links=True):
    """A routed result agrees with the reference from the same source."""
    owner, hops = reference_route(overlay, result.source, target,
                                  use_long_links)
    assert (result.owner, result.hops) == (owner, hops)


@pytest.fixture(scope="session")
def routing_reference():
    """The reference helpers above (session-scoped, so Hypothesis tests
    may use it too)."""
    return SimpleNamespace(
        fresh_routing_sets=fresh_routing_sets,
        assert_tables_match_views=assert_tables_match_views,
        reference_route=reference_route,
        reference_stopping_rule=reference_stopping_rule,
        assert_matches_reference=assert_matches_reference,
    )
