"""Target samplers: seeded determinism and distribution shape."""

import numpy as np
import pytest

from repro.core.overlay import VoroNet
from repro.utils.rng import RandomSource
from repro.workloads.samplers import (FlashCrowdTargets, HotspotTargets,
                                      MovingObjects, UniformTargets,
                                      ZipfTargets)


def _positions(count, seed=0):
    rng = RandomSource(seed)
    return [tuple(p) for p in rng.generator.uniform(0.02, 0.98, (count, 2))]


class TestDeterminism:
    def test_same_seed_same_stream(self):
        for factory in (lambda s: UniformTargets(500, seed=s),
                        lambda s: ZipfTargets(500, alpha=1.1, seed=s)):
            a, b = factory(42), factory(42)
            np.testing.assert_array_equal(a.sample(1000), b.sample(1000))

    def test_different_seed_different_stream(self):
        a = ZipfTargets(500, alpha=1.1, seed=1)
        b = ZipfTargets(500, alpha=1.1, seed=2)
        assert not np.array_equal(a.sample(1000), b.sample(1000))

    def test_hotspot_deterministic(self):
        positions = _positions(400)
        a = HotspotTargets(positions, seed=9)
        b = HotspotTargets(positions, seed=9)
        np.testing.assert_array_equal(a.sample(500), b.sample(500))

    def test_split_draws_match_one_draw(self):
        whole = UniformTargets(300, seed=5).sample(400)
        split = UniformTargets(300, seed=5)
        parts = np.concatenate([split.sample(150), split.sample(250)])
        np.testing.assert_array_equal(whole, parts)


class TestZipfShape:
    def test_top_rank_mass_matches_expected(self):
        population, alpha, draws = 200, 1.0, 60_000
        sampler = ZipfTargets(population, alpha=alpha, seed=7)
        samples = sampler.sample(draws)
        counts = np.bincount(samples, minlength=population)
        # Empirical frequency of the most popular objects must match the
        # analytic Zipf mass on this fixed seed.
        for rank in (0, 1, 4):
            top_object = sampler.objects_by_rank[rank]
            empirical = counts[top_object] / draws
            expected = sampler.expected_mass(rank)
            assert empirical == pytest.approx(expected, rel=0.12), rank

    def test_mass_decreases_with_rank(self):
        sampler = ZipfTargets(50, alpha=2.0, seed=3)
        masses = [sampler.expected_mass(r) for r in range(50)]
        assert masses == sorted(masses, reverse=True)
        assert sum(masses) == pytest.approx(1.0)

    def test_ranking_is_a_seeded_permutation(self):
        sampler = ZipfTargets(100, alpha=1.0, seed=11)
        assert sorted(sampler.objects_by_rank.tolist()) == list(range(100))
        # rank_of inverts objects_by_rank
        for rank in (0, 42, 99):
            assert sampler.rank_of[sampler.objects_by_rank[rank]] == rank

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            ZipfTargets(10, alpha=0.0)


class TestHotspot:
    def test_hot_fraction_targets_in_disk(self):
        positions = _positions(600)
        sampler = HotspotTargets(positions, center=(0.5, 0.5), radius=0.15,
                                 hot_fraction=0.8, seed=2)
        assert len(sampler.hot_indices) > 0
        samples = sampler.sample(8000)
        inside = np.isin(samples, sampler.hot_indices).mean()
        # hot_fraction of queries pick inside explicitly; the uniform
        # branch adds a little more mass that also lands inside.
        assert inside > 0.8
        assert inside < 0.95

    def test_empty_disk_degrades_to_uniform(self):
        positions = [(0.9, 0.9), (0.95, 0.95), (0.85, 0.92)]
        sampler = HotspotTargets(positions, center=(0.1, 0.1), radius=0.05,
                                 hot_fraction=0.9, seed=4)
        assert len(sampler.hot_indices) == 0
        samples = sampler.sample(300)
        assert set(np.unique(samples)) <= {0, 1, 2}

    def test_validation(self):
        positions = _positions(10)
        with pytest.raises(ValueError):
            HotspotTargets(positions, radius=0.0)
        with pytest.raises(ValueError):
            HotspotTargets(positions, hot_fraction=1.5)
        with pytest.raises(ValueError):
            HotspotTargets([(0.5,)], radius=0.1)


class TestFlashCrowd:
    def test_phase_switching(self):
        population = 100
        hot = ZipfTargets(population, alpha=5.0, seed=1)
        flash = FlashCrowdTargets([
            (0, UniformTargets(population, seed=0)),
            (200, hot),
        ])
        first = flash.sample(200)
        second = flash.sample(200)
        # Phase 2 draws from the heavily skewed sampler: its unique-target
        # census collapses relative to uniform.
        assert len(np.unique(second)) < len(np.unique(first)) / 2

    def test_batch_spanning_boundary_matches_per_query_stream(self):
        def build():
            return FlashCrowdTargets([
                (0, UniformTargets(80, seed=3)),
                (50, ZipfTargets(80, alpha=2.0, seed=4)),
            ])

        batched = build().sample(120)
        stepped = build()
        per_query = np.concatenate([stepped.sample(1) for _ in range(120)])
        np.testing.assert_array_equal(batched, per_query)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowdTargets([])
        with pytest.raises(ValueError):
            FlashCrowdTargets([(5, UniformTargets(10, seed=0))])
        with pytest.raises(ValueError):
            FlashCrowdTargets([(0, UniformTargets(10, seed=0)),
                               (10, UniformTargets(20, seed=0))])


class TestMovingObjects:
    def _overlay(self, count=40, seed=1):
        overlay = VoroNet(n_max=count * 2, seed=seed)
        ids = overlay.bulk_load(_positions(count, seed=seed))
        return overlay, ids

    def test_move_reuses_id_and_changes_position(self):
        overlay, ids = self._overlay()
        mover = MovingObjects(seed=5, reuse_ids=True)
        before = {oid: overlay.position_of(oid) for oid in ids}
        old_id, new_id = mover.apply(overlay)
        assert old_id == new_id
        assert overlay.position_of(old_id) != before[old_id]
        assert len(overlay) == len(ids)

    def test_turnover_churn_allocates_fresh_id(self):
        overlay, ids = self._overlay()
        mover = MovingObjects(seed=5, reuse_ids=False)
        old_id, new_id = mover.apply(overlay)
        assert old_id != new_id
        assert old_id not in overlay
        assert new_id in overlay

    def test_seeded_replay_is_identical(self):
        trace = []
        for _ in range(2):
            overlay, _ids = self._overlay()
            mover = MovingObjects(seed=13)
            trace.append([mover.apply(overlay) for _ in range(10)])
        assert trace[0] == trace[1]

    def test_moves_counted(self):
        overlay, _ids = self._overlay()
        mover = MovingObjects(seed=2)
        for _ in range(3):
            mover.apply(overlay)
        assert mover.moves_applied == 3

    def test_clipped_jitter_never_lands_on_another_object(self):
        """A jitter clipped onto an occupied corner is drawn again instead of
        making ``insert`` reject the move as a duplicate."""
        corner = (1e-9, 1e-9)  # where MovingObjects clips a jitter to
        for seed in range(20):
            overlay = VoroNet(n_max=64, seed=seed)
            ids = overlay.bulk_load(_positions(20, seed=seed)
                                    + [corner, (0.002, 0.002)])
            mover = MovingObjects(seed=seed, step_sigma=1.0)
            mover.apply(overlay, ids[-1])
            assert overlay.position_of(ids[-2]) == corner
            assert overlay.position_of(ids[-1]) != corner
            assert overlay.check_consistency() == []

    def test_free_jitter_takes_a_single_draw(self):
        overlay, ids = self._overlay()
        mover, twin = MovingObjects(seed=5), MovingObjects(seed=5)
        expected = twin._jitter(overlay.position_of(ids[0]))
        mover.apply(overlay, ids[0])
        assert overlay.position_of(ids[0]) == expected
