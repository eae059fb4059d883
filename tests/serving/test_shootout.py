"""Shoot-out harness and the oracle-vs-protocol twin-parity guarantee."""

import pytest

from repro.serving.harness import (build_adapters, make_flash_sampler,
                                   make_sampler, run_protocol_serving,
                                   run_shootout, twin_parity)
from repro.workloads.samplers import (FlashCrowdTargets, HotspotTargets,
                                      UniformTargets, ZipfTargets)


class TestTwinParity:
    """Acceptance criterion: oracle-mode and protocol-mode serving produce
    identical hop counts on the same seed and workload at small scale."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_hop_parity_under_contention(self, seed):
        result = twin_parity(120, 240, seed=seed, concurrency=0)
        assert result["parity"]
        assert result["hop_mismatches"] == 0
        assert result["oracle_total_hops"] == result["protocol_total_hops"]

    def test_hop_parity_closed_loop(self):
        result = twin_parity(100, 200, seed=3, concurrency=6)
        assert result["parity"]
        assert result["hop_mismatches"] == 0


class TestSamplerFactory:
    def test_known_workloads(self):
        positions, _adapters = build_adapters(64, seed=1, systems=("chord",))
        assert isinstance(make_sampler("uniform", 64, positions),
                          UniformTargets)
        assert isinstance(make_sampler("zipf", 64, positions), ZipfTargets)
        assert isinstance(make_sampler("hotspot", 64, positions),
                          HotspotTargets)

    def test_flash_needs_dedicated_factory(self):
        positions, _adapters = build_adapters(64, seed=1, systems=("chord",))
        with pytest.raises(ValueError, match="make_flash_sampler"):
            make_sampler("flash", 64, positions)
        flash = make_flash_sampler(64, positions, 300, seed=2)
        assert isinstance(flash, FlashCrowdTargets)
        assert len(flash.phases) == 3

    def test_unknown_workload_rejected(self):
        positions, _adapters = build_adapters(64, seed=1, systems=("chord",))
        with pytest.raises(ValueError):
            make_sampler("bogus", 64, positions)


class TestShootout:
    @pytest.fixture(scope="class")
    def record(self):
        return run_shootout(144, 600, seed=4, workloads=("uniform", "zipf"),
                            concurrency=6)

    def test_record_structure(self, record):
        assert record["population"] == 144
        assert record["queries_per_workload"] == 600
        assert set(record["systems"]) == {"voronet", "kleinberg", "chord"}
        for system, by_workload in record["systems"].items():
            assert set(by_workload) == {"uniform", "zipf"}, system
            for report in by_workload.values():
                assert report["queries"] == 600
                assert report["success_rate"] == 1.0
                assert report["hops"]["p50"] <= report["hops"]["p99"]
                assert report["throughput_qps"] > 0
                assert report["load"]["gini"] >= 0

    def test_skew_raises_imbalance(self, record):
        for system, by_workload in record["systems"].items():
            assert (by_workload["zipf"]["load"]["max_mean"]
                    > by_workload["uniform"]["load"]["max_mean"]), system

    def test_deterministic_without_clock(self, record):
        again = run_shootout(144, 600, seed=4, workloads=("uniform", "zipf"),
                             concurrency=6)
        assert again == record

    def test_wall_clock_section_optional(self):
        ticks = iter(range(1000))
        record = run_shootout(64, 100, seed=1, workloads=("uniform",),
                              systems=("chord",),
                              clock=lambda: float(next(ticks)))
        report = record["systems"]["chord"]["uniform"]
        assert report["wall_seconds"] > 0
        assert report["wall_qps"] > 0


class TestProtocolServing:
    def test_protocol_record(self):
        report = run_protocol_serving(90, 180, seed=6, concurrency=5)
        assert report["system"] == "voronet-protocol"
        assert report["mode"] == "closed-protocol"
        assert report["queries"] == 180
        assert report["success_rate"] == 1.0
        assert report["concurrency"] == 5
        # Answer delivery adds at least one unit beyond the query hops.
        assert report["latency"]["p50"] > report["hops"]["p50"]

    def test_load_without_paths_is_not_measured(self):
        """No recorded route paths means no load figures — never zeros."""
        report = run_protocol_serving(90, 180, seed=6, concurrency=5)
        assert report["load"] is None

    def test_load_with_paths_is_measured(self):
        report = run_protocol_serving(90, 180, seed=6, concurrency=5,
                                      record_paths=True)
        load = report["load"]
        # Every served query's path holds its source and every hop.
        assert load["total"] == pytest.approx(
            report["served"] * (1 + report["hops"]["mean"]))
        assert load["nodes_hit"] > 0
        assert load["gini"] > 0
