"""Benchmark SHARD — million-object substrate: sharded epochs at scale.

Demonstrates the per-shard routing-table epochs on one machine:

* ``bulk_load`` of N = 10⁶ objects, plus a routing sweep over the result;
* the per-shard epoch claim — **rebuild work grows with shard size, not
  overlay size**: at each overlay size a fixed pool of warm routing
  tables is churned, and the tables rebuilt per churn event are counted.
  The baseline is a single global epoch, which rebuilds every distinct
  warm table on every churn event, so its count is the number of
  distinct tables in the pool and needs no second overlay.  Global-epoch
  rebuilds stay at the warm-pool size regardless of N; per-shard
  rebuilds shrink as the shard grid refines.

Two entry points:

* ``pytest benchmarks/bench_shard_scale.py`` — the CI smoke wrapper
  (sizes scaled by ``REPRO_BENCH_SCALE``, minutes → seconds);
* ``python benchmarks/bench_shard_scale.py --sizes 62500 250000 1000000
  --output benchmarks/BENCH_shard_scale.json`` — the standalone runner
  that produced the canonical million-object record.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import VoroNet, VoroNetConfig
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_position_array, generate_routing_pairs

#: Overlay sizes of the canonical record; the largest is the
#: acceptance-criterion scale (10⁶ objects on one machine).
DEFAULT_SIZES = (62_500, 250_000, 1_000_000)
DEFAULT_SEED = 4242
#: Warm routing tables per churn probe (the fixed "rebuildable" pool).
DEFAULT_WARM_TABLES = 2000
#: Insert/remove churn events per probe.
DEFAULT_CHURN_EVENTS = 20
DEFAULT_PAIRS = 20_000


def _build_overlay(positions, *, seed: int) -> Tuple[VoroNet, float]:
    """Bulk-load one overlay; returns it plus the build seconds."""
    config = VoroNetConfig(n_max=4 * len(positions), num_long_links=1, seed=seed)
    overlay = VoroNet(config)
    started = time.perf_counter()
    overlay.bulk_load(positions)
    return overlay, time.perf_counter() - started


def _churn_probe(overlay: VoroNet, *, warm_tables: int, churn_events: int,
                 seed: int) -> dict:
    """Count routing-table rebuilds a fixed churn load causes.

    Warms ``warm_tables`` tables, then alternates one insert+remove churn
    event with a full re-request of the warm pool, counting rebuilds per
    event.  A global epoch would rebuild every distinct table of the pool
    every event (``distinct_tables``); per-shard epochs rebuild only the
    tables whose shard the event touched.
    """
    rng = RandomSource(seed)
    ids = overlay.object_ids()
    warm = [ids[rng.integer(0, len(ids))] for _ in range(warm_tables)]
    for object_id in warm:
        overlay.routing_table(object_id)
    stats = overlay.stats
    rebuilds = 0
    for _ in range(churn_events):
        position = (rng.uniform(), rng.uniform())
        victim = overlay.insert(position)
        overlay.remove(victim)
        before = stats.routing_table_rebuilds
        for object_id in warm:
            overlay.routing_table(object_id)
        rebuilds += stats.routing_table_rebuilds - before
    return {
        "warm_tables": warm_tables,
        "distinct_tables": len(set(warm)),
        "churn_events": churn_events,
        "rebuilds": rebuilds,
        "rebuilds_per_event": round(rebuilds / churn_events, 1),
    }


def run_shard_scale(sizes: Sequence[int] = DEFAULT_SIZES, seed: int = DEFAULT_SEED,
                    *, warm_tables: int = DEFAULT_WARM_TABLES,
                    churn_events: int = DEFAULT_CHURN_EVENTS,
                    num_pairs: int = DEFAULT_PAIRS) -> dict:
    """Run the shard-scale benchmark; returns the JSON bench record."""
    sizes = sorted(set(int(s) for s in sizes))
    rng = RandomSource(seed)
    per_size: List[dict] = []
    headline: dict = {}
    for size in sizes:
        positions = generate_position_array(UniformDistribution(), size, rng)
        pool = min(warm_tables, max(64, size // 8))

        overlay, seconds_bulk = _build_overlay(positions, seed=seed)
        level = overlay.config.effective_shard_level
        probe = _churn_probe(overlay, warm_tables=pool,
                             churn_events=churn_events, seed=seed + 1)
        if size == sizes[-1]:
            consistency_problems = len(overlay.check_consistency())
            pairs = generate_routing_pairs(overlay.object_ids(), num_pairs,
                                           RandomSource(seed + 2))
            started = time.perf_counter()
            results = overlay.route_many(pairs)
            seconds_routing = time.perf_counter() - started
            hops = [r.hops for r in results if r.success]
            headline = {
                "objects": size,
                "level": level,
                "num_shards": 4 ** level,
                "seconds_bulk_load": round(seconds_bulk, 2),
                "objects_per_second": round(size / seconds_bulk),
                "consistency_problems": consistency_problems,
                "routing": {
                    "pairs": len(pairs),
                    "seconds": round(seconds_routing, 3),
                    "routes_per_second": round(len(pairs) / seconds_routing, 1),
                    "mean_hops": round(sum(hops) / max(len(hops), 1), 3),
                    "failures": len(results) - len(hops),
                },
            }
        del overlay

        # A single global epoch rebuilds every distinct warm table on every
        # churn event.
        flat_rebuilds = probe["distinct_tables"] * churn_events
        reduction = (flat_rebuilds / probe["rebuilds"]
                     if probe["rebuilds"] else float(flat_rebuilds))
        per_size.append({
            "objects": size,
            "level": level,
            "num_shards": 4 ** level,
            "seconds_bulk_load": round(seconds_bulk, 2),
            "warm_tables": pool,
            "sharded_rebuilds_per_event": probe["rebuilds_per_event"],
            "flat_rebuilds_per_event": float(probe["distinct_tables"]),
            "rebuild_reduction": round(reduction, 1),
        })

    return {
        "benchmark": "shard_scale",
        "seed": seed,
        "sizes": list(sizes),
        "churn_events": churn_events,
        "per_size": per_size,
        "rebuild_reduction_at_largest": per_size[-1]["rebuild_reduction"],
        **headline,
    }


def format_shard_scale(record: dict) -> str:
    """Multi-line human rendering of a shard-scale bench record."""
    lines = [
        f"Shard scale @ {record['objects']} objects "
        f"(level {record['level']}, {record['num_shards']} shards): "
        f"bulk_load {record['seconds_bulk_load']:.0f}s "
        f"({record['objects_per_second']} obj/s), "
        f"routing {record['routing']['routes_per_second']:.0f} routes/s "
        f"(mean {record['routing']['mean_hops']:.1f} hops, "
        f"{record['routing']['failures']} failures)"
    ]
    lines.append("rebuilds/churn-event (per-shard vs global epoch):")
    for row in record["per_size"]:
        lines.append(
            f"  N={row['objects']:>9} level={row['level']}: "
            f"{row['sharded_rebuilds_per_event']:>7.1f} vs "
            f"{row['flat_rebuilds_per_event']:>7.1f}  "
            f"({row['rebuild_reduction']:.1f}x fewer)"
        )
    return "\n".join(lines)


def test_shard_scale_smoke(benchmark, bench_scale):
    """Sharded epochs cut rebuild work; every route succeeds."""
    from conftest import run_once

    base = max(2000, int(round(16_000 * bench_scale)))
    record = run_once(benchmark, run_shard_scale,
                      sizes=(base // 4, base), warm_tables=500,
                      churn_events=10, num_pairs=2000)
    print()
    print(format_shard_scale(record))
    benchmark.extra_info.update(record)

    assert record["consistency_problems"] == 0
    assert record["routing"]["failures"] == 0
    # The per-shard epochs must beat the global epoch on every probed size
    # (a global epoch rebuilds the whole warm pool each event; canonical
    # shows >500x at 62k and ~5000x at 10^6 — leave headroom for tiny
    # smoke sizes).
    for row in record["per_size"]:
        assert row["rebuild_reduction"] >= 1.5, row


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_shard_scale.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark the per-shard routing-table epochs at scale.")
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                        help=f"overlay sizes (default {list(DEFAULT_SIZES)})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--warm-tables", type=int, default=DEFAULT_WARM_TABLES)
    parser.add_argument("--churn-events", type=int, default=DEFAULT_CHURN_EVENTS)
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_shard_scale(sizes=args.sizes, seed=args.seed,
                             warm_tables=args.warm_tables,
                             churn_events=args.churn_events,
                             num_pairs=args.pairs)
    print(format_shard_scale(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    ok = (record["consistency_problems"] == 0
          and record["routing"]["failures"] == 0
          and all(row["rebuild_reduction"] > 1.0 for row in record["per_size"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
