"""Benchmark ROUTE — greedy routing over the epoch-cached routing tables.

Bulk-loads one overlay, routes the same batch of random object pairs
once cold and then ``WARM_PASSES`` times warm, and reports:

* the cold pass, which builds every routing table it touches (the one-off
  cost a static overlay pays once), and the warm passes, the steady state
  every later batch costs — ``routes_per_second`` is the median warm
  pass, so one short sample caught on a busy moment does not set it;
* an exact work counter: every hop of a warm pass probes one table, and
  ``warm_hit_share`` is the share of those probes, over all warm passes,
  served without a ``routing_table_rebuilds`` increment.  It is 1.0
  unless forwarding went back to assembling views per hop, so its gate
  needs no noise margin;
* that every warm pass gives the cold pass's owners and hop counts, and
  the mean hop count.

Two entry points:

* ``pytest benchmarks/bench_routing.py`` — the pytest-benchmark wrapper
  (workload scaled by ``REPRO_BENCH_SCALE``);
* ``python benchmarks/bench_routing.py --objects 5000 --output
  benchmarks/BENCH_routing.json`` — the standalone runner emitting the
  JSON bench record; exits non-zero when a warm pass disagrees with the
  cold one or a warm hop rebuilt a table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import VoroNet, VoroNetConfig
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_position_array, generate_routing_pairs

#: Overlay size of the canonical record (the acceptance-criterion scale).
DEFAULT_OBJECTS = 5000
DEFAULT_PAIRS = 2000
DEFAULT_SEED = 4242
#: Timed warm passes; ``routes_per_second`` is their median.
WARM_PASSES = 5


def run_routing_bench(num_objects: int = DEFAULT_OBJECTS,
                      num_pairs: int = DEFAULT_PAIRS,
                      seed: int = DEFAULT_SEED,
                      num_long_links: int = 1) -> dict:
    """Route one pair batch cold, then ``WARM_PASSES`` times warm; return
    the record."""
    positions = generate_position_array(
        UniformDistribution(), num_objects, RandomSource(seed))
    overlay = VoroNet(VoroNetConfig(n_max=4 * num_objects,
                                    num_long_links=num_long_links, seed=seed))
    overlay.bulk_load(positions)
    pairs = list(generate_routing_pairs(
        overlay.object_ids(), num_pairs, RandomSource(seed + 1)))

    started = time.perf_counter()
    cold = overlay.route_many(pairs)
    seconds_cold = time.perf_counter() - started
    answers = [(r.owner, r.hops) for r in cold]
    rebuilds_before = overlay.stats.routing_table_rebuilds
    warm_seconds = []
    identical = True
    for _ in range(WARM_PASSES):
        started = time.perf_counter()
        warm = overlay.route_many(pairs)
        warm_seconds.append(time.perf_counter() - started)
        identical = identical and [(r.owner, r.hops) for r in warm] == answers
    rebuilds_warm = overlay.stats.routing_table_rebuilds - rebuilds_before
    seconds = statistics.median(warm_seconds)

    # One table probe per object a route visits: its hops plus the source.
    lookups_warm = WARM_PASSES * sum(hops + 1 for _owner, hops in answers)
    return {
        "benchmark": "routing_cache",
        "objects": num_objects,
        "pairs": num_pairs,
        "num_long_links": num_long_links,
        "seed": seed,
        "warm_passes": WARM_PASSES,
        "seconds": round(seconds, 4),
        "seconds_warm_passes": [round(s, 4) for s in warm_seconds],
        "seconds_cold": round(seconds_cold, 4),
        "routes_per_second": round(num_pairs / seconds, 1),
        "routes_per_second_cold": round(num_pairs / seconds_cold, 1),
        "table_lookups_warm": lookups_warm,
        "table_rebuilds_warm": rebuilds_warm,
        "warm_hit_share": (lookups_warm - rebuilds_warm) / lookups_warm,
        "owners_and_hops_identical": identical,
        "mean_hops": round(sum(h for _o, h in answers) / num_pairs, 3),
    }


def format_routing_bench(record: dict) -> str:
    """One-paragraph human rendering of a bench record."""
    return (
        f"Routing @ {record['objects']} objects, "
        f"{record['pairs']} pairs (k={record['num_long_links']}): "
        f"cold {record['seconds_cold']:.2f}s "
        f"({record['routes_per_second_cold']:.0f}/s), "
        f"warm median of {record['warm_passes']} passes "
        f"{record['seconds']:.2f}s ({record['routes_per_second']:.0f}/s); "
        f"warm passes {record['table_rebuilds_warm']} rebuilds over "
        f"{record['table_lookups_warm']} table lookups "
        f"(hit share {record['warm_hit_share']}); "
        f"owners/hops identical: {record['owners_and_hops_identical']}, "
        f"mean hops: {record['mean_hops']}"
    )


def _record_healthy(record: dict) -> bool:
    return record["owners_and_hops_identical"] and record["warm_hit_share"] == 1.0


def test_routing_warm_pass(benchmark, bench_scale):
    """The warm passes rebuild no table and answer like the cold pass."""
    from conftest import run_once

    num_objects = max(1000, int(round(DEFAULT_OBJECTS * bench_scale)))
    num_pairs = max(500, int(round(DEFAULT_PAIRS * bench_scale)))
    record = run_once(benchmark, run_routing_bench,
                      num_objects=num_objects, num_pairs=num_pairs)
    print()
    print(format_routing_bench(record))
    benchmark.extra_info.update(record)

    assert _record_healthy(record)


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_routing.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark greedy routing over the cached routing tables.")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help=f"overlay size (default {DEFAULT_OBJECTS})")
    parser.add_argument("--pairs", type=int, default=DEFAULT_PAIRS,
                        help=f"routed pairs (default {DEFAULT_PAIRS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--long-links", type=int, default=1)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_routing_bench(num_objects=args.objects, num_pairs=args.pairs,
                               seed=args.seed, num_long_links=args.long_links)
    print(format_routing_bench(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    return 0 if _record_healthy(record) else 1


if __name__ == "__main__":
    sys.exit(main())
