"""Benchmark PROTO-BULK — batched protocol construction vs sequential joins.

Measures how much faster :meth:`ProtocolSimulator.bulk_join` builds a
message-level overlay than N sequential :meth:`ProtocolSimulator.join`
calls (each run to quiescence, the paper's join protocol), and verifies
the batched path produces the same structure: identical Voronoi adjacency
and close-neighbour sets, and a clean ``verify_views()`` report on both
simulators.  Long links are drawn from the same distribution in a
different RNG order, so the record tracks their counts rather than their
endpoints (the integration suite pins bulk-join long links exactly
against ``VoroNet.bulk_load``).

Two entry points:

* ``pytest benchmarks/bench_protocol_bulk_join.py`` — the pytest-benchmark
  wrapper (workload scaled by ``REPRO_BENCH_SCALE``), asserting the
  speedup threshold at controlled scale;
* ``python benchmarks/bench_protocol_bulk_join.py --objects 2000 --output
  benchmarks/BENCH_protocol_bulk_join.json`` — the standalone runner
  emitting the JSON bench record; exits non-zero when the structural
  checks fail (``benchmarks/check_bench.py`` gates the speedup).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable without PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core import VoroNetConfig
from repro.geometry.scipy_backend import adjacency_of
from repro.simulation.protocol import ProtocolSimulator
from repro.utils.rng import RandomSource
from repro.workloads.distributions import UniformDistribution
from repro.workloads.generators import generate_objects

#: Overlay size of the canonical record (the acceptance-criterion scale).
DEFAULT_OBJECTS = 2000
DEFAULT_SEED = 4242


def run_protocol_bulk_join(num_objects: int = DEFAULT_OBJECTS,
                           seed: int = DEFAULT_SEED,
                           num_long_links: int = 1,
                           chunk_size: int | None = None,
                           rounds: int = 2) -> dict:
    """Build the same protocol overlay sequentially and in bulk; return the record.

    Each construction is timed ``rounds`` times (identical seeds, so every
    round builds the same overlay) and the minimum is reported, the
    standard way to suppress scheduler noise in single-shot benchmarks.
    The two paths are interleaved within each round so slow drift (CPU
    frequency scaling, background load) penalises neither side; the
    structural checks run on the last round's simulators.
    """
    positions = generate_objects(
        UniformDistribution(), num_objects, RandomSource(seed))
    config = VoroNetConfig(n_max=4 * num_objects,
                           num_long_links=num_long_links, seed=seed)

    seconds_sequential = float("inf")
    seconds_bulk = float("inf")
    for _ in range(rounds):
        sequential = ProtocolSimulator(config, seed=seed)
        started = time.perf_counter()
        for position in positions:
            sequential.join(position)
        seconds_sequential = min(seconds_sequential,
                                 time.perf_counter() - started)

        bulk = ProtocolSimulator(config, seed=seed)
        before = bulk.network.snapshot_counters()
        started = time.perf_counter()
        report = bulk.bulk_join(positions, chunk_size=chunk_size)
        seconds_bulk = min(seconds_bulk, time.perf_counter() - started)

    problems = sequential.verify_views() + bulk.verify_views()
    structure_identical = (
        adjacency_of(sequential.kernel) == adjacency_of(bulk.kernel)
        and all(set(sequential.node(oid).close) == set(bulk.node(oid).close)
                for oid in report.object_ids)
    )
    return {
        "benchmark": "protocol_bulk_join",
        "objects": num_objects,
        "num_long_links": num_long_links,
        "seed": seed,
        "rounds": rounds,
        "seconds_sequential": round(seconds_sequential, 4),
        "seconds_bulk": round(seconds_bulk, 4),
        "speedup": round(seconds_sequential / seconds_bulk, 2),
        "messages_sequential": sequential.network.messages_sent,
        "messages_bulk": report.messages,
        "phase_messages": dict(report.phase_messages),
        "messages_by_kind_bulk": bulk.network.counters_since(before),
        "view_problems": len(problems),
        "structure_identical_to_sequential": structure_identical,
        "long_links_sequential": sum(len(sequential.node(oid).long_links)
                                     for oid in sequential.object_ids()),
        "long_links_bulk": sum(len(bulk.node(oid).long_links)
                               for oid in bulk.object_ids()),
        "mean_view_size": round(bulk.mean_view_size(), 3),
    }


def format_protocol_bulk_join(record: dict) -> str:
    """One-paragraph human rendering of a bench record."""
    return (
        f"Protocol bulk join @ {record['objects']} objects "
        f"(k={record['num_long_links']}): "
        f"sequential {record['seconds_sequential']:.2f}s "
        f"({record['messages_sequential']} msgs), "
        f"bulk {record['seconds_bulk']:.2f}s "
        f"({record['messages_bulk']} msgs) — {record['speedup']:.1f}x; "
        f"view problems: {record['view_problems']}, "
        f"structure identical: {record['structure_identical_to_sequential']}, "
        f"mean view size: {record['mean_view_size']}"
    )


def test_protocol_bulk_join_speedup(benchmark, bench_scale):
    """Batched construction beats sequential joins with identical structure."""
    from conftest import run_once

    num_objects = max(500, int(round(DEFAULT_OBJECTS * bench_scale)))
    record = run_once(benchmark, run_protocol_bulk_join, num_objects=num_objects)
    print()
    print(format_protocol_bulk_join(record))
    benchmark.extra_info.update(record)

    assert record["view_problems"] == 0
    assert record["structure_identical_to_sequential"]
    # The canonical 2000-object record shows >3x; leave headroom for small
    # scales and noisy CI machines.
    assert record["speedup"] >= 2.0


def main(argv=None) -> int:
    """Entry point of ``python benchmarks/bench_protocol_bulk_join.py``."""
    parser = argparse.ArgumentParser(
        description="Benchmark ProtocolSimulator.bulk_join against sequential joins.")
    parser.add_argument("--objects", type=int, default=DEFAULT_OBJECTS,
                        help=f"overlay size (default {DEFAULT_OBJECTS})")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--long-links", type=int, default=1)
    parser.add_argument("--chunk-size", type=int, default=None,
                        help="ADD_OBJECT pipeline chunk (default: protocol default)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="timed rounds per construction path (min is kept)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON bench record here")
    args = parser.parse_args(argv)

    record = run_protocol_bulk_join(num_objects=args.objects, seed=args.seed,
                                    num_long_links=args.long_links,
                                    chunk_size=args.chunk_size,
                                    rounds=args.rounds)
    print(format_protocol_bulk_join(record))
    if args.output is not None:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"record written to {args.output}")
    ok = (record["view_problems"] == 0
          and record["structure_identical_to_sequential"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
