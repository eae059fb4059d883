"""Run one benchmark workload; print its metrics and a one-line JSON result.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload oracle-read --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up is timed in a batch
before the measured rounds and a batch after them, and the median over
both is reported; rounds of the workload run until ``--seconds`` have
passed (and at least the workload's minimum number of rounds).
``--trace 1`` does the same untraced run, then a second, traced run of
set-up plus exactly the minimum number of rounds, and reports the
per-layer split of that fixed work together with the tracing overhead
against the untraced run.

Every run checks the program's outputs (see ``workloads.py``), writes a
self-describing run record to ``perfbench/out/`` and prints one metric per
line followed, as the last line, by
``{"correct", "attempted", "failed", "metrics"}``.  A failed check makes
the run exit with code 1.

``--check-determinism`` instead runs only the traced run, twice, each in a
fresh interpreter, and exits with code 1 unless their work counters
(messages by kind, routing-table and kernel rebuilds, predicate counts,
hop totals, calls per span) are identical.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

#: ``name -> unit`` of every end-to-end figure a run record carries.
UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "round_refs": "ref",
    "queries_per_s": "1/s",
    "queries_per_ref": "1/ref",
    "reference_ms": "ms",
    "hops_p50": "hops",
    "hops_p99": "hops",
    "success_rate": "ratio",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
    "writes_per_s": "1/s",
    "write_ms_p50": "ms",
    "write_ms_p99": "ms",
    "messages_per_s": "1/s",
    "repair_s": "s",
    "messages_per_write": "msgs",
    "messages_per_crash": "msgs",
}


#: Counters kept only by the workloads whose layers they count.
LAYER_COUNTERS = ("core.routing.table_rebuilds", "simulation.engine.events",
                  "simulation.network.dropped", "repair.rounds",
                  "ops.timed_out")

#: Set-up runs in two batches, one before the measured rounds and one after
#: them: on a shared host, set-ups run back to back all read the host's
#: speed of that moment.  A batch makes at least ``MIN_SETUPS`` set-ups,
#: and more while they take less than ``SETUP_BUDGET_S`` in total (a cheap
#: set-up gets more samples for its median), at most ``MAX_SETUPS``.
MIN_SETUPS = 2
SETUP_BUDGET_S = 1.5
MAX_SETUPS = 5


def _bootstrap() -> None:
    """Put ``src/`` and the repository root on the import path."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SOURCE}")
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    # ``import repro.serving`` in a fresh interpreter fails on the circular
    # import serving.observability -> simulation -> simulation.merge ->
    # serving.observability (ROADMAP, "Known defects").  Importing the
    # simulation package first completes the cycle in an order that works.
    import repro.simulation  # noqa: F401


def _git_revision():
    """The checked-out commit, read from ``.git``; ``None`` outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _time_setups(name: str, seed: int, scale: float):
    """One batch of set-ups: their wall times and the last workload."""
    from perfbench.workloads import make_workload

    setup_s = []
    workload = None
    while len(setup_s) < MIN_SETUPS or (sum(setup_s) < SETUP_BUDGET_S
                                        and len(setup_s) < MAX_SETUPS):
        workload = None  # the previous set-up's overlay is garbage now
        gc.collect()
        workload = make_workload(name, seed, scale)
        started = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - started)
    return setup_s, workload


def _untraced_run(name: str, seed: int, seconds: float, scale: float):
    setup_s, workload = _time_setups(name, seed, scale)
    started = time.perf_counter()
    rounds = 0
    prefix_s = None
    prefix_counters = None
    while (rounds < workload.min_rounds
           or time.perf_counter() - started < seconds):
        workload.run_round(rounds)
        rounds += 1
        if rounds == workload.min_rounds:
            prefix_s = time.perf_counter() - started
            prefix_counters = workload.counters()
    workload.finish()
    return workload, setup_s, rounds, prefix_s, prefix_counters


def _traced_run(name: str, seed: int, scale: float):
    from perfbench.tracing import Tracer, install_layer_spans
    from perfbench.workloads import make_workload

    gc.collect()
    tracer = Tracer()
    restore = install_layer_spans(tracer)
    try:
        workload = make_workload(name, seed, scale)
        workload.tracer = tracer
        started = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.setup()
        for index in range(workload.min_rounds):
            with tracer.span("bench.round"):
                workload.run_round(index)
        elapsed = time.perf_counter() - started
    finally:
        restore()
    return workload, tracer, elapsed


def _layer_metrics(wanted, table, workload, tracer, overhead: float) -> dict:
    """Each wanted per-layer figure of a traced run, by name.

    A span name plus ``.calls`` or ``.self_s`` reads the layer table; other
    names are tracer or workload counters.  A layer the workload never
    entered did no work, so its figures read 0.
    """
    counters = dict(workload.counters())
    counters.update(tracer.counters)
    queries = counters.get("queries", 0)
    counters["core.routing.table_rebuilds_per_query"] = (
        counters.get("core.routing.table_rebuilds", 0) / queries
        if queries else 0)
    counters["trace.overhead"] = overhead
    figures = {}
    for name, unit in wanted:
        if name in counters:
            value = counters[name]
        elif name.endswith(".calls"):
            value = table.get(name[:-len(".calls")], {}).get("calls", 0)
        elif name.endswith(".self_s"):
            value = table.get(name[:-len(".self_s")], {}).get("self_s", 0.0)
        elif name in LAYER_COUNTERS:
            value = 0
        else:
            raise ValueError(f"unknown per-layer metric {name!r}")
        figures[name] = {"value": value, "unit": unit}
    return figures


def _work_counters(table, workload, tracer) -> dict:
    counters = workload.counters()
    counters.update(sorted(tracer.counters.items()))
    counters["span_calls"] = {name: row["calls"]
                              for name, row in sorted(table.items())}
    return counters


def work_counters(name: str, seed: int, scale: float) -> dict:
    """The work counters of one traced run (no untraced run before it)."""
    _bootstrap()
    workload, tracer, _elapsed = _traced_run(name, seed, scale)
    return _work_counters(tracer.layer_table(), workload, tracer)


def run(args) -> int:
    _bootstrap()
    from perfbench.workloads import WORKLOADS

    workload, setup_s, rounds, prefix_s, prefix_counters = _untraced_run(
        args.workload, args.seed, args.seconds, args.scale)
    figures = workload.metrics()
    figures["peak_rss_mb"] = _peak_rss_mb()
    check_failures = list(workload.check_failures)
    attempted, failed = workload.attempted, workload.failed
    per_round = workload.per_round()
    del workload  # the second batch of set-ups runs alone
    end_setup_s = _time_setups(args.workload, args.seed, args.scale)[0]
    figures["setup_s"] = statistics.median(setup_s + end_setup_s)

    record = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "config": {key: value for key, value in
                   vars(WORKLOADS[args.workload]).items()
                   if not key.startswith("_") and isinstance(value, (int, float, str))},
        "git_revision": _git_revision(),
        "env": _environment(),
        "rounds": rounds,
        "per_round": per_round,
        "setup_s_samples": {"before": setup_s, "after": end_setup_s},
        "metrics": {name: {"value": figures.get(name), "unit": unit}
                    for name, unit in UNITS.items()},
        "counters": prefix_counters,
        "layers": None,
        "tracing": None,
    }
    result_metrics = {name: {"value": figures[name], "unit": UNITS[name]}
                      for name in args.end_to_end}
    if args.trace:
        traced, tracer, traced_s = _traced_run(args.workload, args.seed,
                                               args.scale)
        reference_s = figures["setup_s"] + prefix_s
        overhead = traced_s / reference_s - 1.0
        check_failures += traced.check_failures
        table = tracer.layer_table()
        result_metrics = _layer_metrics(args.per_layer, table, traced, tracer,
                                        overhead)
        OUT.mkdir(parents=True, exist_ok=True)
        spans_file = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
        tracer.save(spans_file)
        record["layers"] = table
        record["tracing"] = {"overhead": overhead, "traced_s": traced_s,
                             "untraced_s": reference_s, "spans": len(tracer),
                             "spans_file": str(spans_file.relative_to(ROOT))}
        record["work_counters"] = _work_counters(table, traced, tracer)
        record["per_layer"] = result_metrics

    correct = not check_failures
    record.update({"correct": correct, "attempted": attempted,
                   "failed": failed, "check_failures": check_failures})
    record_path = Path(args.record) if args.record else (
        OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = "not measured" if value is None else f"{value:.6g}"
        print(f"{name:<22} {shown:>14} {metric['unit']}")
    if args.trace:
        print(f"{'tracing overhead':<22} {overhead:>14.4g} ratio")
    for failure in check_failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0 if correct else 1


def check_determinism(args) -> int:
    """Two traced runs at one seed, each in a fresh interpreter."""
    child = ("import json, sys; from perfbench.run import work_counters; "
             "print(json.dumps(work_counters(sys.argv[1], int(sys.argv[2]), "
             "float(sys.argv[3]))))")
    records = []
    for _side in ("a", "b"):
        completed = subprocess.run(
            [sys.executable, "-c", child, args.workload, str(args.seed),
             str(args.scale)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if completed.returncode != 0:
            sys.stderr.write(completed.stdout + completed.stderr)
            return 1
        records.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    first, second = records
    differing = sorted(key for key in first.keys() | second.keys()
                       if first.get(key) != second.get(key))
    for key in differing:
        print(f"{key}: {first.get(key)!r} != {second.get(key)!r}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "identical": not differing, "counters": len(first)}))
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["oracle-read", "oracle-churn", "protocol-serve",
                                 "protocol-repair"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of the untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="population and batch sizes relative to the "
                             "workload's own (tests use small values)")
    parser.add_argument("--record", help="run record path "
                        "(default perfbench/out/<workload>-seed<n>-trace<t>.json)")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args.end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    args.per_layer = [(metric["name"], metric["unit"])
                      for metric in spec["per_layer"]]
    if args.check_determinism:
        return check_determinism(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
