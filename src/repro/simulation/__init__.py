"""Discrete-event simulation substrate.

The paper evaluates VoroNet by simulation; this package provides the
simulator: an event engine with virtual time, a message-passing network
layer with latency models and per-message accounting, metric and trace
collection, churn/failure injection, and — most importantly — the
*message-level* implementation of the VoroNet protocol
(:mod:`repro.simulation.protocol`) in which every object acts only on its
local view and every exchanged message is explicit.  The oracle-mode
overlay in :mod:`repro.core` is the fast path used for large parameter
sweeps; this package is what validates its decentralisation and
maintenance-cost claims.

Scaling protocol-mode experiments
---------------------------------
Two mechanisms let the message-level simulator reach the overlay sizes the
oracle handles:

* **Batched construction** — ``ProtocolSimulator.bulk_join(positions)``
  builds an overlay through the pipelined message phases (Morton-sorted
  ``ADD_OBJECT`` carving from locate-grid hinted introducers, a
  back-registration hand-over pass, grid-exact close discovery, and
  grid-seeded long-link searches) instead of running every join to
  quiescence.  It returns a ``BulkJoinReport`` with per-phase message
  counts; the resulting per-node views are identical to
  ``VoroNet.bulk_load`` on the same positions and seed.  Use it to build
  the population, then drive sequential ``join``/``leave``/``query``
  probes for paper-faithful per-operation costs.
* **Per-node routing cache** — each ``ProtocolNode`` serves greedy
  forwarding from a flat candidate block cached against its local view
  epoch, the protocol-mode analogue of the oracle's epoch-cached routing
  tables.  ``VoroNetConfig.use_node_routing_cache`` (default ``True``)
  switches back to per-hop candidate-dict assembly for parity testing;
  answers and hop counts are identical either way.

Fault injection and self-healing
--------------------------------
:mod:`repro.simulation.faults` adds the crash story the paper leaves
open: a ``FaultPlane`` woven into the network layer (crashed nodes,
probabilistic loss/delay, and partitions — every partition is a
``SplitSpec`` of named sides on the virtual clock), heartbeat failure
detection with per-node suspect lists, and a phased repair protocol that
heals surviving views — Voronoi scrubs, long-link re-resolution through
the routed search machinery, close re-discovery — entirely through
counted messages.  ``ProtocolChurnHarness`` wires it all into one
reproducible churn/crash/repair experiment; the oracle-mode injectors in
:mod:`repro.simulation.failures` remain the fast path for damage
accounting without message simulation, and both injectors count damage
through its one census, ``census_gone_references``.

Crash-at-any-message hardening and fuzzing
------------------------------------------
Multi-message operations (join carving, close discovery, long-link
search, leave hand-over) are guarded by engine-scheduled ``Watchdog``
timeouts with idempotent, version-stamped retries under a
``TimeoutPolicy``; a node dying mid-conversation surfaces as a
``timed_out`` outcome instead of wedging the protocol.
:mod:`repro.simulation.fuzz` turns the simulator's determinism into a
Jepsen-style harness: ``CrashScheduleFuzzer`` crashes victims at exact
global message indices — multi-crash sequences and partition windows
armed the same way — and asserts convergence back to clean views, with
every failure replayable from its serialized ``FuzzTrace`` (the CLI's
``SEED:INDEX:RANK`` triple is shorthand for a one-crash trace; see
``TESTING.md``).  Import its names from the module itself: the package
does not re-export them, so ``python -m repro.simulation.fuzz`` runs the
module exactly once.

Partitions and merge
--------------------
:mod:`repro.simulation.merge` completes the WAN story: a ``FaultPlane``
``split`` cuts the message plane k ways while ``PartitionRuntime`` forks
the substrate per side, so **every** side keeps serving queries and
accepting inserts against its own tessellation; on heal, the union
kernel is rebuilt deterministically (lowest-id wins coordinate and
published-id collisions) and ``MergeProtocol`` floods version-stamped
``MERGE_DIGEST`` anti-entropy across the healed cut until views verify
clean.  ``ProtocolMergeHarness`` drives the scenario matrix (k-way,
asymmetric, flapping) with per-side availability accounting.
"""

from repro.simulation.engine import SimulationEngine, Watchdog
from repro.simulation.events import Event
from repro.simulation.network import (
    ConstantLatency,
    Message,
    Network,
    UniformLatency,
)
from repro.simulation.metrics import MetricsRegistry
from repro.simulation.trace import TraceRecorder
from repro.simulation.failures import (
    ChurnScheduler,
    CrashDamageReport,
    CrashInjector,
    PartitionDamageReport,
    assess_partition_damage,
    census_gone_references,
)
from repro.simulation.faults import (
    FaultDecision,
    FaultPlane,
    HeartbeatConfig,
    HeartbeatDetector,
    ProtocolChurnHarness,
    ProtocolChurnReport,
    ProtocolCrashInjector,
    RepairProtocol,
    RepairReport,
    SplitSpec,
)
from repro.simulation.merge import (
    AvailabilityTracker,
    HealSummary,
    MergeHarnessReport,
    MergeProtocol,
    MergeReport,
    PartitionRuntime,
    ProtocolMergeHarness,
)
from repro.simulation.protocol import (
    BulkJoinReport,
    JoinReport,
    LeaveReport,
    ProtocolSimulator,
    QueryReport,
    TimeoutPolicy,
)

__all__ = [
    "SimulationEngine",
    "Watchdog",
    "Event",
    "Network",
    "Message",
    "ConstantLatency",
    "UniformLatency",
    "MetricsRegistry",
    "TraceRecorder",
    "ChurnScheduler",
    "CrashDamageReport",
    "CrashInjector",
    "PartitionDamageReport",
    "assess_partition_damage",
    "census_gone_references",
    "FaultDecision",
    "FaultPlane",
    "HeartbeatConfig",
    "HeartbeatDetector",
    "SplitSpec",
    "ProtocolChurnHarness",
    "ProtocolChurnReport",
    "ProtocolCrashInjector",
    "RepairProtocol",
    "RepairReport",
    "AvailabilityTracker",
    "HealSummary",
    "MergeHarnessReport",
    "MergeProtocol",
    "MergeReport",
    "PartitionRuntime",
    "ProtocolMergeHarness",
    "ProtocolSimulator",
    "BulkJoinReport",
    "JoinReport",
    "LeaveReport",
    "QueryReport",
    "TimeoutPolicy",
]
