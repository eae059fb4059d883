"""VoroNet reproduction — a scalable object network based on Voronoi tessellations.

This package is a full reimplementation of the system described in
*"VoroNet: A scalable object network based on Voronoi tessellations"*
(Beaumont, Kermarrec, Marchal, Rivière — INRIA RR-5833 / IPDPS 2007),
together with every substrate it needs: a robust incremental Delaunay /
Voronoi kernel, a Kleinberg small-world substrate, a discrete-event
message-level simulator, workload generators, baselines and analysis
tooling.

Quick start
-----------
>>> from repro import VoroNet
>>> overlay = VoroNet(n_max=1_000, seed=42)
>>> ids = overlay.insert_many([(0.1, 0.2), (0.8, 0.3), (0.5, 0.9)])
>>> overlay.route(ids[0], ids[2]).owner == ids[2]
True

See ``examples/quickstart.py`` for a guided tour, each subpackage's
docstring for its inventory, and ``ROADMAP.md`` for the system's state and
open work.
"""

from repro.core import (
    QueryResult,
    RouteResult,
    VoroNet,
    VoroNetConfig,
    VoroNetError,
    point_query,
    radius_query,
    range_query,
    segment_query,
)
from repro.geometry import DelaunayTriangulation

__version__ = "1.0.0"

__all__ = [
    "VoroNet",
    "VoroNetConfig",
    "VoroNetError",
    "RouteResult",
    "QueryResult",
    "point_query",
    "range_query",
    "radius_query",
    "segment_query",
    "DelaunayTriangulation",
    "__version__",
]
