"""Morton-range sharded struct-of-arrays node store.

The overlay's substrate for million-object populations: object ids and
positions live in per-shard numpy blocks (struct-of-arrays), and each
shard carries its own **epoch** — the unit of routing-table invalidation.
A shard is a Morton (Z-order) prefix of the unit square: at ``level`` L
the square is a 2^L × 2^L grid whose cells are numbered along the Z-order
curve, giving ``4^L`` spatially compact, contiguously numbered shards.

Why Morton prefixes
-------------------
* **Locality.** Voronoi adjacency, close neighbours and the targeted
  invalidation sets produced by churn are all spatially local, so one
  join or leave touches O(1) shards regardless of overlay size — the
  property that lets per-shard epochs replace the global
  ``topology_epoch`` without weakening the invalidation contract.
* **Cheap to compute.** The shard of a point is two clamps and a table
  lookup; batches are vectorised with the classic part-by-one bit
  spreading.

Level 0 is a single shard covering the whole square: per-shard epochs
then degrade exactly to the old global epoch, which is the flat-store
baseline the parity tests and ``bench_shard_scale`` compare against.

Epoch contract (per shard)
--------------------------
A cached routing entry records the epoch of its *object's* shard at
build time and is valid while the two still agree.  Mutations bump the
shards of every object whose forwarding candidates changed
(:meth:`ShardedNodeStore.bump_object_ids`, driven by
``VoroNet.invalidate_routing_tables(object_ids)``); overlay-wide events
(bulk loads, crash injection, external view surgery) bump every shard
(:meth:`ShardedNodeStore.bump_all`).  The epoch list is mutated in
place so hot loops can hoist a reference to it across a whole route.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MAX_SHARD_LEVEL", "ShardedNodeStore", "morton_shard_codes"]

#: Deepest supported shard level: 4^8 = 65536 shards, 16-bit Morton codes.
MAX_SHARD_LEVEL = 8

#: Slot index width inside the packed (shard, slot) locator ints.
_SLOT_BITS = 40
_SLOT_MASK = (1 << _SLOT_BITS) - 1

#: 8-bit part-by-one spreading table: _SPREAD[b] interleaves the bits of
#: ``b`` with zeros (0b1011 -> 0b1000101), so a scalar Morton code is two
#: table lookups and one shift — no per-call bit twiddling.
_SPREAD: List[int] = []
for _b in range(256):
    _s = 0
    for _i in range(8):
        _s |= ((_b >> _i) & 1) << (2 * _i)
    _SPREAD.append(_s)
del _b, _i, _s


def _spread_bits_u32(values: np.ndarray) -> np.ndarray:
    """Vectorised part-by-one: interleave each value's bits with zeros."""
    v = values.astype(np.uint32)
    v = (v | (v << 8)) & np.uint32(0x00FF00FF)
    v = (v | (v << 4)) & np.uint32(0x0F0F0F0F)
    v = (v | (v << 2)) & np.uint32(0x33333333)
    v = (v | (v << 1)) & np.uint32(0x55555555)
    return v


def morton_shard_codes(points: np.ndarray, level: int) -> np.ndarray:
    """Morton shard index of every row of an ``(n, 2)`` position array.

    Positions are clamped into the unit square's grid, so boundary points
    (x == 1.0) land in the last cell instead of overflowing.
    """
    if level == 0:
        return np.zeros(len(points), dtype=np.int64)
    side = 1 << level
    cells = (points * side).astype(np.int64)
    np.clip(cells, 0, side - 1, out=cells)
    ix = _spread_bits_u32(cells[:, 0])
    iy = _spread_bits_u32(cells[:, 1])
    return (ix | (iy << np.uint32(1))).astype(np.int64)


class ShardedNodeStore:
    """Per-shard struct-of-arrays storage of object ids and positions.

    Each shard holds an amortised-growth ``int64`` id block and an aligned
    ``(n, 2) float64`` position block; removal is O(1) swap-remove.  A
    packed locator dict maps object id → (shard, slot) so membership
    queries and targeted epoch bumps are O(1) per object.

    The store is *secondary* state: the overlay's ``_nodes`` dict remains
    the source of truth for per-object protocol state (links, back
    registrations), while this store serves the routing cache's epoch
    domain and bulk geometry access.  The two are kept in sync by the
    overlay's mutation entry points (insert / bulk_load / remove / crash
    injection).
    """

    __slots__ = ("_level", "_num_shards", "_side", "_epochs", "_ids",
                 "_positions", "_counts", "_locators", "_link_blocks")

    def __init__(self, level: int) -> None:
        if not 0 <= level <= MAX_SHARD_LEVEL:
            raise ValueError(
                f"shard level must lie in [0, {MAX_SHARD_LEVEL}], got {level}")
        self._level = level
        self._num_shards = 1 << (2 * level)
        self._side = 1 << level
        self._epochs: List[int] = [0] * self._num_shards
        self._ids: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in range(self._num_shards)]
        self._positions: List[np.ndarray] = [
            np.empty((0, 2), dtype=np.float64) for _ in range(self._num_shards)]
        self._counts: List[int] = [0] * self._num_shards
        self._locators: Dict[int, int] = {}
        # shard → (epoch, ids, endpoints) — lazily materialised long-link
        # SoA blocks, cached against the shard epoch (see shard_link_block).
        self._link_blocks: Dict[int, Tuple[int, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # shard geometry
    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        """The Morton prefix depth (4**level shards)."""
        return self._level

    @property
    def num_shards(self) -> int:
        """Number of shards (``4 ** level``)."""
        return self._num_shards

    @property
    def epochs(self) -> List[int]:
        """The live per-shard epoch list (mutated in place, never replaced).

        Hot loops hoist this reference once per route; targeted bumps are
        visible through it immediately.
        """
        return self._epochs

    def shard_of_point(self, x: float, y: float) -> int:
        """Morton shard index of one point of the unit square."""
        side = self._side
        if side == 1:
            return 0
        ix = int(x * side)
        if ix >= side:
            ix = side - 1
        elif ix < 0:
            ix = 0
        iy = int(y * side)
        if iy >= side:
            iy = side - 1
        elif iy < 0:
            iy = 0
        return _SPREAD[ix] | (_SPREAD[iy] << 1)

    def shard_of(self, object_id: int) -> int:
        """Shard currently holding ``object_id`` (KeyError when absent)."""
        return self._locators[object_id] >> _SLOT_BITS

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._locators

    def __len__(self) -> int:
        return len(self._locators)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def insert(self, object_id: int, position: Tuple[float, float]) -> int:
        """Add one object; returns the shard it landed in."""
        if object_id in self._locators:
            raise ValueError(f"object id {object_id} already stored")
        shard = self.shard_of_point(position[0], position[1])
        slot = self._counts[shard]
        self._ensure_capacity(shard, slot + 1)
        self._ids[shard][slot] = object_id
        self._positions[shard][slot, 0] = position[0]
        self._positions[shard][slot, 1] = position[1]
        self._counts[shard] = slot + 1
        self._locators[object_id] = (shard << _SLOT_BITS) | slot
        return shard

    def bulk_insert(self, object_ids: Sequence[int],
                    positions: Sequence[Tuple[float, float]]) -> None:
        """Add a batch in one vectorised pass (shard codes, grouped appends)."""
        if not object_ids:
            return
        ids = np.asarray(object_ids, dtype=np.int64)
        pts = np.asarray(positions, dtype=np.float64).reshape(len(ids), 2)
        codes = morton_shard_codes(pts, self._level)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        # Boundaries of each run of equal shard codes in the sorted batch.
        boundaries = np.flatnonzero(np.diff(sorted_codes)) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(ids)]))
        locators = self._locators
        for start, stop in zip(starts, stops):
            shard = int(sorted_codes[start])
            chunk = order[start:stop]
            base = self._counts[shard]
            count = base + len(chunk)
            self._ensure_capacity(shard, count)
            self._ids[shard][base:count] = ids[chunk]
            self._positions[shard][base:count] = pts[chunk]
            self._counts[shard] = count
            shard_tag = shard << _SLOT_BITS
            for offset, object_id in enumerate(ids[chunk].tolist()):
                locators[object_id] = shard_tag | (base + offset)

    def discard(self, object_id: int) -> Optional[int]:
        """Remove one object (swap-remove); returns its shard, or ``None``."""
        locator = self._locators.pop(object_id, None)
        if locator is None:
            return None
        shard = locator >> _SLOT_BITS
        slot = locator & _SLOT_MASK
        last = self._counts[shard] - 1
        if slot != last:
            moved_id = int(self._ids[shard][last])
            self._ids[shard][slot] = moved_id
            self._positions[shard][slot] = self._positions[shard][last]
            self._locators[moved_id] = (shard << _SLOT_BITS) | slot
        self._counts[shard] = last
        return shard

    def _ensure_capacity(self, shard: int, needed: int) -> None:
        ids = self._ids[shard]
        if len(ids) >= needed:
            return
        capacity = max(8, len(ids) * 2, needed)
        new_ids = np.empty(capacity, dtype=np.int64)
        new_ids[: self._counts[shard]] = ids[: self._counts[shard]]
        self._ids[shard] = new_ids
        new_pos = np.empty((capacity, 2), dtype=np.float64)
        new_pos[: self._counts[shard]] = self._positions[shard][: self._counts[shard]]
        self._positions[shard] = new_pos

    # ------------------------------------------------------------------
    # epochs
    # ------------------------------------------------------------------
    def bump_object_ids(self, object_ids: Iterable[int]) -> int:
        """Bump the epoch of every shard holding one of ``object_ids``.

        Ids no longer stored (just-departed objects) are skipped; each
        touched shard is bumped exactly once per call, so the resulting
        epoch values do not depend on the iteration order of the input.
        Returns the number of distinct shards bumped.
        """
        locators = self._locators
        shards = set()
        for object_id in object_ids:
            locator = locators.get(object_id)
            if locator is not None:
                shards.add(locator >> _SLOT_BITS)
        epochs = self._epochs
        for shard in sorted(shards):
            epochs[shard] += 1
        return len(shards)

    def bump_all(self) -> None:
        """Bump every shard epoch (overlay-wide invalidation)."""
        epochs = self._epochs
        for shard in range(self._num_shards):
            epochs[shard] += 1

    # ------------------------------------------------------------------
    # per-shard block access
    # ------------------------------------------------------------------
    def shard_count(self, shard: int) -> int:
        """Number of objects currently stored in ``shard``."""
        return self._counts[shard]

    def shard_ids(self, shard: int) -> np.ndarray:
        """Id block of one shard (a live view; do not mutate)."""
        return self._ids[shard][: self._counts[shard]]

    def shard_positions(self, shard: int) -> np.ndarray:
        """``(n, 2)`` position block of one shard (a live view; do not mutate)."""
        return self._positions[shard][: self._counts[shard]]

    def occupancies(self) -> List[int]:
        """Object count per shard (shard-balance diagnostics)."""
        return list(self._counts)

    def shard_link_block(self, shard: int, overlay) -> Tuple[np.ndarray, np.ndarray]:
        """Long-link SoA block of one shard, cached against its epoch.

        Returns ``(ids, endpoints)``: the shard's object ids and an aligned
        ``(n, k)`` int64 array of their long-link endpoint ids (-1 where a
        link slot is unset).  Materialised lazily from the overlay's nodes
        and reused while the shard epoch is unchanged — the same validity
        domain as the routing tables, so consumers (bulk analytics,
        shard-range routing workers) never see links that churn already
        invalidated.
        """
        cached = self._link_blocks.get(shard)
        epoch = self._epochs[shard]
        if cached is not None and cached[0] == epoch:
            return cached[1], cached[2]
        ids = self.shard_ids(shard).copy()
        k = overlay.config.num_long_links
        endpoints = np.full((len(ids), max(k, 1)), -1, dtype=np.int64)
        nodes = overlay._nodes
        for row, object_id in enumerate(ids.tolist()):
            for index, link in enumerate(nodes[object_id].long_links):
                endpoints[row, index] = link.neighbor
        self._link_blocks[shard] = (epoch, ids, endpoints)
        return ids, endpoints

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        occupied = sum(1 for c in self._counts if c)
        return (
            f"ShardedNodeStore(level={self._level}, shards={self._num_shards}, "
            f"occupied={occupied}, objects={len(self._locators)})"
        )
