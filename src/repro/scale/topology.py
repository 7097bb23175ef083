"""City topologies generated from geo-hash tiles.

A city is a band of level-2 tiles marching east from an origin point,
each contributing up to four level-1 child tiles (one CTA + CPF pool +
BS set per child, Fig. 6).  Tiles are derived from the origin's
geo-hash *by string extension* — never by re-encoding coordinates near
a cell edge, where float rounding can land a boundary point in the
neighbouring cell — so a tile's level-2 membership is exactly its
geo-hash prefix and the ring structure follows from ``geo.regions``
with no hand-wiring.

Adjacency between level-1 tiles (what the mobility models walk) is
computed from the tiles' exact bounding boxes: two equal-precision
tiles are adjacent iff they share an edge.  Bounds are binary fractions
of the lat/lon ranges, so the edge comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..geo import geohash
from ..geo.regions import Region, RegionMap, region_for_tile

__all__ = [
    "CHILD_ORDER",
    "CityTopology",
    "build_city",
    "tile_adjacency",
]

#: order in which a level-2 parent's children join the city: SW, SE,
#: NW, NE.  Taking the southern row first keeps a west-to-east band of
#: parents contiguous even when only 2 of 4 children are used (a city
#: with disconnected islands would quietly turn every mobility model
#: into a no-op).  With one child per parent the band is disconnected
#: by construction; scenarios use >= 2.
CHILD_ORDER = ("0", "2", "1", "3")
_CHILD_ORDER = CHILD_ORDER

#: default city origin (the paper's testbed is a metro deployment; any
#: mid-latitude point far from the antimeridian works — this is Chicago).
DEFAULT_ORIGIN = (41.88, -87.63)


def _share_edge(a: str, b: str) -> bool:
    (alat_lo, alat_hi), (alon_lo, alon_hi) = geohash.decode_bounds(a)
    (blat_lo, blat_hi), (blon_lo, blon_hi) = geohash.decode_bounds(b)
    lat_overlap = max(alat_lo, blat_lo) < min(alat_hi, blat_hi)
    lon_overlap = max(alon_lo, blon_lo) < min(alon_hi, blon_hi)
    touch_lat = alat_lo == blat_hi or alat_hi == blat_lo
    touch_lon = alon_lo == blon_hi or alon_hi == blon_lo
    return (touch_lat and lon_overlap) or (touch_lon and lat_overlap)


def tile_adjacency(tiles: List[str]) -> Dict[str, List[str]]:
    """Level-1 tile graph: equal-precision tiles sharing an edge."""
    out: Dict[str, List[str]] = {t: [] for t in tiles}
    ordered = sorted(tiles)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if _share_edge(a, b):
                out[a].append(b)
                out[b].append(a)
    return {t: sorted(ns) for t, ns in out.items()}


@dataclass
class CityTopology:
    """The generated deployment: regions, tile graph, and a spare tile."""

    regions: List[Region]
    cpfs_per_region: int
    bss_per_region: int
    #: level-1 tile -> adjacent level-1 tiles (equal precision, shared edge)
    adjacency: Dict[str, List[str]] = field(default_factory=dict)
    #: an unused level-1 tile adjacent to the city, reserved for the
    #: ring-churn scenario's mid-run CTA add.
    spare_tile: Optional[str] = None

    @property
    def tiles(self) -> List[str]:
        return [r.geohash for r in self.regions]

    @property
    def parents(self) -> List[str]:
        """Sorted level-2 parents of the tiles (the shardable units)."""
        return sorted({t[:-1] for t in self.tiles})

    def region_map(self, vnodes: int = 64) -> RegionMap:
        return RegionMap(list(self.regions), vnodes=vnodes)

    def adjacency_with(self, extra_tiles: List[str]) -> Dict[str, List[str]]:
        """The tile graph including churned-in tiles (recomputed exact)."""
        return tile_adjacency(sorted(set(self.tiles) | set(extra_tiles)))

    def adjacency_without(self, removed: List[str]) -> Dict[str, List[str]]:
        gone = set(removed)
        return tile_adjacency([t for t in self.tiles if t not in gone])


def build_city(
    l2_regions: int = 4,
    l1_per_l2: int = 4,
    cpfs_per_region: int = 2,
    bss_per_region: int = 2,
    precision: int = 6,
    origin: Tuple[float, float] = DEFAULT_ORIGIN,
) -> CityTopology:
    """A city of ``l2_regions`` level-2 tiles marching east from ``origin``.

    ``precision`` is the level-1 tile depth; level-2 parents are one
    character shorter.  Each parent contributes its first ``l1_per_l2``
    children (alphabet order).  The spare tile for ring churn is the
    first child of the *next* parent east of the city — deliberately a
    lone level-1 region under a fresh level-2 parent, the degenerate
    ring shape the property tests exercise.
    """
    if l2_regions < 1:
        raise ValueError("need at least one level-2 region")
    if not 1 <= l1_per_l2 <= 4:
        raise ValueError("a level-2 tile has 1-4 level-1 children")
    if precision < 3:
        raise ValueError("precision must be >= 3 (level-2 parents need >= 2 chars)")
    lat, lon = origin
    base = geohash.encode(lat, lon, precision - 1)
    (_lat_lo, _lat_hi), (lon_lo, lon_hi) = geohash.decode_bounds(base)
    width = lon_hi - lon_lo
    parents: List[str] = []
    for k in range(l2_regions + 1):  # +1: the spare tile's parent
        step_lon = lon + k * width
        if step_lon > 180.0:
            raise ValueError(
                "city of %d level-2 tiles crosses the antimeridian from %r"
                % (l2_regions, origin)
            )
        parents.append(geohash.encode(lat, step_lon, precision - 1))
    if len(set(parents)) != len(parents):  # pragma: no cover - defensive
        raise ValueError("level-2 tiles collide; widen the origin spacing")
    regions = [
        region_for_tile(parent + c, cpfs_per_region, bss_per_region)
        for parent in parents[:l2_regions]
        for c in _CHILD_ORDER[:l1_per_l2]
    ]
    spare = parents[l2_regions] + _CHILD_ORDER[0]
    topo = CityTopology(
        regions=regions,
        cpfs_per_region=cpfs_per_region,
        bss_per_region=bss_per_region,
        spare_tile=spare,
    )
    topo.adjacency = tile_adjacency(topo.tiles)
    return topo
