"""Tests for geo-hash city generation (repro.scale.topology)."""

import pytest

from repro.faults.injector import region_of
from repro.geo import geohash
from repro.geo.regions import region_for_tile
from repro.scale.topology import (
    CHILD_ORDER,
    build_city,
    tile_adjacency,
)


class TestBuildCity:
    def test_default_city_shape(self):
        topo = build_city()
        assert len(topo.regions) == 16
        assert len({t[:-1] for t in topo.tiles}) == 4  # 4 level-2 parents
        assert all(len(t) == 6 for t in topo.tiles)

    def test_tiles_are_string_extensions_of_parents(self):
        topo = build_city(l2_regions=3, l1_per_l2=2)
        for tile in topo.tiles:
            assert tile[-1] in CHILD_ORDER
        # membership in a level-2 region is exactly the prefix
        parents = {t[:-1] for t in topo.tiles}
        assert len(parents) == 3

    def test_city_graph_is_connected(self):
        # A disconnected city silently turns mobility into a no-op; the
        # CHILD_ORDER choice exists precisely to keep partial parents
        # (l1_per_l2=2 -> southern row only) contiguous.
        for l1 in (2, 3, 4):
            topo = build_city(l2_regions=4, l1_per_l2=l1)
            seen = {topo.tiles[0]}
            frontier = [topo.tiles[0]]
            while frontier:
                for nxt in topo.adjacency[frontier.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            assert seen == set(topo.tiles), "l1_per_l2=%d disconnects the city" % l1

    def test_spare_tile_outside_city_but_adjacent(self):
        topo = build_city()
        assert topo.spare_tile not in topo.tiles
        joined = topo.adjacency_with([topo.spare_tile])
        assert joined[topo.spare_tile], "spare tile is an island"

    def test_node_naming_matches_fault_injector_convention(self):
        topo = build_city(l2_regions=1, l1_per_l2=1)
        region = topo.regions[0]
        tile = region.geohash
        assert region.cta == "cta-" + tile
        for node in [region.cta] + region.cpfs + region.bss:
            assert region_of(node) == tile

    def test_region_map_round_trip(self):
        topo = build_city(l2_regions=2, l1_per_l2=2, cpfs_per_region=3)
        rmap = topo.region_map()
        assert sorted(rmap.regions) == sorted(topo.tiles)
        for tile in topo.tiles:
            assert len(rmap.region(tile).cpfs) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            build_city(l2_regions=0)
        with pytest.raises(ValueError):
            build_city(l1_per_l2=5)
        with pytest.raises(ValueError):
            build_city(precision=2)

    def test_antimeridian_guard(self):
        with pytest.raises(ValueError, match="antimeridian"):
            build_city(l2_regions=64, precision=3, origin=(41.88, 170.0))


class TestAdjacency:
    def test_adjacency_is_exact_edge_sharing(self):
        topo = build_city(l2_regions=2, l1_per_l2=4)
        for tile, nbrs in topo.adjacency.items():
            (lat_lo, lat_hi), (lon_lo, lon_hi) = geohash.decode_bounds(tile)
            for nbr in nbrs:
                (blat_lo, blat_hi), (blon_lo, blon_hi) = geohash.decode_bounds(nbr)
                touches = (
                    lat_lo == blat_hi
                    or lat_hi == blat_lo
                    or lon_lo == blon_hi
                    or lon_hi == blon_lo
                )
                assert touches, (tile, nbr)

    def test_adjacency_symmetric(self):
        topo = build_city()
        for tile, nbrs in topo.adjacency.items():
            for nbr in nbrs:
                assert tile in topo.adjacency[nbr]

    def test_band_degree_profile(self):
        # the city is a 2-tile-tall band marching east: corner tiles have
        # exactly 2 neighbours, every other tile 3 — no dangling leaves
        topo = build_city(l2_regions=3, l1_per_l2=4)
        counts = sorted(len(ns) for ns in topo.adjacency.values())
        assert counts[0] == 2 and counts[-1] == 3
        assert counts.count(2) == 4  # the four band corners

    def test_adjacency_without(self):
        topo = build_city(l2_regions=2, l1_per_l2=2)
        gone = topo.tiles[0]
        pruned = topo.adjacency_without([gone])
        assert gone not in pruned
        assert all(gone not in ns for ns in pruned.values())

    def test_tile_adjacency_only_equal_precision_siblings(self):
        # diagonal tiles share a corner, not an edge: not adjacent
        base = build_city(l2_regions=1, l1_per_l2=4).tiles
        adj = tile_adjacency(base)
        sw, se, nw, ne = (
            [t for t in base if t.endswith(c)][0] for c in ("0", "2", "1", "3")
        )
        assert se not in adj[nw] and nw not in adj[se]
        assert sw not in adj[ne] and ne not in adj[sw]


class TestRegionForTile:
    def test_counts_and_names(self):
        region = region_for_tile("dp3wj2", 3, 2)
        assert region.cpfs == ["cpf-dp3wj2-0", "cpf-dp3wj2-1", "cpf-dp3wj2-2"]
        assert region.bss == ["bs-dp3wj2-0", "bs-dp3wj2-1"]
        assert region.level2 == "dp3wj"
