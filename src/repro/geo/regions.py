"""Deployment regions: level-1 / level-2 structure over geo-hashes.

Mirrors Fig. 6 of the paper: the deployment area is carved into level-1
regions (one CTA + a CPF pool + several BSs each, named by a geo-hash of
fixed precision); dropping the last geo-hash character yields the
level-2 region grouping four level-1 siblings.  Each region's CTA owns
two consistent hash rings:

* level-1 ring — the region's own CPFs; hashes a UE id to its primary.
* level-2 ring — every CPF in the level-2 region; replica placement
  picks N successors *excluding the level-1 members*, so backups always
  land outside the primary's region (different failure domains, and the
  state a Fast Handover needs is already in the neighbor region).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from . import geohash
from .ring import HashRing

__all__ = ["Region", "RegionMap", "region_for_tile"]


@dataclass
class Region:
    """One level-1 region: a geo-hash cell with its nodes' names."""

    geohash: str
    cta: str
    cpfs: List[str]
    bss: List[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.cpfs:
            raise ValueError("region %s has no CPFs" % self.geohash)

    @property
    def level2(self) -> str:
        return geohash.parent(self.geohash)


def region_for_tile(tile: str, cpfs_per_region: int, bss_per_region: int) -> Region:
    """The Region (node names included) for one level-1 tile.

    Naming follows the repo convention ``cta-<geohash>``,
    ``cpf-<geohash>-<k>`` and ``bs-<geohash>-<k>``, so that
    ``repro.faults.injector.region_of`` keeps parsing regions out of
    node names unchanged.
    """
    return Region(
        geohash=tile,
        cta="cta-" + tile,
        cpfs=["cpf-%s-%d" % (tile, k) for k in range(cpfs_per_region)],
        bss=["bs-%s-%d" % (tile, k) for k in range(bss_per_region)],
    )


class RegionMap:
    """The deployment: regions, their rings, and replica placement."""

    def __init__(self, regions: Iterable[Region], vnodes: int = 64):
        self.regions: Dict[str, Region] = {}
        self.vnodes = vnodes
        self._level1_rings: Dict[str, HashRing] = {}
        self._level2_rings: Dict[str, HashRing] = {}
        self._bs_region: Dict[str, str] = {}
        self._prefix_rings: Dict[str, HashRing] = {}
        #: every CPF's home region, including CPFs currently ringed out
        #: by a drain (scale-in / rolling upgrade): in-flight repair
        #: fetches still need ``region_of_cpf`` to resolve the victim.
        self._cpf_home: Dict[str, str] = {}
        for region in regions:
            self.add_region(region)
        if not self.regions:
            raise ValueError("deployment needs at least one region")

    # -- membership churn (CTA add/remove, §4.3 ring maintenance) --------------

    def add_region(self, region: Region) -> None:
        """Admit a level-1 region (one CTA + its CPF pool) to the rings.

        Consistent hashing keeps this cheap and local: level-1 lookups in
        other regions are untouched, and on the level-2 ring only keys
        that now hash to the new region's CPFs move (the monotonicity
        property ``tests/geo/test_ring_properties.py`` pins).  Callers
        owning live placements must re-place affected UEs themselves.
        """
        if region.geohash in self.regions:
            raise ValueError("duplicate region %s" % region.geohash)
        if len(region.geohash) < 2:
            raise ValueError(
                "region geo-hash %r too short for a level-2 parent" % region.geohash
            )
        for bs in region.bss:
            if bs in self._bs_region:
                raise ValueError("BS %s in two regions" % bs)
        self.regions[region.geohash] = region
        self._level1_rings[region.geohash] = HashRing(region.cpfs, self.vnodes)
        for bs in region.bss:
            self._bs_region[bs] = region.geohash
        for cpf in region.cpfs:
            self._cpf_home[cpf] = region.geohash
        ring2 = self._level2_rings.get(region.level2)
        if ring2 is None:
            self._level2_rings[region.level2] = HashRing(region.cpfs, self.vnodes)
        else:
            for cpf in region.cpfs:
                ring2.add(cpf)
        # Wider rings are rebuilt lazily on next use.
        self._prefix_rings.clear()

    def remove_region(self, region_hash: str) -> Region:
        """Retire a level-1 region from every ring; returns it.

        The last region of the deployment cannot be removed.  As with
        :meth:`add_region`, only keys owned by the removed CPFs move.
        """
        region = self.region(region_hash)
        if len(self.regions) == 1:
            raise ValueError("cannot remove the last region %s" % region_hash)
        del self.regions[region_hash]
        del self._level1_rings[region_hash]
        for bs in region.bss:
            self._bs_region.pop(bs, None)
        ring2 = self._level2_rings[region.level2]
        for cpf in region.cpfs:
            ring2.remove(cpf)
            self._cpf_home.pop(cpf, None)
        if not len(ring2):
            del self._level2_rings[region.level2]
        self._prefix_rings.clear()
        return region

    def add_cpf(self, region_hash: str, cpf_name: str) -> None:
        """Admit one CPF to an existing region's rings (scale-out).

        The single-node analogue of :meth:`add_region`: the CPF enters
        the region's level-1 ring and the parent's level-2 ring, wider
        prefix rings rebuild lazily, and — by consistent-hashing
        monotonicity — only keys that now hash to the joiner move.
        Callers re-place affected UEs via ``stale_placements``.
        """
        region = self.region(region_hash)
        if cpf_name in region.cpfs:
            raise ValueError(
                "CPF %s already in region %s" % (cpf_name, region_hash)
            )
        home = self._cpf_home.get(cpf_name)
        if home is not None and home != region_hash:
            raise ValueError(
                "CPF %s already homed in region %s" % (cpf_name, home)
            )
        region.cpfs.append(cpf_name)
        self._level1_rings[region_hash].add(cpf_name)
        self._level2_rings[region.level2].add(cpf_name)
        self._cpf_home[cpf_name] = region_hash
        self._prefix_rings.clear()

    def remove_cpf(self, region_hash: str, cpf_name: str) -> None:
        """Ring a CPF out of its region (drain for scale-in / upgrade).

        Refuses to empty the region's level-1 ring or the parent's
        level-2 ring — scale-in must never remove the last replica
        target of a level-2 parent.  The CPF's home stays recorded so
        in-flight repair fetches can still resolve it as a *source*
        (``region_of_cpf``); re-adding the same name later is allowed.
        """
        region = self.region(region_hash)
        if cpf_name not in region.cpfs:
            raise KeyError(
                "CPF %s not in region %s" % (cpf_name, region_hash)
            )
        if len(region.cpfs) <= 1:
            raise ValueError(
                "cannot remove the last CPF of region %s" % region_hash
            )
        ring2 = self._level2_rings[region.level2]
        if len(ring2) <= 1:
            raise ValueError(
                "cannot remove the last CPF of level-2 parent %s"
                % region.level2
            )
        region.cpfs.remove(cpf_name)
        self._level1_rings[region_hash].remove(cpf_name)
        ring2.remove(cpf_name)
        self._prefix_rings.clear()

    # -- lookups -----------------------------------------------------------

    def region(self, region_hash: str) -> Region:
        try:
            return self.regions[region_hash]
        except KeyError:
            raise KeyError("unknown region %r" % region_hash)

    def region_of_bs(self, bs: str) -> Region:
        try:
            return self.regions[self._bs_region[bs]]
        except KeyError:
            raise KeyError("BS %r not in any region" % bs)

    def region_of_cpf(self, cpf: str) -> Region:
        home = self._cpf_home.get(cpf)
        if home is not None:
            region = self.regions.get(home)
            if region is not None:
                return region
        for region in self.regions.values():
            if cpf in region.cpfs:
                return region
        raise KeyError("CPF %r not in any region" % cpf)

    def level1_ring(self, region_hash: str) -> HashRing:
        return self._level1_rings[self.region(region_hash).geohash]

    def level2_ring(self, region_hash: str) -> HashRing:
        return self._level2_rings[self.region(region_hash).level2]

    def all_cpfs(self) -> List[str]:
        return sorted(cpf for r in self.regions.values() for cpf in r.cpfs)

    def all_ctas(self) -> List[str]:
        return sorted(r.cta for r in self.regions.values())

    # -- generalized multi-level rings (paper footnote 14) ---------------------

    def level_ring(self, region_hash: str, level: int) -> HashRing:
        """The consistent hash ring over all CPFs within the level-``k``
        region enclosing ``region_hash``.

        ``level=1`` is the region's own ring; ``level=2`` the paper's
        level-2 ring; higher levels strip further geo-hash characters
        (the paper leaves >2 rings as future work; implemented here).
        Rings are cached after first construction.
        """
        region = self.region(region_hash)
        if level < 1:
            raise ValueError("level must be >= 1")
        if level == 1:
            return self._level1_rings[region.geohash]
        prefix = region.geohash[: -(level - 1)]
        if not prefix:
            prefix = ""  # whole deployment
        cache = self._prefix_rings
        ring = cache.get(prefix)
        if ring is None:
            members = [
                cpf
                for r in self.regions.values()
                if r.geohash.startswith(prefix)
                for cpf in r.cpfs
            ]
            ring = HashRing(members, self.vnodes)
            cache[prefix] = ring
        return ring

    def shares_level(self, region_a: str, region_b: str, level: int) -> bool:
        """Whether two regions fall under one level-``k`` region."""
        if level < 1:
            raise ValueError("level must be >= 1")
        if level == 1:
            return region_a == region_b
        a = self.region(region_a).geohash[: -(level - 1)]
        b = self.region(region_b).geohash[: -(level - 1)]
        return a == b

    # -- placement (§4.3) ---------------------------------------------------

    def primary_for(self, ue_key: str, region_hash: str) -> str:
        """Primary CPF: hash of the UE id on the region's level-1 ring."""
        return self.level1_ring(region_hash).lookup(ue_key)

    def replicas_for(
        self, ue_key: str, region_hash: str, n: int, level: int = 2
    ) -> List[str]:
        """N backup CPFs on the level-``k`` ring, outside the level-1 ring.

        ``level=2`` is the paper's placement; higher levels spread the
        replicas over a wider geography (more handovers become Fast
        Handovers at the cost of longer checkpoint paths).  If the
        level-``k`` ring has too few CPFs outside this region (a region
        that is the lone child of its parent tile, or a sparse edge of
        the deployment), escalate through successively wider rings up to
        the whole deployment before falling back to level-1 members
        other than the primary — a lone region under a parent must not
        silently lose all geo-replication while other regions exist.
        """
        region = self.region(region_hash)
        deepest = len(region.geohash)  # level whose prefix is "" (all regions)
        eff_level = max(level, 2)
        replicas = self.level_ring(region_hash, eff_level).successors(
            ue_key, n, exclude=region.cpfs
        )
        while len(replicas) < n and eff_level < deepest + 1:
            eff_level += 1
            wider = self.level_ring(region_hash, eff_level).successors(
                ue_key, n - len(replicas), exclude=list(region.cpfs) + replicas
            )
            replicas.extend(wider)
        if len(replicas) < n:
            primary = self.primary_for(ue_key, region_hash)
            extra = self.level1_ring(region_hash).successors(
                ue_key, n - len(replicas), exclude=[primary] + replicas
            )
            replicas.extend(extra)
        return replicas

    def shares_level2(self, region_a: str, region_b: str) -> bool:
        """Whether a handover between these regions can be a Fast Handover."""
        return self.region(region_a).level2 == self.region(region_b).level2
