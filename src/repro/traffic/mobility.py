"""Mobility models over geo-hash tile graphs.

The city-scale scenarios (``repro.scale``) need UEs that *roam*: every
move is a tile transition on the deployment's level-1 tile adjacency
graph, and every transition that crosses a region boundary becomes a
handover — a Fast Handover when the tiles share a level-2 parent
(§4.3), a full handover otherwise.  Three models cover the scenario
catalog:

* :class:`RandomWalkMobility` — steady-city background roaming;
* :class:`CommuteWaveMobility` — a timed directional wave from
  residential tiles toward a downtown core (morning commute);
* :class:`FlashCrowdMobility` — convergence onto one venue tile during
  an event window, dispersal afterwards (stadium).

Models are pure policy: given an RNG, the current tile, and the sim
time they return the next tile.  All randomness comes from the caller's
seeded stream, so a scenario's whole mobility pattern is a deterministic
function of its seed.  The adjacency graph is swappable mid-run
(:meth:`MobilityModel.set_adjacency`) because ring churn adds and
retires tiles.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional

__all__ = [
    "MobilityModel",
    "RandomWalkMobility",
    "CommuteWaveMobility",
    "FlashCrowdMobility",
    "bfs_distances",
]


def bfs_distances(adjacency: Dict[str, List[str]], targets: Iterable[str]) -> Dict[str, int]:
    """Hop distance from every tile to the nearest target tile."""
    dist: Dict[str, int] = {}
    frontier = deque()
    for t in sorted(targets):
        if t in adjacency:
            dist[t] = 0
            frontier.append(t)
    while frontier:
        tile = frontier.popleft()
        for nxt in adjacency[tile]:
            if nxt not in dist:
                dist[nxt] = dist[tile] + 1
                frontier.append(nxt)
    return dist


class MobilityModel:
    """Base: uniform initial placement, no movement."""

    name = "static"

    def __init__(self, adjacency: Dict[str, List[str]]):
        self._adjacency: Dict[str, List[str]] = {}
        self.set_adjacency(adjacency)

    def set_adjacency(self, adjacency: Dict[str, List[str]]) -> None:
        """Swap the tile graph (ring churn added/retired tiles)."""
        self._adjacency = {tile: sorted(nbrs) for tile, nbrs in adjacency.items()}
        self._tiles = sorted(self._adjacency)
        self._rebuild()

    def _rebuild(self) -> None:
        """Derive per-graph state; models keeping more extend this."""
        #: where :meth:`initial_tile` draws from (uniform over it)
        self._pool = self._tiles

    @property
    def tiles(self) -> List[str]:
        return list(self._tiles)

    def neighbors(self, tile: str) -> List[str]:
        return self._adjacency.get(tile, [])

    @property
    def initial_pool(self) -> List[str]:
        """The tiles initial placement draws from, uniformly."""
        return list(self._pool)

    def initial_tile(self, rng) -> str:
        return self._pool[rng.randrange(len(self._pool))]

    def next_tile(self, rng, tile: str, now: float) -> Optional[str]:
        """The next tile for a UE in ``tile`` at ``now`` (None = stay)."""
        return None

    # -- shared movement primitives ----------------------------------------

    def _random_step(self, rng, tile: str) -> Optional[str]:
        nbrs = self._adjacency.get(tile)
        if not nbrs:
            return None
        return nbrs[rng.randrange(len(nbrs))]

    def _step_toward(self, rng, tile: str, dist: Dict[str, int]) -> Optional[str]:
        """Greedy descent on a BFS distance field; random walk at 0."""
        here = dist.get(tile)
        if here is None:  # disconnected from every target: wander
            return self._random_step(rng, tile)
        if here == 0:
            return self._random_step(rng, tile)
        best = [n for n in self._adjacency.get(tile, ()) if dist.get(n, here) < here]
        if not best:
            return self._random_step(rng, tile)
        return best[rng.randrange(len(best))]


class RandomWalkMobility(MobilityModel):
    """Uniform random walk on the tile graph."""

    name = "random_walk"

    def next_tile(self, rng, tile: str, now: float) -> Optional[str]:
        return self._random_step(rng, tile)


class CommuteWaveMobility(MobilityModel):
    """Directional wave: residential tiles -> downtown during a window.

    Inside ``[wave_start, wave_end)`` every move steps one tile closer
    to the nearest downtown tile; outside the window UEs random-walk.
    Initial placement is biased to the residential (non-downtown) tiles,
    so the wave actually has somewhere to come from.
    """

    name = "commute"

    def __init__(
        self,
        adjacency: Dict[str, List[str]],
        downtown: Iterable[str],
        wave_start: float,
        wave_end: float,
    ):
        self.downtown = sorted(downtown)
        self.wave_start = wave_start
        self.wave_end = wave_end
        super().__init__(adjacency)

    def _rebuild(self) -> None:
        self._dist = bfs_distances(self._adjacency, self.downtown)
        residential = [t for t in self._tiles if self._dist.get(t, 1) > 0]
        self._pool = residential or self._tiles

    def next_tile(self, rng, tile: str, now: float) -> Optional[str]:
        if self.wave_start <= now < self.wave_end:
            return self._step_toward(rng, tile, self._dist)
        return self._random_step(rng, tile)


class FlashCrowdMobility(MobilityModel):
    """Stadium event: converge on one venue tile, then disperse.

    During ``[flash_start, flash_end)`` every move heads for the venue;
    after the event moves step *away* from it (maximally increasing
    distance), modeling the crowd draining back out; before the event
    UEs random-walk.
    """

    name = "flash_crowd"

    def __init__(
        self,
        adjacency: Dict[str, List[str]],
        venue: str,
        flash_start: float,
        flash_end: float,
    ):
        self.venue = venue
        self.flash_start = flash_start
        self.flash_end = flash_end
        super().__init__(adjacency)

    def _rebuild(self) -> None:
        super()._rebuild()
        self._dist = bfs_distances(self._adjacency, [self.venue])

    def next_tile(self, rng, tile: str, now: float) -> Optional[str]:
        if self.flash_start <= now < self.flash_end:
            return self._step_toward(rng, tile, self._dist)
        if now >= self.flash_end:
            here = self._dist.get(tile)
            if here is not None:
                away = [
                    n
                    for n in self._adjacency.get(tile, ())
                    if self._dist.get(n, here) > here
                ]
                if away:
                    return away[rng.randrange(len(away))]
        return self._random_step(rng, tile)
