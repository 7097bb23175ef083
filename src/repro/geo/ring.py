"""Consistent hash ring with virtual nodes.

The CTA implements two of these (paper §4.3): the level-1 ring over the
CPFs of its own region (primary selection) and the level-2 ring over all
CPFs of the enclosing region (replica placement).  The same structure
doubles as the CTA's load balancer (§5: "consistent hashing based load
balancing scheme within the CTA").
"""

from __future__ import annotations

import bisect
import functools
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["HashRing"]


#: entries the ring-hash memo keeps.  Placing a UE hashes its id a few
#: times in a row (level-1 primary, then level-2 replicas), and vnode
#: labels are hashed once per ring build, so a small LRU keeps that hit
#: pattern while its memory stays O(1) in the number of UEs placed.
HASH_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=HASH_MEMO_SIZE)
def _hash64(data: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent hashing over named members with virtual nodes."""

    def __init__(self, members: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._members: Dict[str, bool] = {}
        for member in members:
            self.add(member)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    @property
    def members(self) -> List[str]:
        return sorted(self._members)

    def add(self, member: str) -> None:
        if member in self._members:
            raise ValueError("member %r already on ring" % member)
        self._members[member] = True
        for v in range(self.vnodes):
            point = _hash64("%s#%d" % (member, v))
            bisect.insort(self._points, (point, member))

    def remove(self, member: str) -> None:
        if member not in self._members:
            raise KeyError("member %r not on ring" % member)
        del self._members[member]
        self._points = [(p, m) for (p, m) in self._points if m != member]

    def lookup(self, key: str) -> str:
        """The member owning ``key`` (first point clockwise)."""
        if not self._points:
            raise LookupError("ring is empty")
        h = _hash64(key)
        idx = bisect.bisect_right(self._points, (h, "￿"))
        if idx == len(self._points):
            idx = 0
        return self._points[idx][1]

    def successors(
        self, key: str, n: int, exclude: Optional[Iterable[str]] = None
    ) -> List[str]:
        """Up to ``n`` distinct members clockwise from ``key``.

        ``exclude`` filters members out *before* counting — this is how
        replica placement skips the level-1 members on the level-2 ring
        (§4.3: "N consecutive replicas on a level-2 ring (not included
        in the level-1 ring)").
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return []
        if not self._points:
            raise LookupError("ring is empty")
        excluded = frozenset(exclude or ())
        h = _hash64(key)
        start = bisect.bisect_right(self._points, (h, "￿"))
        chosen: List[str] = []
        seen = set()
        for i in range(len(self._points)):
            _point, member = self._points[(start + i) % len(self._points)]
            if member in seen or member in excluded:
                continue
            seen.add(member)
            chosen.append(member)
            if len(chosen) == n:
                break
        return chosen

    def spread(self, keys: Iterable[str]) -> Dict[str, int]:
        """How many of ``keys`` each member owns (load-balance check)."""
        counts = {m: 0 for m in self._members}
        for key in keys:
            counts[self.lookup(key)] += 1
        return counts
