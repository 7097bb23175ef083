"""Reference slot addressing: the shard ``CohortDriver`` index of PR <= 32.

Test fixture only — never imported from ``src/``.  A shard's driver used
to index its UEs with a global id -> slot dict over every slot and one
slot list per id range, scanned once and extended by ``add_slot``.
``repro.scale.cohort.CohortDriver`` replaced both with a bisection over
its ascending initial ids plus an immigrants-only dict; this class keeps
the old index verbatim (addressing only, no columns) as the oracle for
``test_cohort.py``: every ``slot()``, ``len(bucket)`` and ``bucket[k]``
must agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class ReferenceAddressing:
    """Slot <-> global id for one shard's share ``ids``."""

    def __init__(self, ids):
        self.ids = list(ids)
        self.n = len(self.ids)
        self._slots: Dict[int, int] = {g: i for i, g in enumerate(self.ids)}
        self._buckets: Dict[Tuple[int, Optional[int]], List[int]] = {}

    def slot(self, gid: int) -> Optional[int]:
        return self._slots.get(gid)

    def bucket(self, lo: int = 0, hi: Optional[int] = None) -> List[int]:
        bucket = self._buckets.get((lo, hi))
        if bucket is None:
            bucket = self._buckets[(lo, hi)] = [
                i
                for i, g in enumerate(self.ids)
                if lo <= g and (hi is None or g < hi)
            ]
        return bucket

    def add_slot(self, gid: int) -> int:
        i = self.slot(gid)
        if i is None:
            i = self.n
            self.n += 1
            self.ids.append(gid)
            self._slots[gid] = i
            for (lo, hi), bucket in self._buckets.items():
                if lo <= gid and (hi is None or gid < hi):
                    bucket.append(i)
        return i
