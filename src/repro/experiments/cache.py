"""Content-addressed on-disk cache for sweep measurement points.

Every measurement point is a pure function of its inputs — the
:class:`~repro.core.config.ControlPlaneConfig`, the axis rate, and the
:class:`~repro.experiments.harness.RunSpec` (including its seed and any
fault plan), which its :class:`~repro.experiments.parallel.SweepJob`
holds; that determinism is a tested invariant.  A point can therefore
be cached forever under :func:`task_key`'s digest of its job, and a
figure regeneration whose inputs have not changed performs zero
simulation work.  A scale replicate is keyed the same way, in its own
``kind`` namespace.

Layout (``.repro-cache/`` by default)::

    .repro-cache/
      ab/abcdef0123...json      # one entry per point, sharded by prefix

Each entry records the code-version fingerprint of ``src/repro`` at
write time (:func:`repro.obs.ledger.code_fingerprint`).  An entry whose
fingerprint no longer matches the running code is *stale*: it is
ignored (and overwritten after the rerun), since a simulator change may
legitimately move every number.  The :class:`CacheStats` counters
(hits / misses / stale) are surfaced in the report output so a cached
figure run is auditable.

Entries are JSON, so a cache round-trips points bit-for-bit: Python's
``repr``-based float serialization is exact for finite doubles, and the
empty-window NaN percentiles survive via the JSON extension literals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from ..obs.ledger import code_fingerprint
from .harness import PCTPoint

__all__ = ["CacheStats", "ResultCache", "task_key"]

#: default cache directory (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def _stable(value: Any) -> Any:
    """A JSON-serializable, deterministic view of a point input."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _stable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _stable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stable(v) for v in value]
    if isinstance(value, float):
        return repr(value)  # exact: repr round-trips finite doubles
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError("cannot digest %r in a cache key" % (type(value).__name__,))


def task_key(kind: str, payload: Any) -> str:
    """Content address of one :func:`~repro.experiments.parallel.run_tasks` task.

    ``kind`` namespaces the key so two task families whose payloads
    happen to collide (e.g. a scale replicate and a sweep point both
    keyed by a bare seed) can never alias each other's cache entries.
    ``payload`` must be digestible by :func:`_stable` — dataclasses,
    dicts, lists/tuples, and scalars.
    """
    blob = json.dumps(
        {"kind": kind, "task": _stable(payload)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit / miss / stale accounting for one runner invocation."""

    hits: int = 0
    misses: int = 0
    stale: int = 0

    def summary(self) -> str:
        return "cache: hits=%d misses=%d stale=%d" % (
            self.hits,
            self.misses,
            self.stale,
        )


class ResultCache:
    """Content-addressed store of measurement results.

    ``get``/``put`` take the key from :func:`task_key`; entries from a
    different code version count as *stale* and are treated as absent
    (the rerun's ``put`` overwrites them).

    By default entries are :class:`PCTPoint` objects.  Other result
    types plug in through the ``encode``/``decode`` codec pair —
    ``encode(result) -> dict`` and ``decode(dict) -> result`` (e.g.
    ``ScaleResult.to_dict`` / ``ScaleResult.from_dict`` for the scale
    harness) — without changing the on-disk entry shape.
    """

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        fingerprint: Optional[str] = None,
        encode=None,
        decode=None,
    ):
        self.root = Path(root)
        self._fingerprint = fingerprint
        self._encode = encode if encode is not None else dataclasses.asdict
        self._decode = decode if decode is not None else (lambda d: PCTPoint(**d))
        self.stats = CacheStats()

    @property
    def fingerprint(self) -> str:
        """Code fingerprint, computed lazily and exactly once per cache.

        The hash walks every ``.py`` file under ``src/repro``, so it must
        not run per point lookup; a whole ``run_tasks`` sweep performs a
        single computation (see the regression test in
        ``tests/experiments/test_cache.py``).
        """
        fp = self._fingerprint
        if fp is None:
            fp = self._fingerprint = code_fingerprint()
        return fp

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    def get(self, key: str) -> Optional[Any]:
        path = self._path(key)
        try:
            with open(path) as fp:
                entry = json.load(fp)
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if entry.get("fingerprint") != self.fingerprint:
            self.stats.stale += 1
            return None
        try:
            point = self._decode(entry["point"])
        except (KeyError, TypeError):
            self.stats.misses += 1  # foreign/corrupt entry shape
            return None
        self.stats.hits += 1
        return point

    def put(self, key: str, point) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "fingerprint": self.fingerprint,
            "point": self._encode(point),
        }
        tmp = path.with_suffix(".tmp.%d" % os.getpid())
        with open(tmp, "w") as fp:
            json.dump(entry, fp, sort_keys=True)
            fp.write("\n")
        os.replace(tmp, path)  # atomic: concurrent sweeps never see partial JSON

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.glob("*/*.json"):
            path.unlink()
            removed += 1
        return removed
