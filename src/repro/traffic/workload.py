"""Workload drivers: turn arrival streams into procedure executions.

A :class:`WorkloadDriver` owns a deployment, a pool of UEs, and the
policy for what each arrival does (fresh attach, service request from a
warm UE, handover to a sibling region...).  It is the simulated
counterpart of the paper's DPDK traffic generator (§5).
"""

from __future__ import annotations

import itertools
import zlib
from typing import Callable, Iterable, List, Optional

from ..core.deployment import Deployment
from ..core.ue import UE
from ..sim.core import Process
from .traces import TraceRecord

__all__ = ["WorkloadDriver"]


class WorkloadDriver:
    """Schedules procedures on a deployment per an arrival stream."""

    def __init__(self, dep: Deployment, seed_stream=None):
        self.dep = dep
        self.sim = dep.sim
        self.rng = seed_stream or dep.rng.stream("workload")
        self._fresh_counter = itertools.count()
        self._pool: List[UE] = []
        self._pool_cursor = 0
        self.spawned: List[Process] = []
        self.arrivals_dropped = 0

    # -- UE pool ------------------------------------------------------------

    def build_pool(self, size: int, bs_names: Optional[List[str]] = None) -> List[UE]:
        """Bootstrap ``size`` attached UEs spread over the given BSs."""
        if size < 1:
            raise ValueError("pool size must be >= 1")
        bs_names = bs_names or sorted(self.dep.bss)
        for i in range(size):
            ue_id = "pool-%06d" % i
            self.dep.bootstrap_ue(ue_id, bs_names[i % len(bs_names)])
            self._pool.append(self.dep.ue(ue_id))
        return list(self._pool)

    def _take_free_ue(self, bs_names: List[str]) -> UE:
        """A non-busy pooled UE, growing the pool when all are busy."""
        for _ in range(len(self._pool)):
            ue = self._pool[self._pool_cursor % len(self._pool)] if self._pool else None
            self._pool_cursor += 1
            if ue is not None and not ue.busy and ue.attached:
                return ue
        idx = len(self._pool)
        ue_id = "pool-%06d" % idx
        ue = self.dep.bootstrap_ue(ue_id, bs_names[idx % len(bs_names)])
        self._pool.append(ue)
        return ue

    # -- scheduling -----------------------------------------------------------

    def schedule_attaches(
        self, arrival_times: Iterable[float], bs_names: Optional[List[str]] = None
    ) -> int:
        """Each arrival: a fresh UE performs initial attach."""
        bs_names = bs_names or sorted(self.dep.bss)
        count = 0
        for t in arrival_times:
            idx = next(self._fresh_counter)
            bs = bs_names[idx % len(bs_names)]
            self.sim.schedule(max(0.0, t - self.sim.now), self._start_attach, idx, bs)
            count += 1
        return count

    def _start_attach(self, idx: int, bs: str) -> None:
        ue = self.dep.new_ue("fresh-%07d" % idx, bs)
        self.spawned.append(self.sim.process(ue.execute("attach"), name=ue.ue_id))

    def schedule_procedures(
        self,
        proc_name: str,
        arrival_times: Iterable[float],
        bs_names: Optional[List[str]] = None,
        target_picker: Optional[Callable[[UE], str]] = None,
    ) -> int:
        """Each arrival: a warm pooled UE runs ``proc_name``.

        ``target_picker`` supplies the handover target BS for
        CPF-changing procedures.
        """
        bs_names = bs_names or sorted(self.dep.bss)
        count = 0
        for t in arrival_times:
            self.sim.schedule(
                max(0.0, t - self.sim.now),
                self._start_procedure,
                proc_name,
                bs_names,
                target_picker,
            )
            count += 1
        return count

    def _start_procedure(self, proc_name, bs_names, target_picker) -> None:
        ue = self._take_free_ue(bs_names)
        target = target_picker(ue) if target_picker else None
        self.spawned.append(
            self.sim.process(ue.execute(proc_name, target_bs=target), name=ue.ue_id)
        )

    def schedule_trace(self, records: Iterable[TraceRecord]) -> int:
        """Replay a synthetic/ng4T-style trace (see :mod:`.traces`)."""
        count = 0
        for record in records:
            self.sim.schedule(
                max(0.0, record.time - self.sim.now), self._start_trace_record, record
            )
            count += 1
        return count

    def _start_trace_record(self, record: TraceRecord) -> None:
        dep = self.dep
        try:
            ue = dep.ue(record.ue)
        except KeyError:
            bs_names = sorted(dep.bss)
            # crc32, not hash(): placement must not depend on PYTHONHASHSEED
            bs = bs_names[zlib.crc32(record.ue.encode()) % len(bs_names)]
            ue = dep.new_ue(record.ue, bs)
        if ue.busy:
            self.arrivals_dropped += 1
            return
        proc = record.procedure
        if proc != "attach" and not ue.attached:
            proc = "attach"
        target = record.target_bs if proc in ("handover", "fast_handover") else None
        if proc in ("handover", "fast_handover") and target is None:
            self.arrivals_dropped += 1
            return
        self.spawned.append(
            self.sim.process(ue.execute(proc, target_bs=target), name=ue.ue_id)
        )

    # -- handover target helpers --------------------------------------------------

    def sibling_region_target(self) -> Callable[[UE], str]:
        """Picker: a BS in a different level-1 region, same level-2."""
        dep = self.dep

        def pick(ue: UE) -> str:
            current_region = dep.bss[ue.bs_name].region
            for bs_name in sorted(dep.bss):
                bs = dep.bss[bs_name]
                if bs.region != current_region and dep.region_map.shares_level2(
                    bs.region, current_region
                ):
                    return bs_name
            raise LookupError("no sibling-region BS for %s" % ue.ue_id)

        return pick

    def same_region_target(self) -> Callable[[UE], str]:
        """Picker: another BS in the UE's own region (intra handover)."""
        dep = self.dep

        def pick(ue: UE) -> str:
            region = dep.bss[ue.bs_name].region
            for bs_name in sorted(dep.bss):
                if bs_name != ue.bs_name and dep.bss[bs_name].region == region:
                    return bs_name
            raise LookupError("no second BS in region %s" % region)

        return pick

    # -- results ---------------------------------------------------------------------

    def completed(self) -> int:
        return sum(1 for p in self.spawned if p.fired and p.ok)

    def failed(self) -> int:
        return sum(1 for p in self.spawned if p.fired and not p.ok)
