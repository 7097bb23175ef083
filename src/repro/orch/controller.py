"""The deterministic closed-loop controller (ROADMAP item 1).

:class:`Orchestrator` is a pure sim-clock state machine: it consumes
the epoch-aligned heartbeat feed (per-shard ``health_row`` dicts, whose
``load`` table the engines populate when a policy is active) and emits
lifecycle *actions* — plain picklable dicts the engines apply at epoch
boundaries:

========================  ====================================================
``scale_out``             ring a brand-new CPF into ``region`` (name chosen
                          here so every shard agrees), then repair-fetch the
                          keys that now hash to it
``scale_in``              ring ``cpf`` out, drain its keys via repair
                          fetches, then decommission the node
``upgrade_begin``         ring ``cpf`` out and drain it (rolling upgrade
                          phase 1)
``upgrade_replace``       restart ``cpf`` empty, ring it back in, repair-
                          fetch its keys back (phase 2)
``heal``                  promote orphaned primaries of a crashed ``cpf``
                          onto up-to-date backups; optionally restart it
========================  ====================================================

Where the controller runs differs by topology — in-process (one engine,
ticks are sim timeouts) or at the shard coordinator (ticks piggyback on
lockstep epochs; actions ship inside the next step message) — but its
inputs are identical either way: (policy, duration, a deterministic
health sequence).  Its outputs are therefore bit-reproducible, and the
append-only ``log`` is the pinned action-log witness.

New-CPF naming (the mid-run-joiner contract): orchestrator-added CPFs
are named ``cpf-<tile>-<k>`` with ``k`` one past the region's all-time
high-water index — never a reused index, so remove + re-add cannot
collide, and the standard ``region_of``-style parse (``parts[1]``)
resolves the joiner for the FaultInjector, geo placement, and shard
ownership exactly like a seed CPF.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .policy import OrchPolicy

__all__ = ["Orchestrator", "cpf_index"]


def cpf_index(name: str) -> int:
    """Numeric suffix of ``cpf-<tile>-<k>`` (-1 if non-standard)."""
    tail = name.rsplit("-", 1)[-1]
    try:
        return int(tail)
    except ValueError:
        return -1


class Orchestrator:
    """Policy-driven action source over the heartbeat feed."""

    def __init__(self, policy: OrchPolicy, duration: float):
        self.policy = policy
        self.duration = duration
        #: append-only action log — every entry is the emitted action
        #: plus the (epoch, t) it was decided at; the golden witness.
        self.log: List[Dict[str, Any]] = []
        self.ticks = 0
        self.heartbeats_seen = 0
        self.last_heartbeat: Optional[Dict[str, Any]] = None
        # hysteresis state, all keyed by region geohash
        self._hi: Dict[str, int] = {}
        self._lo: Dict[str, int] = {}
        self._cooldown: Dict[str, int] = {}
        self._hwm: Dict[str, int] = {}
        # rolling-upgrade schedule (built on the first tick past start)
        self._upgrade_plan: Optional[List[Dict[str, Any]]] = None
        self._upgrading: set = set()
        # auto-heal latches, keyed by CPF name
        self._down_since: Dict[str, int] = {}
        self._healed: set = set()

    # -- heartbeat subscriber (programmatic feed) --------------------------

    def attach_stream(self, stream) -> None:
        """Consume a :class:`~repro.obs.stream.HeartbeatStream` live."""
        stream.subscribe(self._on_row)

    def _on_row(self, row: Dict[str, Any]) -> None:
        if row.get("type") == "heartbeat":
            self.heartbeats_seen += 1
            self.last_heartbeat = row

    # -- the tick ----------------------------------------------------------

    def observe(
        self, epoch: int, t: float, healths: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """One control tick: fold shard health, decide, log, return actions."""
        load: Dict[str, Dict[str, Any]] = {}
        for health in sorted(healths, key=lambda h: h.get("shard", 0)):
            for region, row in (health.get("load") or {}).items():
                load[region] = row
        actions: List[Dict[str, Any]] = []
        if self.policy.autoscale:
            self._autoscale(load, actions)
        if self.policy.upgrading:
            self._upgrade(t, load, actions)
        if self.policy.healing:
            self._heal(epoch, load, actions)
        self.ticks += 1
        for action in actions:
            self.log.append(dict(action, epoch=epoch, t=t))
        return actions

    # -- autoscale ---------------------------------------------------------

    def _note_hwm(self, region: str, members: Sequence[str]) -> int:
        hwm = self._hwm.get(region, -1)
        for name in members:
            idx = cpf_index(name)
            if idx > hwm:
                hwm = idx
        self._hwm[region] = hwm
        return hwm

    def _parent_members(self, load, region: str) -> int:
        parent = region[:-1]
        return sum(
            len(row.get("members", ()))
            for r, row in load.items()
            if r[:-1] == parent
        )

    def _autoscale(self, load, actions) -> None:
        p = self.policy
        for region in sorted(load):
            row = load[region]
            members = row.get("members", [])
            self._note_hwm(region, members)
            up = row.get("up", 0)
            per_cpf = (row.get("q", 0) / up) if up else float("inf")
            hi = lo = 0
            if p.scale_out_queue is not None and per_cpf >= p.scale_out_queue:
                hi = self._hi.get(region, 0) + 1
            if (
                p.scale_in_queue is not None
                and up == len(members)  # never shrink a degraded pool
                and per_cpf <= p.scale_in_queue
            ):
                lo = self._lo.get(region, 0) + 1
            self._hi[region], self._lo[region] = hi, lo
            cooldown = self._cooldown.get(region, 0)
            if cooldown > 0:
                self._cooldown[region] = cooldown - 1
                continue
            if hi >= p.scale_out_ticks and len(members) < p.max_cpfs:
                k = self._hwm[region] + 1
                self._hwm[region] = k
                actions.append(
                    {
                        "kind": "scale_out",
                        "region": region,
                        "cpf": "cpf-%s-%d" % (region, k),
                    }
                )
                self._cooldown[region] = p.cooldown_ticks
                self._hi[region] = 0
                continue
            if (
                lo >= p.scale_in_ticks
                and len(members) > max(1, p.min_cpfs)
                and self._parent_members(load, region) > 1
            ):
                victims = [m for m in members if m not in self._upgrading]
                if not victims:
                    continue
                victim = max(victims, key=lambda m: (cpf_index(m), m))
                actions.append(
                    {"kind": "scale_in", "region": region, "cpf": victim}
                )
                self._cooldown[region] = p.cooldown_ticks
                self._lo[region] = 0

    # -- rolling upgrade ---------------------------------------------------

    def _upgrade(self, t: float, load, actions) -> None:
        p = self.policy
        start = p.upgrade_start_frac * self.duration
        if t < start:
            return
        if self._upgrade_plan is None:
            targets = []
            for region in sorted(load):
                if p.upgrade_prefix is not None and not region.startswith(
                    p.upgrade_prefix
                ):
                    continue
                for name in sorted(
                    load[region].get("members", []),
                    key=lambda m: (cpf_index(m), m),
                ):
                    targets.append((region, name))
            self._upgrade_plan = [
                {
                    "region": region,
                    "cpf": name,
                    "begin": start + k * p.upgrade_stagger_s,
                    "phase": 0,
                }
                for k, (region, name) in enumerate(targets)
            ]
        for item in self._upgrade_plan:
            if item["phase"] == 0 and t >= item["begin"]:
                item["phase"] = 1
                self._upgrading.add(item["cpf"])
                actions.append(
                    {
                        "kind": "upgrade_begin",
                        "region": item["region"],
                        "cpf": item["cpf"],
                    }
                )
            if item["phase"] == 1 and t >= item["begin"] + p.upgrade_drain_s:
                item["phase"] = 2
                self._upgrading.discard(item["cpf"])
                actions.append(
                    {
                        "kind": "upgrade_replace",
                        "region": item["region"],
                        "cpf": item["cpf"],
                    }
                )

    # -- auto-heal ---------------------------------------------------------

    def _heal(self, epoch: int, load, actions) -> None:
        p = self.policy
        down_now = set()
        for region in sorted(load):
            for name in load[region].get("down", ()):
                down_now.add(name)
                if name in self._upgrading:
                    continue  # our own drain, not a crash
                first = self._down_since.setdefault(name, epoch)
                if name in self._healed:
                    continue
                if epoch - first + 1 >= p.heal_after_ticks:
                    self._healed.add(name)
                    actions.append(
                        {
                            "kind": "heal",
                            "region": region,
                            "cpf": name,
                            "recover": p.heal_recover,
                        }
                    )
        for name in list(self._down_since):
            if name not in down_now:
                del self._down_since[name]
                self._healed.discard(name)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        for entry in self.log:
            counts[entry["kind"]] = counts.get(entry["kind"], 0) + 1
        return {
            "ticks": self.ticks,
            "actions": len(self.log),
            "by_kind": counts,
            "heartbeats_seen": self.heartbeats_seen,
        }


# -- baseline comparison ----------------------------------------------------


def worst_attach_p99(result):
    """Worst-region attach p99 (ms) from a :class:`ScaleResult`.

    The autoscale acceptance metric: the controller must make the
    *slowest* region's attach tail better, not shift load around.
    Returns ``None`` when no region completed an attach.
    """
    worst = None
    for table in getattr(result, "region_pct_ms", {}).values():
        attach = table.get("attach")
        if not attach:
            continue
        p99 = attach.get("p99")
        if p99 is None:
            continue
        if worst is None or p99 > worst:
            worst = p99
    return worst


def orch_compare(orchestrated, baseline) -> Dict[str, Any]:
    """Compare an orchestrated run against its fixed-capacity twin.

    Both runs share spec, seed, and shard count; only ``orch_policy``
    differs.  The dict lands in the run ledger under ``orch.compare``.
    """
    orch_p99 = worst_attach_p99(orchestrated)
    base_p99 = worst_attach_p99(baseline)
    return {
        "metric": "attach_p99_ms_worst_region",
        "orch_attach_p99_ms": orch_p99,
        "baseline_attach_p99_ms": base_p99,
        "baseline_violations": baseline.violations,
        "baseline_digest": baseline.digest,
        "improved": (
            orch_p99 is not None
            and base_p99 is not None
            and orch_p99 < base_p99
        ),
    }
