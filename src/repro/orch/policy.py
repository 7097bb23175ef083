"""The orchestration policy DSL (``--policy`` JSON).

An :class:`OrchPolicy` is the complete, JSON-round-trippable input of
the closed-loop controller: tick cadence plus three independently
enabled behaviours —

* **autoscale** — hysteresis on per-CPF outstanding load
  (``queue + busy`` across a region's up CPFs, read from the epoch
  heartbeat's ``load`` table): ``scale_out_queue`` / ``scale_in_queue``
  thresholds must hold for ``scale_out_ticks`` / ``scale_in_ticks``
  consecutive ticks, with a per-region ``cooldown_ticks`` dead time
  after any action and ``min_cpfs``/``max_cpfs`` pool bounds;
* **rolling upgrade** — starting at ``upgrade_start_frac`` of the run,
  every CPF under ``upgrade_prefix`` (``None`` = the whole city) is
  drained (ringed out, state repaired away over ``upgrade_drain_s``),
  then restarted empty and ringed back in, one CPF every
  ``upgrade_stagger_s``;
* **auto-heal** — a CPF observed down for ``heal_after_ticks``
  consecutive ticks gets its orphaned primaries promoted onto
  up-to-date backups and (``heal_recover``) the node restarted,
  racing the paper's reactive two-level recovery.

``None`` disables a behaviour; a policy with everything disabled is a
*no-op policy* (``mutating`` is False): the controller observes every
tick but never acts, which is the controller-overhead benchmark
configuration and is guaranteed not to perturb the run's digest.

Times: ``tick_s``, ``upgrade_drain_s`` and ``upgrade_stagger_s`` are
simulated seconds; ``upgrade_start_frac`` is a fraction of the run
duration so ``--duration`` scales the phase structure like scenario
fault schedules do.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, Optional

__all__ = ["OrchPolicy"]


@dataclass(frozen=True)
class OrchPolicy:
    """One deterministic controller configuration (see module doc)."""

    #: controller cadence in simulated seconds: the controller ticks at
    #: exactly each multiple, at every shard count (a lockstep epoch
    #: ends on it).
    tick_s: float = 0.05

    # -- autoscale ---------------------------------------------------------
    scale_out_queue: Optional[float] = None
    scale_in_queue: Optional[float] = None
    scale_out_ticks: int = 2
    scale_in_ticks: int = 4
    cooldown_ticks: int = 4
    min_cpfs: int = 1
    max_cpfs: int = 8

    # -- rolling upgrade ---------------------------------------------------
    upgrade_start_frac: Optional[float] = None
    upgrade_drain_s: float = 0.1
    upgrade_stagger_s: float = 0.1
    upgrade_prefix: Optional[str] = None

    # -- auto-heal ---------------------------------------------------------
    heal_after_ticks: Optional[int] = None
    heal_recover: bool = True

    def __post_init__(self):
        if self.tick_s <= 0.0:
            raise ValueError("tick_s must be > 0, got %r" % (self.tick_s,))
        for name in ("scale_out_ticks", "scale_in_ticks", "heal_after_ticks"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError("%s must be >= 1, got %r" % (name, value))
        if self.cooldown_ticks < 0:
            raise ValueError("cooldown_ticks must be >= 0")
        if self.min_cpfs < 1:
            raise ValueError("min_cpfs must be >= 1 (a region keeps a CPF)")
        if self.max_cpfs < self.min_cpfs:
            raise ValueError("max_cpfs must be >= min_cpfs")
        for name in ("scale_out_queue", "scale_in_queue"):
            value = getattr(self, name)
            if value is not None and value < 0.0:
                raise ValueError("%s must be >= 0, got %r" % (name, value))
        if self.upgrade_start_frac is not None and not (
            0.0 <= self.upgrade_start_frac <= 1.0
        ):
            raise ValueError("upgrade_start_frac must be in [0, 1]")
        if self.upgrade_drain_s < 0.0 or self.upgrade_stagger_s < 0.0:
            raise ValueError("upgrade drain/stagger must be >= 0")

    # -- derived -----------------------------------------------------------

    @property
    def autoscale(self) -> bool:
        return self.scale_out_queue is not None or self.scale_in_queue is not None

    @property
    def upgrading(self) -> bool:
        return self.upgrade_start_frac is not None

    @property
    def healing(self) -> bool:
        return self.heal_after_ticks is not None

    @property
    def mutating(self) -> bool:
        """Whether this policy can ever change the deployment."""
        return self.autoscale or self.upgrading or self.healing

    # -- JSON round trip ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "OrchPolicy":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                "unknown policy keys: %s (have: %s)"
                % (", ".join(unknown), ", ".join(sorted(known)))
            )
        return cls(**data)
