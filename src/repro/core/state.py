"""UE control state and the per-CPF state store.

The UE state a CPF keeps (paper §4.2: "BS ID, data plane endpoint
identifiers, and user tracking area") is one :class:`StateEntry` per
CPF copy, versioned by completed procedure.  It holds only what the
simulation reads: the serving BS lives with the UE and the bearer with
the UPF (:mod:`repro.core.upf`), and what state costs on the wire is
priced by message size, not by these fields.  The same record carries
the copy's replication metadata: the logical clock it is synced
through and whether it is known up-to-date (§4.2.4's *outdated*
marking).  A city holds (1 + N) of them per UE, and more while
superseded copies stay outdated, so the record is one slotted object.
What moves between CPFs is a :data:`Snapshot` value, never an entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["Record", "Snapshot", "StateEntry", "StateStore"]


class Record:
    """Field-wise ``__eq__`` and ``__repr__`` over ``__slots__``.

    What ``@dataclass`` would generate, for the per-UE records a city
    holds (1 + N) copies of: a slotted instance has no ``__dict__``.
    Python 3.9 has no ``dataclass(slots=True)``, so subclasses write
    their slots by hand.  As with an ``eq`` dataclass, only records of
    the same class compare, and a record is mutable and unhashable.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> Tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__),
        )


#: A UE's state as it travels between CPFs — a checkpoint, a repair
#: fetch, a migration: ``(version, attached, active, ops_in_procedure)``.
#: A tuple, so the copy that ships can never alias the copy it came from.
Snapshot = Tuple[int, bool, bool, int]


class StateEntry(Record):
    """A CPF's copy of one UE's state, with its replication metadata.

    ``version`` is the number of completed control procedures — the
    write version the Read-your-Writes property is stated over.
    ``ops_in_procedure`` counts messages applied since the last
    completed procedure (mid-procedure progress; replayed from the CTA
    log after a failure).  ``active`` is ECM-CONNECTED vs idle.

    ``synced_clock`` is the logical clock of the last CTA message folded
    into this copy; ``up_to_date`` turns False once the CTA has marked
    this replica outdated (§4.2.4); ``is_primary`` is True on the CPF
    currently serving the UE.  The store keys the entry by UE id, so
    the entry does not repeat it.
    """

    __slots__ = (
        "version", "attached", "active", "ops_in_procedure",
        "synced_clock", "up_to_date", "is_primary",
    )

    def __init__(
        self,
        version: int = 0,
        attached: bool = False,
        active: bool = False,
        ops_in_procedure: int = 0,
        synced_clock: int = 0,
        up_to_date: bool = True,
        is_primary: bool = False,
    ):
        self.version = version
        self.attached = attached
        self.active = active
        self.ops_in_procedure = ops_in_procedure
        self.synced_clock = synced_clock
        self.up_to_date = up_to_date
        self.is_primary = is_primary

    def snapshot(self) -> Snapshot:
        """The state fields, as a value to ship to another CPF."""
        return (self.version, self.attached, self.active, self.ops_in_procedure)

    def apply_message(self) -> None:
        """One control message's worth of state mutation."""
        self.ops_in_procedure += 1

    def complete_procedure(self, proc_name: str) -> None:
        """Commit the procedure's effect and bump the write version."""
        self.version += 1
        self.ops_in_procedure = 0
        if proc_name in ("attach", "re_attach"):
            self.attached = True
            self.active = True
        elif proc_name == "service_request":
            self.active = True
        elif proc_name == "s1_release":
            self.active = False
        elif proc_name == "detach":
            self.attached = False
            self.active = False


class StateStore:
    """Per-CPF map of UE id -> :class:`StateEntry`."""

    def __init__(self) -> None:
        self._entries: Dict[str, StateEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ue_id: str) -> bool:
        return ue_id in self._entries

    def get(self, ue_id: str) -> Optional[StateEntry]:
        return self._entries.get(ue_id)

    def current(self, ue_id: str, min_version: int = 0) -> Optional[StateEntry]:
        """The copy this CPF may act on for ``ue_id``, else ``None``.

        §4.2.4 rule (3), the one freshness gate: a copy is current when
        it is present, not marked outdated, and at least ``min_version``
        — the writes the UE knows it completed, which NAS security
        counters would reveal a CPF to be behind.  Without one the CPF
        must not serve, and the UE re-attaches.
        """
        entry = self._entries.get(ue_id)
        if entry is None or not entry.up_to_date or entry.version < min_version:
            return None
        return entry

    def create(self, ue_id: str, is_primary: bool) -> StateEntry:
        entry = StateEntry(is_primary=is_primary)
        self._entries[ue_id] = entry
        return entry

    def install_snapshot(
        self, ue_id: str, snapshot: Snapshot, synced_clock: int
    ) -> StateEntry:
        """Apply a replicated snapshot (checkpoint or fetched repair).

        A snapshot older than what we already hold is ignored —
        §4.2.4(1a) hands replicas the boundary clock precisely so they
        can "ignore the reception of outdated state".
        """
        existing = self._entries.get(ue_id)
        if existing is not None and existing.synced_clock > synced_clock:
            return existing
        entry = StateEntry(*snapshot, synced_clock=synced_clock)
        self._entries[ue_id] = entry
        return entry

    def mark_outdated(self, ue_id: str) -> None:
        entry = self._entries.get(ue_id)
        if entry is not None:
            entry.up_to_date = False

    def drop(self, ue_id: str) -> None:
        self._entries.pop(ue_id, None)

    def clear(self) -> None:
        """Lose everything (node crash)."""
        self._entries.clear()

    def ue_ids(self) -> List[str]:
        return sorted(self._entries)
