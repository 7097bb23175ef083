"""User Plane Function: the data-plane element the CPF programs.

The CPF creates/modifies/deletes sessions on the UPF over an S11-like
interface (paper §6.6 interfaces Intel's 5G UPF the same way).  For the
control-plane experiments only the programming latency matters; for the
application experiments (`repro.apps`) the UPF also answers "is this
UE's data path usable right now?" — data stalls during handover are what
make self-driving-car and VR deadlines miss.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..sim.core import Event, Simulator
from ..sim.node import Server

__all__ = ["UPF", "Session"]


class Session:
    """One UE's data session on the UPF."""

    __slots__ = ("ue_id", "teid", "bs_id", "active")

    def __init__(self, ue_id: str, teid: int, bs_id: str):
        self.ue_id = ue_id
        self.teid = teid
        self.bs_id = bs_id
        self.active = True


class UPF:
    """Simulated user plane function with an S11-like session API."""

    def __init__(self, sim: Simulator, name: str, region: str, service_s: float):
        self.sim = sim
        self.name = name
        self.region = region
        self.server = Server(sim, cores=1, name=name)
        self.service_s = service_s
        self.sessions: Dict[str, Session] = {}
        self._next_teid = 1

    def program(self, msg_name: str, ue_id: str, bs_id: str) -> Event:
        """Queue one S11 message; :meth:`apply` runs when the UPF is done."""
        done = self.server.submit(self.service_s)

        def on_done(ev: Event) -> None:
            if ev.ok:
                self.apply(msg_name, ue_id, bs_id)

        done.add_callback(on_done)
        return done

    def apply(self, msg_name: str, ue_id: str, bs_id: str) -> None:
        """One S11 message's effect on the session table, event-free.

        Called when the message's job completes — or, by the batched
        lane, at the job's analytic instant.
        """
        if msg_name == "CreateSessionRequest":
            self._next_teid += 1
            self.sessions[ue_id] = Session(ue_id, self._next_teid, bs_id)
        elif msg_name == "ModifyBearerRequest":
            session = self.sessions.get(ue_id)
            if session is None:
                self._next_teid += 1
                session = Session(ue_id, self._next_teid, bs_id)
                self.sessions[ue_id] = session
            session.bs_id = bs_id
            session.active = True
        elif msg_name == "ReleaseAccessBearersRequest":
            session = self.sessions.get(ue_id)
            if session is not None:
                session.active = False
        elif msg_name == "DeleteSessionRequest":
            self.sessions.pop(ue_id, None)

    def has_path(self, ue_id: str, bs_id: Optional[str] = None) -> bool:
        """Whether downlink/uplink data can flow for this UE right now."""
        session = self.sessions.get(ue_id)
        if session is None or not session.active:
            return False
        if bs_id is not None and session.bs_id != bs_id:
            return False
        return True

    def suspend(self, ue_id: str) -> None:
        """Data path interrupted (e.g. handover in progress)."""
        session = self.sessions.get(ue_id)
        if session is not None:
            session.active = False
