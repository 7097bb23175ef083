"""Discrete-event simulation substrate (testbed substitute).

Public surface:

* :class:`Simulator`, :class:`Event`, :class:`Process`, :class:`Interrupt`
  — the event loop and coroutine model.
* :class:`Server`, :class:`NodeFailed` — queued processing nodes with
  failure injection.
* :class:`Link`, :class:`LatencyModel` — network hops, with per-link
  fault hooks (drop/dup/reorder/extra-delay, blackhole); :class:`LinkDown`
  signals a lost message on a reliable channel.
* :class:`Tally`, :class:`Counter`, :class:`TimeWeighted` — probes.
* :class:`RngRegistry` — deterministic named random streams.
"""

from .core import AllOf, AnyOf, Event, Interrupt, Process, Simulator, Timeout
from .monitor import Counter, Tally, TimeWeighted, percentile
from .network import LatencyModel, Link, LinkDown, Transit
from .node import NodeFailed, Server
from .rng import RngRegistry, stream_seed

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Server",
    "NodeFailed",
    "Link",
    "LinkDown",
    "Transit",
    "LatencyModel",
    "Tally",
    "Counter",
    "TimeWeighted",
    "percentile",
    "RngRegistry",
    "stream_seed",
]
