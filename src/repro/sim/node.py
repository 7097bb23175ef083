"""Queued-server model of a processing node.

A :class:`Server` models one network function instance (a CPF worker
core, a CTA forwarding core): jobs are served first come, first served
by ``cores`` cores, each job holding a core for its service time.  This
is where the saturation knees in the paper's figures come from — when the
offered load exceeds ``cores / E[service]`` the backlog grows without
bound and completion times explode, exactly as in Figs. 7-11.

Service times are known at submission, so a FIFO server needs no queue
to be simulated: every job is *booked* on arrival — it starts when the
earliest core frees up (or now) and ends ``service`` later — and costs
one scheduled callback at its completion instant, which resumes whoever
waits on the job inline.  A job is an :class:`~repro.sim.core.Event`
(:meth:`Server.submit`, any number of waiters and callbacks) or a
:class:`~repro.sim.core.Booking` (:meth:`Server.book`, the one process
that yields it).

Failure injection (`fail()`) drops every job still in the system,
failing each with :class:`NodeFailed`, which is how a CPF crash becomes
visible to the protocol layer.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .core import Booking, Event, Simulator

__all__ = ["NodeFailed", "Server"]


class NodeFailed(Exception):
    """A job was dropped because its server failed."""

    def __init__(self, node_name: str):
        super().__init__("node %s failed" % node_name)
        self.node_name = node_name


class QueuePeak:
    """The most jobs a server has held at once (``max_value``)."""

    __slots__ = ("max_value",)

    def __init__(self):
        self.max_value = 0


class Server:
    """FIFO multi-core queueing server with failure injection."""

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "server"):
        if cores < 1:
            raise ValueError("server needs at least one core")
        self.sim = sim
        self.name = name
        self.cores = cores
        self.up = True
        #: peak of :attr:`in_system` (reservations excluded).
        self.queue_depth = QueuePeak()
        self.jobs_done = 0
        self.jobs_dropped = 0
        self.busy_time = 0.0
        self._job_name = name + ".job"
        # Per core, the instant its last booking ends.
        self._free_at: List[float] = [0.0] * cores
        # Jobs not yet completed, in FIFO order:
        # completion event or booking -> (value, time on a core).
        self._pending: Dict[Union[Event, Booking], Tuple[Any, float]] = {}
        # End of the booking chain headed by the last reserve(); a chain
        # whose end is not after ``now`` has simply expired.
        self._chain_until = 0.0

    @property
    def in_system(self) -> int:
        """Jobs queued or in service (reservations excluded)."""
        return len(self._pending)

    def can_reserve(self) -> bool:
        """True when :meth:`reserve` may stand in for :meth:`submit`.

        That is when no submitted job is outstanding, or the server's
        tail is an express chain: the last booking was a reservation or
        a job submitted behind one.  Judged at the current clock, also
        for a booking ``at`` a later quiet instant.
        """
        return self._chain_until > self.sim.now or not self._pending

    def _book(self, now: float, service_time: float) -> Tuple[float, float]:
        """Occupy the earliest-free core; returns ``(start, end)``.

        Ties go to the lowest core index.  Start times never decrease
        from one booking to the next, so service order is FIFO.
        """
        free = self._free_at
        core = 0 if self.cores == 1 else free.index(min(free))
        start = free[core]
        if start < now:
            start = now
        end = start + service_time
        free[core] = end
        return start, end

    def submit(
        self,
        service_time: float,
        value: Any = None,
        callback: Optional[Callable[[Any], None]] = None,
    ) -> Event:
        """Enqueue a job; the returned event fires with ``value`` once done.

        If the server is (or goes) down before completion the event fails
        with :class:`NodeFailed`.  The completion callback's place among
        same-instant events is fixed here, at submission.
        """
        if service_time < 0:
            raise ValueError("negative service time")
        sim = self.sim
        done = Event(sim, self._job_name)
        if callback is not None:
            done.add_callback(lambda ev: callback(ev.value) if ev.ok else None)
        if not self.up:
            done.fail(NodeFailed(self.name))
            return done
        self._enter(done, value, service_time)
        return done

    def book(self, service_time: float) -> Booking:
        """Enqueue a job for the process that yields the returned booking.

        The job is booked, counted and failed exactly like a
        :meth:`submit` job; its completion resumes the waiting process
        inline instead of firing an event.  On a server that is down the
        booking fails at once.
        """
        if service_time < 0:
            raise ValueError("negative service time")
        job = Booking()
        if not self.up:
            job._drop(NodeFailed(self.name), self.sim)
            return job
        self._enter(job, None, service_time)
        return job

    def _enter(self, job, value: Any, service_time: float) -> None:
        """Book ``job`` now and schedule its completion at its end."""
        sim = self.sim
        now = sim._now
        start, end = self._book(now, service_time)
        if self._chain_until > now:
            self._chain_until = end
        pending = self._pending
        pending[job] = (value, end - start)
        if len(pending) > self.queue_depth.max_value:
            self.queue_depth.max_value = len(pending)
        sim.schedule_at(end, self._finish, job)

    def reserve(self, service_time: float, at: Optional[float] = None) -> float:
        """Book a job without a completion event; returns its end time.

        The express path for pre-compiled timelines (the batched cohort
        lane): the caller — who has already verified the server is ``up``
        and :meth:`can_reserve` — resumes its own timeline at the
        returned instant.  Accounting (``jobs_done``/``busy_time``)
        happens immediately.  ``queue_depth`` is deliberately not
        raised (it is a measurement probe the batched lane does not
        report).

        ``at`` books the interval as of a *future* instant without
        advancing the clock — callers use it only when they have proven
        nothing else can run before ``at`` (see the lane's quiet-window
        fast path), so the booking is identical to one made at ``at``.
        """
        _start, end = self._book(self.sim.now if at is None else at, service_time)
        self._chain_until = end
        self.jobs_done += 1
        self.busy_time += service_time
        return end

    def _finish(self, job: Union[Event, Booking]) -> None:
        """Complete ``job`` at its booked end; only the run loop calls this."""
        entry = self._pending.pop(job, None)
        if entry is None:
            return  # dropped by fail() before its completion instant
        value, busy = entry
        self.busy_time += busy
        self.jobs_done += 1
        if type(job) is Booking:
            # the booking's one waiter resumes inline, as an Event's do
            job._done = True
            job._value = value
            proc = job._proc
            if proc is not None:
                proc._wake(job)
        elif not job._fired:
            job._succeed_inline(value)

    def fail(self) -> None:
        """Crash the node: drop every job in the system, in FIFO order."""
        if not self.up:
            return
        self.up = False
        dropped, self._pending = self._pending, {}
        self._free_at = [0.0] * self.cores
        self._chain_until = 0.0
        self.jobs_dropped += len(dropped)
        sim = self.sim
        for job in dropped:
            if type(job) is Booking:
                job._drop(NodeFailed(self.name), sim)
            elif not job._fired:
                job.fail(NodeFailed(self.name))

    def recover(self) -> None:
        """Bring a failed node back with empty queues (state is gone)."""
        self.up = True

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of core-time spent serving jobs so far."""
        horizon = elapsed if elapsed is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self.busy_time / (horizon * self.cores)
