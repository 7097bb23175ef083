"""Reference FIFO server: the worker-process ``Server`` + ``Store`` of PR <= 12.

Test fixture only — never imported from ``src/``.  This is the
implementation ``repro.sim.node.Server`` replaced with closed-form
booking, kept verbatim (``cores`` generator processes draining a
``Store``; one ``Store.get`` event and one ``Timeout`` per job) as the
oracle for ``test_server_oracle.py``: any schedule of submits, failures
and recoveries must produce the same completion instants, statuses and
counters on both.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional

from repro.sim.core import Event, Interrupt, Process, Simulator
from repro.sim.monitor import TimeWeighted
from repro.sim.node import NodeFailed


class Store:
    """Unbounded FIFO queue with blocking ``get``.

    ``put`` never blocks (the paper's CTA/CPF queues are memory-bounded
    only by the log-pruning logic, modeled separately).
    """

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        while self._getters:
            getter = self._getters.popleft()
            if not getter.fired and not getter.cancelled:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        ev = self.sim.event("get:%s" % self.name)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def drain(self) -> List[Any]:
        """Remove and return all queued items (used on node failure)."""
        items = list(self._items)
        self._items.clear()
        return items

    def cancel_getters(self) -> None:
        """Synchronously abandon all pending getters (node failure).

        Must run before the getters' owners are interrupted: interrupt
        delivery is asynchronous, and a ``put`` racing in between would
        otherwise hand an item to a doomed waiter.
        """
        for getter in self._getters:
            getter.cancel()
        self._getters.clear()


class _Job:
    __slots__ = ("service", "done", "value", "enqueued_at")

    def __init__(self, service: float, done: Event, value: Any, enqueued_at: float):
        self.service = service
        self.done = done
        self.value = value
        self.enqueued_at = enqueued_at


class Server:
    """FIFO multi-worker queueing server with failure injection."""

    def __init__(self, sim: Simulator, cores: int = 1, name: str = "server"):
        if cores < 1:
            raise ValueError("server needs at least one core")
        self.sim = sim
        self.name = name
        self.cores = cores
        self.up = True
        self.queue = Store(sim, name + ".q")
        self.queue_depth = TimeWeighted(lambda: sim.now)
        self.busy = 0
        self.jobs_done = 0
        self.jobs_dropped = 0
        self.busy_time = 0.0
        # Express-reservation state (batched cohort lane): the end of the
        # last analytically-reserved service chain, and the pending jobs
        # that were rerouted onto it by submit().  A stale reservation
        # (``_reserved_until <= now``) simply expires by comparison.
        self._reserved_until = 0.0
        self._analytic: List[_Job] = []
        self._workers: List[Process] = []
        self._generation = 0
        self._start_workers()

    def _start_workers(self) -> None:
        # Workers carry a generation token: a worker from before a
        # fail()/recover() cycle must never consume jobs submitted to
        # the recovered server, even if its interrupt has not landed yet.
        self._generation += 1
        self._workers = [
            self.sim.process(
                self._worker(self._generation), name="%s.w%d" % (self.name, i)
            )
            for i in range(self.cores)
        ]

    def submit(
        self,
        service_time: float,
        value: Any = None,
        callback: Optional[Callable[[Any], None]] = None,
    ) -> Event:
        """Enqueue a job; the returned event fires with ``value`` once done.

        If the server is (or goes) down before completion the event fails
        with :class:`NodeFailed`.
        """
        if service_time < 0:
            raise ValueError("negative service time")
        done = self.sim.event("%s.job" % self.name)
        if callback is not None:
            done.add_callback(lambda ev: callback(ev.value) if ev.ok else None)
        if not self.up:
            done.fail(NodeFailed(self.name))
            return done
        if self._reserved_until > self.sim.now:
            # An express chain holds the server: a worker picking this
            # job up would start exactly when the chain ends, so route it
            # analytically behind the chain.  FIFO order and completion
            # times match the queued path bit for bit (every reservation
            # also computed ``start + service`` in floats).
            start = self._reserved_until
            end = start + service_time
            self._reserved_until = end
            job = _Job(service_time, done, value, self.sim.now)
            self._analytic.append(job)
            self.sim.schedule_at(end, self._finish_analytic, job)
            return done
        job = _Job(service_time, done, value, self.sim.now)
        self.queue.put(job)
        self.queue_depth.set(len(self.queue) + self.busy)
        return done

    def reserve(self, service_time: float, at: Optional[float] = None) -> float:
        """Occupy the server analytically; returns the completion time.

        The express path for pre-compiled timelines (the batched cohort
        lane): instead of enqueueing a job and waking a worker, the
        caller — who has already verified the server is ``up`` and
        either idle or express-reserved — books the service interval
        directly.  Accounting (``jobs_done``/``busy_time``) happens
        immediately; there is no completion event, the caller resumes
        its own timeline at the returned instant.  ``queue_depth`` is
        deliberately not updated (it is a measurement probe the batched
        lane does not report).

        ``at`` books the interval as of a *future* instant without
        advancing the clock — callers use it only when they have proven
        nothing else can run before ``at`` (see the lane's quiet-window
        fast path), so the booking is identical to one made at ``at``.
        """
        now = self.sim.now if at is None else at
        start = self._reserved_until if self._reserved_until > now else now
        end = start + service_time
        self._reserved_until = end
        self.jobs_done += 1
        self.busy_time += service_time
        return end

    def _finish_analytic(self, job: _Job) -> None:
        try:
            self._analytic.remove(job)
        except ValueError:
            return  # failed and cleared by fail() before completion
        self.jobs_done += 1
        self.busy_time += job.service
        if not job.done.fired:
            job.done.succeed(job.value)

    def _worker(self, generation: int):
        while generation == self._generation and self.up:
            getter = None
            try:
                getter = self.queue.get()
                job = yield getter
            except Interrupt:
                # The get may already have popped a job that was never
                # delivered to us; fail it rather than lose it silently.
                if getter is not None and getter.fired and getter.ok:
                    lost = getter.value
                    self.jobs_dropped += 1
                    if not lost.done.fired:
                        lost.done.fail(NodeFailed(self.name))
                return
            self.busy += 1
            self.queue_depth.set(len(self.queue) + self.busy)
            started = self.sim.now
            try:
                yield self.sim.timeout(job.service)
            except Interrupt:
                self.busy -= 1
                if not job.done.fired:
                    job.done.fail(NodeFailed(self.name))
                self.jobs_dropped += 1
                return
            self.busy -= 1
            self.busy_time += self.sim.now - started
            self.jobs_done += 1
            self.queue_depth.set(len(self.queue) + self.busy)
            if not job.done.fired:
                job.done.succeed(job.value)

    def fail(self) -> None:
        """Crash the node: kill workers, drop all queued jobs."""
        if not self.up:
            return
        self.up = False
        self.queue.cancel_getters()
        for worker in self._workers:
            worker.interrupt("node failure")
        for job in self.queue.drain():
            self.jobs_dropped += 1
            if not job.done.fired:
                job.done.fail(NodeFailed(self.name))
        for job in self._analytic:
            self.jobs_dropped += 1
            if not job.done.fired:
                job.done.fail(NodeFailed(self.name))
        del self._analytic[:]
        self._reserved_until = 0.0
        self.queue_depth.set(0)

    def recover(self) -> None:
        """Bring a failed node back with empty queues (state is gone)."""
        if self.up:
            return
        self.up = True
        self._start_workers()

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Fraction of core-time spent serving jobs so far."""
        horizon = elapsed if elapsed is not None else self.sim.now
        if horizon <= 0:
            return 0.0
        return self.busy_time / (horizon * self.cores)
