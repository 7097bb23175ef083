"""Discrete-event simulation kernel.

This module provides the event loop used by every simulated component in
the reproduction: a binary-heap scheduler with a floating-point clock (in
seconds), condition-variable style :class:`Event` objects, and
generator-based :class:`Process` coroutines in the style of SimPy.

The kernel replaces the paper's DPDK testbed.  All protocol logic (CTA,
CPF, UE, base station) runs as processes on top of this loop, so latency
and queueing behaviour emerge from explicit service times and link delays
rather than being asserted.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
]


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

    Used for failure injection: killing a CPF interrupts its worker loops.
    The ``cause`` attribute carries an arbitrary payload describing why.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; it can be made to ``succeed(value)`` or
    ``fail(exception)`` exactly once.  Processes that yield a pending event
    are resumed when it fires.  ``succeed``, ``fail`` and ``add_callback``
    never run a waiter synchronously — waiters are queued for the current
    instant, and yielding an already-fired event resumes the process on
    the next scheduler step — so whoever fires an event is never
    re-entered by its waiters.  The one exception is the kernel's own
    timed completions, which nobody is in the middle of (see
    :meth:`_succeed_inline`).
    """

    __slots__ = ("sim", "_value", "_exc", "_fired", "_waiters", "_cancelled", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._fired = False
        self._cancelled = False
        self._waiters: List[Callable[["Event"], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def cancelled(self) -> bool:
        """True once the waiter abandoned this event (e.g. interrupted).

        Producers holding a reference (queues, stores) must skip
        cancelled events instead of delivering into the void.
        """
        return self._cancelled

    def cancel(self) -> None:
        """Mark a still-pending event as abandoned."""
        if not self._fired:
            self._cancelled = True

    @property
    def ok(self) -> bool:
        """True once the event fired successfully."""
        return self._fired and self._exc is None

    @property
    def value(self) -> Any:
        if not self._fired:
            raise RuntimeError("event %r has not fired yet" % (self.name,))
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._fired:
            raise RuntimeError("event %r already fired" % (self.name,))
        self._fired = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Event":
        if self._fired:
            raise RuntimeError("event %r already fired" % (self.name,))
        self._fired = True
        self._exc = exc
        self._dispatch()
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(self)`` when the event fires (async even if fired).

        A callback added to an already-fired event — succeeded *or*
        failed — is delivered on the next scheduler step with the event
        as argument, exactly like a waiter registered before the fire:
        late joiners of a failed event still receive (and must consume)
        the stored exception.
        """
        if self._fired:
            self.sim._push_immediate(cb, self)
        else:
            self._waiters.append(cb)

    def _succeed_inline(self, value: Any) -> None:
        """Kernel-only: succeed and run the waiters *now*, not re-queued.

        Only a callback the run loop itself invoked for this very
        completion may call this (``Timeout._fire``, ``Server._finish``):
        there the loop is the caller's caller, so no process is
        mid-resume and a waiter cannot re-enter anything.  The waiters
        then run at the ``(time, seq)`` the completion was scheduled
        with instead of a seq allocated at fire time.  Every other
        producer goes through :meth:`succeed`/:meth:`fail`.
        """
        self._fired = True
        self._value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for cb in waiters:
                cb(self)

    def _dispatch(self) -> None:
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        # Inlined Simulator._push_immediate: waiter wakeups dominate the
        # event loop, so each one is a deque append rather than a heap
        # push.  Seq numbers are allocated in the same order schedule()
        # would have, preserving the (time, seq) total order.
        sim = self.sim
        seq = sim._seq
        immediate = sim._immediate
        arg = (self,)
        for cb in waiters:
            seq += 1
            immediate.append((seq, cb, arg))
        sim._seq = seq


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation.

    For races (:class:`AnyOf`) and callbacks; a process that only wants
    to sleep yields the delay itself (see :class:`Process`).
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN
            raise ValueError("negative timeout delay: %r" % (delay,))
        super().__init__(sim, "timeout")
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        # Skip both races: fired early via succeed/fail, or abandoned by
        # an interrupted waiter.  Firing a cancelled timeout would mark
        # it fired, so a producer's later succeed() on the abandoned
        # event would blow up with "event already fired".
        if self._fired or self._cancelled:
            return
        self._succeed_inline(value)  # only the run loop calls _fire


class AllOf(Event):
    """Fires when every child event has fired successfully.

    The value is the list of child values in the order given.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            sim.schedule(0.0, self._finish)
        else:
            for ev in self._children:
                ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._fired:
            return
        if not ev.ok:
            self.fail(ev._exc or RuntimeError("child event failed"))
            # The composite is dead: nobody will consume the remaining
            # children, so mark them abandoned before producers deliver.
            for child in self._children:
                if not child.fired:
                    child.cancel()
            return
        self._remaining -= 1
        if self._remaining == 0:
            self._finish()

    def _finish(self) -> None:
        if not self._fired:
            self.succeed([ev.value for ev in self._children])


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for i, ev in enumerate(self._children):
            ev.add_callback(self._make_cb(i))

    def _make_cb(self, index: int) -> Callable[[Event], None]:
        def cb(ev: Event) -> None:
            if self._fired:
                return
            if ev.ok:
                self.succeed((index, ev.value))
            else:
                self.fail(ev._exc or RuntimeError("child event failed"))
            # The race is decided: nobody will ever consume the losing
            # children, so mark them abandoned before producers (queues,
            # stores) deliver into them and die on "event already
            # fired" — mirroring AllOf's cancellation on failure.
            for child in self._children:
                if not child._fired:
                    child.cancel()

        return cb


ProcessGen = Generator[Union[Event, float], Any, Any]


class Process(Event):
    """A coroutine driven by the simulator.

    The generator yields what it waits for:

    * an :class:`Event` — it is resumed with the event's value once the
      event fires (or the event's exception is thrown into it);
    * a non-negative ``float`` — a pure delay: it is resumed with
      ``None`` that many simulated seconds later.  The sleep costs one
      scheduler entry and one resume, no ``Event``; ``0.0`` yields to
      everything already queued for this instant, like
      ``schedule(0.0, ...)``.  A negative or NaN delay fails the process
      with ``ValueError``; any other type (``int`` and ``bool``
      included) with ``TypeError``.

    The process itself is an event that succeeds with the generator's
    return value, so processes can be joined by yielding them.
    """

    __slots__ = ("_gen", "_waiting_on", "_interrupts")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        super().__init__(sim, name=name or getattr(gen, "__name__", "proc"))
        self._gen = gen
        # The Event waited on, or the sleep token (the ``_seq`` of the
        # scheduler entry that ends the current pure delay).
        self._waiting_on: Union[Event, int, None] = None
        self._interrupts: List[Interrupt] = []
        sim._push_immediate(self._wake, None)

    @property
    def alive(self) -> bool:
        return not self._fired

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current wait.

        Interrupting a finished process is a no-op (the usual race when a
        failure is injected just as a procedure completes).
        """
        if self._fired:
            return
        self._interrupts.append(Interrupt(cause))
        self.sim._push_immediate(self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        if self._fired or not self._interrupts:
            return
        exc = self._interrupts.pop(0)
        waiting, self._waiting_on = self._waiting_on, None
        if isinstance(waiting, Event):
            waiting.cancel()  # producers must not deliver into the void
        self._wake(None, exc)

    def _wake(
        self, ev: Union[Event, int, None], exc: Optional[BaseException] = None
    ) -> None:
        """Resume the generator: send ``ev``'s outcome, or throw ``exc``.

        ``ev`` is what the process waits on: an event, a sleep token,
        or ``None`` on first start and on interrupt delivery (the only
        caller passing ``exc``).  The only place that drives the
        generator.
        """
        # Identity also holds for sleep tokens: the scheduler entry
        # carries the very int object stored in ``_waiting_on``.
        if self._fired or self._waiting_on is not ev:
            return  # stale wakeup (e.g. after an interrupt re-targeted us)
        value = None
        if ev is not None:
            self._waiting_on = None
            if type(ev) is not int:
                value = ev._value
                exc = ev._exc
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as unhandled:
            self.fail(unhandled)
            return
        except Exception as err:  # propagate to joiners
            self.fail(err)
            return
        if type(target) is float:
            # Pure delay: one scheduler entry that resumes us directly.
            sim = self.sim
            seq = sim._seq + 1
            if target > 0.0:
                sim._seq = self._waiting_on = seq
                heapq.heappush(sim._heap, (sim._now + target, seq, self._wake, (seq,)))
                return
            if target == 0.0:
                sim._seq = self._waiting_on = seq
                sim._imm_append((seq, self._wake, (seq,)))
                return
            error = ValueError  # negative or NaN
        elif isinstance(target, Event):
            self._waiting_on = target
            target.add_callback(self._wake)
            return
        else:
            error = TypeError
        self._gen.close()
        self.fail(
            error(
                "process yielded %r, expected an Event or a non-negative "
                "float delay in seconds" % (target,)
            )
        )


class Simulator:
    """Event loop with a monotonically advancing simulated clock.

    Callbacks are totally ordered by ``(fire time, seq)`` where ``seq``
    is a global monotone counter assigned at schedule time; same-time
    callbacks therefore run in schedule order.  Two structures carry
    that order:

    * a binary heap for timed callbacks (``delay > 0``) — a process
      sleeping on a yielded ``float``, a ``Timeout``, a ``Server`` job's
      completion: one entry each, whose callback resumes the waiting
      process directly;
    * an **immediate queue** (plain deque) for zero-delay callbacks —
      the ``schedule(0.0, ...)`` pattern of ``Event.succeed``/``fail``
      waiter dispatch and process starts — whose entries
      are always due *now*, already in seq order (appends allocate
      increasing seqs, and the queue fully drains before the clock can
      advance), so the heap's log-n push/pop is pure overhead for them.

    ``step`` merges the two: an immediate entry runs unless the heap's
    head is due at the current instant with a *smaller* seq (it was
    scheduled earlier for this exact time).  The merge reproduces the
    single-heap execution order bit for bit — the EventTrace-digest
    witness tests in ``tests/core/test_kernel_witnesses.py`` pin that.
    """

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._immediate: Deque[Tuple[int, Callable, tuple]] = deque()
        # Bound once: schedule() and _push_immediate() run millions of
        # times per figure point; the attribute hops add up.
        self._imm_append = self._immediate.append

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling primitives -------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay == 0.0:
            seq = self._seq + 1
            self._seq = seq
            self._imm_append((seq, fn, args))
            return
        if not delay >= 0:  # also rejects NaN, which would corrupt heap order
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, fn, args))

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` at the absolute instant ``time``.

        Compiled timelines (the batched cohort lane) pre-compute event
        times as running sums of individual delays.  Rescheduling those
        relatively (``schedule(time - now, ...)``) would not round-trip
        in floats — ``now + (time - now) != time`` in general — so
        absolute scheduling is the only way a pre-computed timeline can
        fire at exactly the instants the step-by-step path produces.
        ``time == now`` lands on the immediate queue, matching
        ``schedule(0.0, ...)``'s ordering semantics.
        """
        if time == self._now:
            seq = self._seq + 1
            self._seq = seq
            self._imm_append((seq, fn, args))
            return
        if not time >= self._now:  # also rejects NaN
            raise ValueError(
                "cannot schedule into the past (time=%r < now=%r)"
                % (time, self._now)
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def _push_immediate(self, fn: Callable, *args: Any) -> None:
        """Internal zero-delay schedule without the delay check."""
        seq = self._seq + 1
        self._seq = seq
        self._imm_append((seq, fn, args))

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Start a generator as a simulated process."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Execute the next scheduled callback.  Returns False when empty.

        Merges the immediate queue with the heap respecting the
        ``(time, seq)`` total order: immediate entries are due at the
        current instant, so only a heap entry due *now* with a smaller
        seq (scheduled earlier for this exact time) may preempt them.
        """
        immediate = self._immediate
        heap = self._heap
        if immediate:
            if heap:
                head = heap[0]
                if head[0] <= self._now and head[1] < immediate[0][0]:
                    heapq.heappop(heap)
                    self._now = head[0]
                    head[2](*head[3])
                    return True
            _seq, fn, args = immediate.popleft()
            fn(*args)
            return True
        if not heap:
            return False
        t, _seq, fn, args = heapq.heappop(heap)
        self._now = t
        fn(*args)
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queues drain or the clock passes ``until``.

        With ``until`` set the clock is left exactly at ``until`` even if
        the next event lies beyond it, so back-to-back ``run`` calls
        compose predictably.
        """
        # The drain loops inline step() — one Python call per event is
        # measurable at millions of events per figure point.
        immediate = self._immediate
        heap = self._heap
        heappop = heapq.heappop
        popleft = immediate.popleft
        if until is None:
            while True:
                if immediate:
                    if heap:
                        head = heap[0]
                        if head[0] <= self._now and head[1] < immediate[0][0]:
                            heappop(heap)
                            self._now = head[0]
                            head[2](*head[3])
                            continue
                    _seq, fn, args = popleft()
                    fn(*args)
                elif heap:
                    t, _seq, fn, args = heappop(heap)
                    self._now = t
                    fn(*args)
                else:
                    return self._now
        if until < self._now:
            raise ValueError(
                "until=%r is before current time %r" % (until, self._now)
            )
        while True:
            if immediate:  # immediate entries are always due now (<= until)
                if heap:
                    head = heap[0]
                    if head[0] <= self._now and head[1] < immediate[0][0]:
                        heappop(heap)
                        self._now = head[0]
                        head[2](*head[3])
                        continue
                _seq, fn, args = popleft()
                fn(*args)
            elif heap and heap[0][0] <= until:
                t, _seq, fn, args = heappop(heap)
                self._now = t
                fn(*args)
            else:
                break
        self._now = until
        return self._now

    def run_process(self, gen: ProcessGen, until: Optional[float] = None) -> Any:
        """Convenience: start ``gen``, run the loop, return its result."""
        proc = self.process(gen)
        self.run(until)
        if not proc.fired:
            raise RuntimeError("process did not finish by t=%r" % (self._now,))
        return proc.value
