"""Event loop, processes, and events for the discrete-event simulator.

Time is a ``float`` in *microseconds*; the paper's latency numbers
(InfiniBand RDMA in single-digit microseconds, Ethernet round trips in tens
of microseconds) are most natural at this scale.

Processes are plain generator functions.  A process may yield:

* :class:`Delay` -- suspend for a fixed amount of simulated time,
* :class:`Event` -- suspend until the event is triggered; ``event.value``
  is sent back into the generator when it resumes.

The kernel is deterministic: events scheduled for the same timestamp fire
in scheduling order (a monotonically increasing sequence number breaks
ties), so a fixed random seed reproduces the exact same run.

The event loop is the hottest code in the repository -- every simulated
request is at least one heap operation plus one generator resume -- so
:meth:`Simulator._drain` binds its dependencies to locals and dispatches
on exact yield types.  Optimizations here must be behaviour-invariant;
``benchmarks/perf`` and the determinism-digest test enforce that.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import InvalidState

ProcessGenerator = Generator[Any, Any, Any]


class Delay:
    """Yield value suspending the process for ``duration`` microseconds."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative delay: {duration}")
        self.duration = duration

    def __repr__(self) -> str:
        return f"Delay({self.duration})"


#: Interned delays for recurring durations (sync intervals, fixed service
#: times).  Delay objects are immutable, so sharing one instance across
#: yields -- even across simulators -- is safe and skips an allocation on
#: the hot path.
#:
#: Capacity policy: the cache is insert-only and bounded.  Once
#: ``_DELAY_CACHE_MAX`` distinct durations have been interned, later
#: durations are *not* cached -- ``delay_of`` still returns a correct
#: (fresh) ``Delay``, it just stops saving the allocation.  Nothing is
#: ever evicted, so the recurring durations that fill the cache first
#: (sync intervals, fixed service times) keep their pooled instances for
#: the life of the interpreter.  ``delay_cache_info()`` exposes the
#: occupancy so callers and tests can detect saturation instead of
#: guessing why interning "stopped working".
_DELAY_CACHE: Dict[float, Delay] = {}
_DELAY_CACHE_MAX = 1024


def delay_of(duration: float) -> Delay:
    """A pooled :class:`Delay`; prefer this for repeated durations.

    At capacity (see ``delay_cache_info``) this degrades gracefully to a
    plain allocation per call; the returned value is indistinguishable
    from the cached case except by identity.
    """
    pooled = _DELAY_CACHE.get(duration)
    if pooled is None:
        pooled = Delay(duration)
        if len(_DELAY_CACHE) < _DELAY_CACHE_MAX:
            _DELAY_CACHE[duration] = pooled
    return pooled


def delay_cache_info() -> Tuple[int, int]:
    """``(size, capacity)`` of the delay intern pool.

    ``size == capacity`` means the pool is saturated: ``delay_of`` keeps
    returning correct delays but no longer interns new durations.  A
    workload that feeds many distinct durations through ``delay_of``
    (e.g. randomised think times) should construct ``Delay`` directly
    instead of churning the pool.
    """
    return len(_DELAY_CACHE), _DELAY_CACHE_MAX


class Event:
    """A one-shot event processes can wait on.

    ``trigger(value)`` wakes every waiting process and delivers ``value``
    as the result of the ``yield``.  Waiting on an already-triggered event
    resumes the process immediately (at the current timestamp).
    """

    __slots__ = ("sim", "triggered", "value", "_waiters")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self._waiters: List["Process"] = []

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise InvalidState("event already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        sim = self.sim
        if sim._policy is None:
            # Same-time wakes go straight to the ready FIFO: an O(1)
            # append instead of a heap push per waiter.
            append = sim._ready.append
            for process in waiters:
                append((process, value))
        else:
            schedule = sim._schedule
            for process in waiters:
                schedule(0.0, process, value)

    def add_waiter(self, process: "Process") -> None:
        if self.triggered:
            self.sim._schedule(0.0, process, self.value)
        else:
            self._waiters.append(process)


class Process:
    """Wrapper around a running generator coroutine."""

    __slots__ = ("sim", "generator", "name", "finished", "result", "done_event")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str) -> None:
        self.sim = sim
        self.generator = generator
        self.name = name
        self.finished = False
        self.result: Any = None
        self.done_event = Event(sim)

    def _step(self, send_value: Any) -> None:
        """Advance the generator by one yield, scheduling its next resume."""
        try:
            yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.done_event.trigger(stop.value)
            return
        # Exact-type checks first: Delay and Event are final in practice,
        # so one identity compare replaces an isinstance pair per yield.
        cls = yielded.__class__
        if cls is Delay:
            self.sim._schedule(yielded.duration, self, None)
        elif cls is Event:
            yielded.add_waiter(self)
        elif isinstance(yielded, Delay):
            self.sim._schedule(yielded.duration, self, None)
        elif isinstance(yielded, Event):
            yielded.add_waiter(self)
        else:
            raise TypeError(
                f"process {self.name!r} yielded {yielded!r}; expected Delay or Event"
            )

    def __repr__(self) -> str:
        state = "done" if self.finished else "running"
        return f"<Process {self.name} {state}>"


class SimClock:
    """Read-only view of simulator time, shareable with components."""

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    @property
    def now(self) -> float:
        return self._sim.now


class SchedulerPolicy:
    """Pluggable perturbation of the kernel's scheduling decisions.

    Every event pushed onto the heap carries ``(when, seq)``; by default
    ``seq`` is a monotonically increasing counter, which makes same-time
    events fire in scheduling order (FIFO).  A policy may move ``when``
    forward and/or replace ``seq`` to explore alternative interleavings
    of the same program -- the schedule-exploration race detector in
    :mod:`repro.san` builds its random/PCT/replay schedules on this hook.

    Contract: the returned ``when`` must be ``>= now`` (events cannot fire
    in the past) and the returned ``seq`` must be unique per simulator
    (heap tuples must never compare equal in their first two fields).
    A policy that also records its decisions can later replay a run
    deterministically by returning the recorded pairs verbatim.
    """

    def on_schedule(self, when: float, now: float,
                    process: Optional["Process"]) -> Tuple[float, int]:
        """Decide ``(when, seq)`` for one event.

        ``process`` is the resuming process, or ``None`` for a plain
        ``call_at`` callback (state mutations in the simulated fabric).
        """
        raise NotImplementedError


class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()
        sim.spawn(worker(), name="worker-0")
        sim.run(until=1_000_000.0)   # one simulated second

    ``policy`` (default ``None``) perturbs scheduling decisions for race
    exploration; the ``None`` path is byte-identical to the historical
    behaviour and stays on the hot path's single-branch fast exit.
    """

    def __init__(self, policy: Optional[SchedulerPolicy] = None) -> None:
        self.now: float = 0.0
        #: Event heap -- used only when a :class:`SchedulerPolicy` is
        #: installed (policies mint their own (when, seq) pairs, which
        #: breaks the monotone-seq invariant the calendar queue relies
        #: on).  The policy-``None`` fast path never touches it.
        self._queue: List[Tuple[float, int, Optional[Process], Any]] = []
        #: Calendar queue (policy ``None`` only): one FIFO bucket per
        #: distinct future timestamp plus a min-heap of the distinct
        #: times themselves.  Because the global sequence counter is
        #: monotone, append order within a bucket *is* seq order, so
        #: "pop the earliest time, replay its bucket in order" delivers
        #: the exact (when, seq) order of the all-heap kernel -- while a
        #: heap of N events shrinks to a heap of (distinct times) and
        #: every co-timed event costs an O(1) append/iteration instead
        #: of an O(log N) sift.
        self._buckets: Dict[float, List[Tuple[Optional[Process], Any]]] = {}
        self._horizon: List[float] = []
        #: Same-time ready FIFO (policy ``None`` only).  Every schedule
        #: for the *current* timestamp lands here instead of a bucket,
        #: and a bucket joins it whole when the clock reaches its time.
        #: Ordering invariant: a bucket entry at time T was pushed while
        #: the clock was still < T (zero-delay schedules at T are routed
        #: here instead), so all bucket entries co-timed with the clock
        #: precede every ready entry in global sequence order, and the
        #: deque itself is FIFO -- together that reproduces the exact
        #: (when, seq) order of the all-heap kernel.
        self._ready: Deque[Tuple[Optional[Process], Any]] = deque()
        self._next_seq = itertools.count().__next__
        self._stopped = False
        self._policy = policy
        #: Events delivered so far (resumes + callbacks); the scale suite
        #: reports events/s from this.
        self.events_processed: int = 0

    # -- scheduling ------------------------------------------------------

    def spawn(self, generator: ProcessGenerator, name: str = "proc") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        process = Process(self, generator, name)
        self._schedule(0.0, process, None)
        return process

    def _schedule(self, delay: float, process: Process, value: Any) -> None:
        if self._policy is None:
            if delay <= 0.0:
                self._ready.append((process, value))
                return
            when = self.now + delay
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [(process, value)]
                heapq.heappush(self._horizon, when)
            else:
                bucket.append((process, value))
            return
        when, seq = self._policy.on_schedule(self.now + delay, self.now, process)
        heapq.heappush(self._queue, (when, seq, process, value))

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run a plain callback at absolute simulated time ``when``.

        Callbacks for the current instant (or the past) join the ready
        FIFO; future callbacks go into their timestamp's bucket.  Either
        way they run without a Process wrapper -- they are the fabric's
        hot path.
        """
        if self._policy is None:
            if when <= self.now:
                self._ready.append((None, callback))
                return
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [(None, callback)]
                heapq.heappush(self._horizon, when)
            else:
                bucket.append((None, callback))
            return
        when, seq = self._policy.on_schedule(max(when, self.now), self.now, None)
        heapq.heappush(self._queue, (when, seq, None, callback))

    def event(self) -> Event:
        return Event(self)

    # -- execution -------------------------------------------------------

    def _drain(
        self,
        until: Optional[float],
        target: Optional[Process],
        limit: Optional[float],
    ) -> None:
        """The single event loop behind :meth:`run` and
        :meth:`run_until_complete`.

        Runs events until both queues empty, :meth:`stop` is called,
        ``target`` finishes, or the next event lies beyond ``until``
        (pause: event stays queued) / ``limit`` (error).

        Delivery is batched per timestamp: when the clock reaches a
        timestamp, that timestamp's whole calendar bucket joins the
        (then empty) ready FIFO, and the loop drains only the FIFO.
        Every bucket entry was scheduled before anything that joins the
        FIFO later, so FIFO order is the exact (when, seq) delivery order
        of the all-heap kernel (see ``_buckets``/``_ready``), which the
        determinism digests pin down.  The ``until``/``limit``
        comparisons are paid once per timestamp instead of once per
        event, and ``Process._step`` is inlined for the Delay/Event fast
        paths.
        """
        if self._policy is not None:
            self._drain_policy(until, target, limit)
            return
        buckets = self._buckets
        horizon = self._horizon
        ready = self._ready
        pop = heapq.heappop
        push = heapq.heappush
        popleft = ready.popleft
        append = ready.append
        delay_cls = Delay
        event_cls = Event
        events = 0
        now = self.now
        try:
            while not (self._stopped
                       or (target is not None and target.finished)):
                # Same-time FIFO wakes; appends during the drain keep
                # their scheduling order.
                while ready:
                    process, value = popleft()
                    events += 1
                    if process is None:
                        value()  # plain callback scheduled via call_at
                    elif not process.finished:
                        try:
                            yielded = process.generator.send(value)
                        except StopIteration as stop:
                            process.finished = True
                            process.result = stop.value
                            process.done_event.trigger(stop.value)
                        else:
                            cls = yielded.__class__
                            if cls is delay_cls:
                                duration = yielded.duration
                                if duration > 0.0:
                                    when = now + duration
                                    slot = buckets.get(when)
                                    if slot is None:
                                        buckets[when] = [(process, None)]
                                        push(horizon, when)
                                    else:
                                        slot.append((process, None))
                                else:
                                    append((process, None))
                            elif cls is event_cls:
                                if yielded.triggered:
                                    append((process, yielded.value))
                                else:
                                    yielded._waiters.append(process)
                            else:
                                self._resume_slow(process, yielded)
                    if self._stopped or (target is not None and target.finished):
                        return
                # Advance: pay the pause/limit checks once per timestamp.
                if not horizon:
                    return
                when = horizon[0]
                if until is not None and when > until:
                    self.now = until
                    return
                if limit is not None and when > limit:
                    raise InvalidState(
                        f"{target.name if target else 'run'} did not finish "
                        f"before {limit}"
                    )
                pop(horizon)
                self.now = now = when
                ready.extend(buckets.pop(when))
        finally:
            self.events_processed += events

    def _resume_slow(self, process: Process, yielded: Any) -> None:
        """Out-of-line tail of the inlined ``Process._step``: Delay/Event
        subclasses and the garbage-yield TypeError."""
        if isinstance(yielded, Delay):
            self._schedule(yielded.duration, process, None)
        elif isinstance(yielded, Event):
            yielded.add_waiter(process)
        else:
            raise TypeError(
                f"process {process.name!r} yielded {yielded!r}; "
                f"expected Delay or Event"
            )

    def _drain_policy(
        self,
        until: Optional[float],
        target: Optional[Process],
        limit: Optional[float],
    ) -> None:
        """Pure-heap event loop used when a :class:`SchedulerPolicy` is
        installed.

        Policies observe and perturb *every* scheduling decision, so this
        path keeps the historical one-pop-per-event structure (no ready
        FIFO, no inlining) -- the explorer/PCT/replay schedules in
        :mod:`repro.san` depend on it.
        """
        queue = self._queue
        pop = heapq.heappop
        events = 0
        try:
            while queue and not self._stopped:
                if target is not None and target.finished:
                    return
                when, _seq, process, value = queue[0]
                if until is not None and when > until:
                    self.now = until
                    return
                if limit is not None and when > limit:
                    raise InvalidState(
                        f"{target.name if target else 'run'} did not finish "
                        f"before {limit}"
                    )
                pop(queue)
                self.now = when
                events += 1
                if process is None:
                    value()  # plain callback scheduled via call_at
                elif not process.finished:
                    process._step(value)
        finally:
            self.events_processed += events

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, :meth:`stop` is called, or
        simulated time reaches ``until``.  Returns the final simulated
        time.
        """
        self._stopped = False
        self._drain(until, None, None)
        if until is not None and self.now < until and not self._stopped:
            self.now = until
        return self.now

    def run_until_complete(self, process: Process, limit: float = 1e12) -> Any:
        """Run until ``process`` finishes; returns its result.

        :meth:`stop` interrupts this entry point too (returning ``None``
        when the process has not finished); an empty queue with the
        process still pending is a deadlock.
        """
        self._stopped = False
        self._drain(None, process, limit)
        if process.finished:
            return process.result
        if self._stopped:
            return None
        raise InvalidState(
            f"deadlock: {process.name} pending with empty event queue"
        )

    def stop(self) -> None:
        """Stop the current :meth:`run` / :meth:`run_until_complete`
        after the in-flight step."""
        self._stopped = True

    # -- helpers ---------------------------------------------------------

    def clock(self) -> SimClock:
        return SimClock(self)

    def pending(self) -> int:
        queued = sum(len(bucket) for bucket in self._buckets.values())
        return len(self._queue) + queued + len(self._ready)


def all_of(sim: Simulator, processes: Iterable[Process]) -> ProcessGenerator:
    """A coroutine that waits for every process in ``processes``."""
    for process in processes:
        if not process.finished:
            yield process.done_event
