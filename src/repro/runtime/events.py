"""A tiny generator-based discrete-event engine.

Processes are Python generators that yield wait requests:

* ``("delay", dt)`` — resume after ``dt`` microseconds of virtual time,
* ``("wait", signal)`` — resume when the signal is next notified,
* ``("at", t)`` — resume at absolute virtual time ``t``.

The engine keeps a single priority queue of pending resumptions. This is
all the machinery the MSCCL-IR interpreter needs: semaphores and FIFOs
are built from :class:`Signal` plus plain counters.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Optional, Tuple

from ..core.errors import SimulationError


class Signal:
    """A broadcast condition: processes wait, notify_all wakes them.

    ``label`` names the wait class ("fifo_arrival", "fifo_slot",
    "semaphore", ...) so a tracing event loop can attribute blocked
    time to it.
    """

    __slots__ = ("_waiters", "label")

    def __init__(self, label: str = "") -> None:
        self._waiters: List = []
        self.label = label

    def add_waiter(self, process, since: float = 0.0) -> None:
        self._waiters.append((process, since))

    def take_waiters(self) -> List:
        waiters, self._waiters = self._waiters, []
        return waiters


class EventLoop:
    """Runs processes until no further progress is possible.

    With a :class:`repro.observe.Tracer`, every wakeup from a labelled
    signal adds the time the process spent blocked to a
    ``wait.<label>_us`` counter (sampled at the wake time) — the FIFO
    stall and semaphore accounting of the observability layer.
    """

    def __init__(self, tracer=None) -> None:
        self.now = 0.0
        self.tracer = tracer
        self._queue: List[Tuple[float, int, Iterator]] = []
        self._sequence = 0
        self._active = 0
        self._blocked = 0

    def spawn(self, process: Iterator, at: Optional[float] = None) -> None:
        """Register a generator process; it starts at ``at`` (default now)."""
        self._active += 1
        self._push(self.now if at is None else at, process)

    def _push(self, time: float, process: Iterator) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        heapq.heappush(self._queue, (time, self._sequence, process))
        self._sequence += 1

    def notify(self, signal: Signal) -> None:
        """Wake every process waiting on the signal (at the current time)."""
        for process, since in signal.take_waiters():
            self._blocked -= 1
            if self.tracer is not None and signal.label:
                self.tracer.add_counter(
                    f"wait.{signal.label}_us", self.now - since,
                    t_us=self.now,
                )
            self._push(self.now, process)

    def run(self) -> float:
        """Run to completion; returns the final virtual time.

        Raises SimulationError if processes remain blocked on signals
        that will never be notified (a deadlock).
        """
        while self._queue:
            time, _seq, process = heapq.heappop(self._queue)
            self.now = time
            self._step(process)
        if self._blocked:
            raise SimulationError(
                f"simulation deadlocked: {self._blocked} processes are "
                "waiting on signals nobody will notify"
            )
        return self.now

    def _step(self, process: Iterator) -> None:
        try:
            request = next(process)
        except StopIteration:
            self._active -= 1
            return
        kind = request[0]
        if kind == "delay":
            self._push(self.now + request[1], process)
        elif kind == "at":
            self._push(max(self.now, request[1]), process)
        elif kind == "wait":
            signal = request[1]
            signal.add_waiter(process, since=self.now)
            self._blocked += 1
        else:
            raise SimulationError(f"unknown wait request {request!r}")


def make_timer(loop: EventLoop) -> Callable[[float], Tuple[str, float]]:
    """Helper for tests: a delay-request factory bound to a loop."""
    del loop  # the request format is loop-independent
    return lambda dt: ("delay", dt)


# -- batched engine ---------------------------------------------------------


class BatchEventLoop:
    """The slimmed event engine behind the batched simulator.

    Scheduling discipline matches :class:`EventLoop`: one priority
    queue ordered by ``(time, sequence)``, notified waiters re-queued
    at the notify time in list order. What changes is the cost per
    simulated instruction occurrence: thread-block processes are primed
    generators driven by ``send(now)`` — the current virtual time rides
    the resumption instead of being re-read from the loop — and the
    only heap entries are those resumptions.

    Processes yield one of:

    * ``t`` (float) — resume at ``max(now, t)``,
    * ``signal`` — block until a wake action names the signal,
    * ``(actions, t | signal)`` — run each ``(fire_t, signal)`` wake
      action, then resume at float ``t`` or block on the signal.

    A wake action re-queues the signal's blocked waiters directly at
    ``max(now, fire_t)``, the virtual time the fact they wait for
    becomes true. This is valid because every signal has exactly one
    publishing thread block, so nothing else can wake those waiters
    between the publication and the fire time.
    """

    __slots__ = ("now", "_queue", "_sequence", "_blocked")

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[tuple] = []
        self._sequence = 0
        self._blocked = 0

    def spawn(self, process, at: Optional[float] = None) -> None:
        """Prime a generator process; first resumption at ``at``."""
        process.send(None)
        heapq.heappush(
            self._queue,
            (self.now if at is None else at, self._sequence, process.send),
        )
        self._sequence += 1

    def run(self) -> float:
        """Run to completion; returns the final virtual time.

        Raises SimulationError if processes remain blocked on signals
        that will never be notified (a deadlock), exactly like
        :class:`EventLoop`.
        """
        queue = self._queue
        push = heapq.heappush
        pop = heapq.heappop
        seq = self._sequence
        blocked = self._blocked
        now = self.now
        while queue:
            now, _s, send = pop(queue)
            try:
                req = send(now)
            except StopIteration:
                continue
            cls = type(req)
            if cls is float:
                push(queue, (req if req > now else now, seq, send))
                seq += 1
            elif cls is tuple:
                for at, signal in req[0]:
                    waiters = signal._waiters
                    signal._waiters = []
                    blocked -= len(waiters)
                    t = at if at > now else now
                    for waiter, _since in waiters:
                        push(queue, (t, seq, waiter))
                        seq += 1
                t = req[1]
                if type(t) is float:
                    push(queue, (t if t > now else now, seq, send))
                    seq += 1
                else:  # Signal: run the actions, then block
                    t._waiters.append((send, now))
                    blocked += 1
            else:  # Signal: block until woken
                req._waiters.append((send, now))
                blocked += 1
        self._sequence = seq
        self._blocked = blocked
        self.now = now
        if blocked:
            raise SimulationError(
                f"simulation deadlocked: {blocked} processes are "
                "waiting on signals nobody will notify"
            )
        return now
