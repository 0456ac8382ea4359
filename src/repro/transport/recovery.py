"""Reconnection policy: exponential backoff with an attempt ceiling.

"If the TCP connection to a server is lost ... the adapter responds by
attempting to reconnect to the server with an exponentially increasing
delay.  (Users may place an upper limit on these retries with a
command-line argument.)"  This module is that behaviour.  It lives in the
transport layer so every session type (Chirp, database) and every handle
shares one recovery discipline (:mod:`repro.core` re-exports it).

Optional decorrelated jitter (``jitter=True``) spreads mass reconnects
after a server restart: instead of every client sleeping the same
deterministic sequence and stampeding the freshly restarted server in
lockstep, each delay is drawn uniformly from ``[initial_delay,
3 * previous_delay]``, capped at ``max_delay``.  The RNG is injectable
(like ``clock``) so tests pin the sequence with a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, TypeVar

from repro.transport.deadline import Deadline
from repro.util.clock import Clock, MonotonicClock
from repro.util.errors import BusyError, DisconnectedError, TimedOutError

__all__ = ["RetryPolicy"]

T = TypeVar("T")


@dataclass
class RetryPolicy:
    """How aggressively to recover from a lost server connection.

    :ivar max_attempts: total tries (first try included); ``1`` disables
        reconnection entirely -- the user-visible "upper limit" knob.
    :ivar initial_delay: seconds before the first reconnect attempt.
    :ivar multiplier: backoff factor between attempts (ignored when
        ``jitter`` is on; the jitter recurrence replaces it).
    :ivar max_delay: backoff ceiling.
    :ivar jitter: draw decorrelated-jitter delays instead of the fixed
        exponential sequence.
    :ivar rng: random source for jitter; inject a seeded
        :class:`random.Random` for deterministic tests.
    """

    max_attempts: int = 5
    initial_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: bool = False
    rng: Optional[random.Random] = None
    clock: Clock = field(default_factory=MonotonicClock)

    def delays(self):
        """The sleep before each *re*-attempt (``max_attempts - 1`` values)."""
        if self.jitter:
            yield from self._jittered_delays()
            return
        delay = self.initial_delay
        for _ in range(max(0, self.max_attempts - 1)):
            yield min(delay, self.max_delay)
            delay *= self.multiplier

    def _jittered_delays(self):
        rng = self.rng if self.rng is not None else random.Random()
        delay = self.initial_delay
        for _ in range(max(0, self.max_attempts - 1)):
            delay = min(delay, self.max_delay)
            yield delay
            # AWS-style decorrelated jitter: next in [base, 3 * previous].
            delay = rng.uniform(self.initial_delay, delay * 3)

    def run(
        self,
        operation: Callable[[], T],
        recover: Callable[[], None],
        deadline: Optional[Deadline] = None,
    ) -> T:
        """Run ``operation``; on disconnect, back off, ``recover``, retry.

        ``recover`` re-establishes whatever state the operation needs
        (reconnect, re-open, verify inode); exceptions it raises other
        than :class:`DisconnectedError` propagate immediately (e.g. a
        stale-handle verdict must not be retried away).

        When the retries are exhausted the *original* operation failure
        is re-raised, with the latest one chained as its cause, so
        tracebacks name the first fault rather than the last doomed
        reconnect.

        With a ``deadline``, each backoff sleep is clamped to the
        remaining budget, and a spent budget raises
        :class:`TimedOutError` (chained from the original failure)
        instead of sleeping past it.

        A :class:`BusyError` -- the server shedding load or draining --
        is also retried, but as *server-driven* backoff: the sleep is
        the refusal's ``retry_after`` hint when it carries one (capped
        at ``max_delay``), ``recover`` is **not** called (the connection
        is healthy; the server just refused the work), and the breaker
        never moves because nothing here records transport failure.
        """
        delays = self.delays()
        original: Optional[DisconnectedError] = None
        while True:
            busy: Optional[BusyError] = None
            try:
                return operation()
            except BusyError as exc:
                busy = exc
            except DisconnectedError as exc:
                if original is None:
                    original = exc
                delay = next(delays, None)
                if delay is None:
                    # Attempts exhausted: surface the first disconnect.
                    if exc is original:
                        raise
                    raise original from exc
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise TimedOutError(
                            f"retry budget of {deadline.budget:g}s exhausted"
                        ) from original
                    delay = min(delay, remaining)
                self.clock.sleep(delay)
                try:
                    recover()
                except DisconnectedError:
                    # Server still down: burn another attempt and keep
                    # backing off rather than calling operation() doomed.
                    continue
                continue
            # BUSY path: honor the server's hint, skip recover().
            delay = next(delays, None)
            if delay is None:
                raise busy
            if busy.retry_after_s is not None:
                delay = min(busy.retry_after_s, self.max_delay)
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise TimedOutError(
                        f"retry budget of {deadline.budget:g}s exhausted"
                    ) from busy
                delay = min(delay, remaining)
            self.clock.sleep(delay)
