"""Retry with deterministic backoff, and attempt-counted circuit breakers.

:class:`RetryPolicy` is a frozen (picklable) description of *how* to
retry: attempt budget, exponential backoff with **seeded deterministic
jitter** (the jitter for attempt *k* at site *s* is a pure function of
``(seed, s, k)``, so two runs of the same plan sleep identically and
tests can assert exact schedules), and exception-class filters.
Budgets are counted in attempts, never wall time.

:class:`CircuitBreaker` is the companion for *persistent* failures: a
site that keeps failing trips the breaker open, later calls are
rejected without running, and after a cooldown measured in **rejected
attempts** (not wall time — deterministic under test) one probe is let
through half-open.  Success closes the circuit; failure re-opens it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from threading import Lock
from typing import Any, Callable, Dict, Optional, Tuple, Type

#: Breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


def _jitter_fraction(seed: int, site: str, attempt: int) -> float:
    """A deterministic uniform [0, 1) draw for one (site, attempt)."""
    digest = hashlib.blake2b(
        f"{seed}:{site}:{attempt}".encode("utf-8", "replace"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """How a protected call retries.

    Args:
        max_attempts: total attempts (1 = no retries).
        base_delay_s: backoff before the second attempt; attempt ``k``
            waits ``base * multiplier**(k-1)`` capped at ``max_delay_s``.
        multiplier: exponential growth factor.
        max_delay_s: backoff ceiling.
        jitter: fraction of the delay replaced by a seeded deterministic
            draw (0 disables; 0.5 means the delay spans 50–100% of the
            nominal backoff).
        seed: jitter seed — the full sleep schedule is a pure function
            of ``(seed, site, attempt)``.
        retry_on: exception classes worth retrying; anything else fails
            the call immediately.
        give_up_on: exception classes never retried even if they match
            ``retry_on`` (checked first).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)
    give_up_on: Tuple[Type[BaseException], ...] = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def with_(self, **changes: Any) -> "RetryPolicy":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)

    def delay_s(self, site: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) at ``site``."""
        nominal = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                      self.max_delay_s)
        if self.jitter <= 0.0 or nominal <= 0.0:
            return nominal
        fraction = _jitter_fraction(self.seed, site, attempt)
        return nominal * (1.0 - self.jitter * fraction)

    def classify(self, exc: BaseException) -> str:
        """``"retry"``, ``"fatal"`` (never retried), for one failure."""
        if self.give_up_on and isinstance(exc, self.give_up_on):
            return "fatal"
        if isinstance(exc, self.retry_on):
            return "retry"
        return "fatal"

    def run(
        self,
        fn: Callable[[], Any],
        site: str = "",
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> Tuple[Any, int]:
        """Call ``fn`` under this policy; returns ``(result, attempts)``.

        Retryable failures back off and re-attempt; the final failure
        (or any fatal one) is re-raised as itself so callers' existing
        ``except`` clauses keep working.  ``on_retry(attempt, exc)``
        fires before each backoff.
        """
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn(), attempt
            except Exception as exc:
                if self.classify(exc) == "fatal":
                    raise
                last = exc
            if attempt < self.max_attempts:
                if on_retry is not None:
                    on_retry(attempt, last)
                delay = self.delay_s(site, attempt)
                if delay > 0.0:
                    sleep(delay)
        assert last is not None
        raise last


#: A policy that never retries — the null runtime's default.
NO_RETRY = RetryPolicy(max_attempts=1, base_delay_s=0.0, jitter=0.0)


@dataclass(frozen=True)
class BreakerConfig:
    """Shape of the per-site breakers a runtime hands out."""

    trip_threshold: int = 5
    cooldown_attempts: int = 8
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.trip_threshold < 1:
            raise ValueError("trip_threshold must be at least 1")
        if self.cooldown_attempts < 1:
            raise ValueError("cooldown_attempts must be at least 1")
        if self.half_open_successes < 1:
            raise ValueError("half_open_successes must be at least 1")


class CircuitBreaker:
    """Closed / open / half-open failure gate for one site.

    ``trip_threshold`` consecutive failures trip the circuit open.
    While open, :meth:`allow` rejects calls; after ``cooldown_attempts``
    rejections the breaker turns half-open and lets probes through.
    ``half_open_successes`` consecutive probe successes close it again;
    any probe failure re-opens it.  All transitions are counted in
    attempts, never wall time, so behaviour under test is exact.
    """

    def __init__(self, site: str = "",
                 config: BreakerConfig = BreakerConfig(),
                 on_trip: Optional[Callable[["CircuitBreaker"], None]] = None,
                 ) -> None:
        self.site = site
        self.config = config
        self.on_trip = on_trip
        self._lock = Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._rejections = 0
        self._probe_successes = 0
        self._trips = 0
        self._rejected_total = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    def allow(self) -> bool:
        """May the next call run?  Rejections advance the cooldown."""
        # Lock-free fast path for the healthy case.  The unlocked read
        # is GIL-atomic; racing a concurrent trip at worst admits one
        # call that started before the trip landed — indistinguishable
        # from that call having been scheduled a moment earlier.
        if self._state == CLOSED:
            return True
        with self._lock:
            if self._state == OPEN:
                self._rejections += 1
                self._rejected_total += 1
                if self._rejections >= self.config.cooldown_attempts:
                    self._state = HALF_OPEN
                    self._probe_successes = 0
                return False
            return True

    def record_success(self) -> None:
        # Lock-free fast path: a healthy closed breaker has nothing to
        # reset.  A stale read merely defers one reset by a call, which
        # is equivalent to this success having landed before the racing
        # failure.
        if self._state == CLOSED and self._consecutive_failures == 0:
            return
        with self._lock:
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.config.half_open_successes:
                    self._state = CLOSED
                    self._consecutive_failures = 0
            else:
                self._consecutive_failures = 0

    def record_failure(self) -> None:
        tripped = False
        with self._lock:
            if self._state == HALF_OPEN:
                tripped = True
            else:
                self._consecutive_failures += 1
                if (self._state == CLOSED and self._consecutive_failures
                        >= self.config.trip_threshold):
                    tripped = True
            if tripped:
                self._state = OPEN
                self._rejections = 0
                self._trips += 1
        if tripped and self.on_trip is not None:
            self.on_trip(self)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "site": self.site,
                "state": self._state,
                "trips": self._trips,
                "consecutive_failures": self._consecutive_failures,
                "rejected_calls": self._rejected_total,
            }


class NullBreaker(CircuitBreaker):
    """Always-closed breaker handed out by the disabled runtime."""

    def allow(self) -> bool:
        return True

    def record_success(self) -> None:
        pass

    def record_failure(self) -> None:
        pass
