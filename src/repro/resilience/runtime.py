"""The resilience runtime: one handle wiring retry, breakers, faults,
checkpoints, and dead-letter accounting into a run.

Mirrors the :mod:`repro.obs` design: everything instrumented takes an
optional ``resilience`` argument, :func:`resolve` maps ``None`` to a
shared disabled instance, and production code has exactly one path —
no "am I under test" branching anywhere.  Fault injection enters the
same way real faults do: :class:`~.faults.FaultPlan` wraps the
protected callable *inside* the retry loop, so an injected
``TransientFault`` and a real flaky read exercise identical machinery.

Per-record stage work is protected by a :class:`StageShield`.  Its
``wrap()`` produces a picklable guard that retries each record and
converts an exhausted failure into a :class:`Quarantined` marker —
returned, never raised, so a poisoned record crossing a process pool
can never surface an unpicklable exception or kill the pool.  The
parent-side ``settle()`` then unwraps markers and records retry and
quarantine tallies exactly once, whatever the executor mode.

The one exception that *does* propagate is
:class:`~.faults.SimulatedCrash` — a ``BaseException`` by design, so a
scheduled kill tears the run down through every guard, leaving only
the checkpoint journal behind.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import Observability
from ..obs import resolve as resolve_obs
from ..obs.reportable import Reportable
from .checkpoint import Checkpointer
from .errors import CircuitOpenError
from .faults import FaultPlan
from .retry import (BreakerConfig, CircuitBreaker, NO_RETRY, NullBreaker,
                    RetryPolicy)


def _clip(value: Any, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 1] + "…"


def _value_digest(value: Any) -> str:
    return hashlib.blake2b(
        repr(value).encode("utf-8", "replace"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class Quarantined(Reportable):
    """A record whose work failed even after retries.

    Returned (never raised) by guarded stage functions, so it survives
    any process-pool round trip — all fields are plain strings and
    ints, no exception objects.  The stage drops the record with a
    ``quarantined:<error_type>`` reason; the runtime files the details
    in the run's :class:`DeadLetterReport`.
    """

    site: str
    error_type: str
    error: str
    attempts: int
    value_repr: str = ""
    value_digest: str = ""


@dataclass(frozen=True)
class Retried:
    """Success-after-retry marker: carries the result plus how many
    retries it cost, so the parent process can count them no matter
    which pool the work ran in."""

    result: Any
    retries: int


class _GuardedFn:
    """The per-record guard a :class:`StageShield` sends into executor
    pools.  Picklable whenever its pieces are (the policy always is; a
    fault-wrapped ``fn`` or a live breaker deliberately is not, which
    makes process pools degrade to the executor's serial fallback
    rather than forking shared state)."""

    __slots__ = ("site", "policy", "fn", "breaker", "sleep")

    def __init__(self, site: str, policy: RetryPolicy,
                 fn: Callable[[Any], Any],
                 breaker: Optional[CircuitBreaker] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.site = site
        self.policy = policy
        self.fn = fn
        self.breaker = breaker
        self.sleep = sleep

    def __call__(self, value: Any) -> Any:
        if self.breaker is not None and not self.breaker.allow():
            return Quarantined(
                site=self.site, error_type="CircuitOpenError",
                error=f"circuit open for {self.site!r}", attempts=0,
                value_repr=_clip(value), value_digest=_value_digest(value))
        # Fast path: one bare call.  A fault-free record pays only this
        # try/except — no retry-loop bookkeeping.
        try:
            result = self.fn(value)
        except Exception as exc:
            return self._retry_slow(value, exc)
        if self.breaker is not None:
            self.breaker.record_success()
        return result

    def _retry_slow(self, value: Any, exc: BaseException) -> Any:
        """Attempt 1 already failed with ``exc``; back off and re-attempt
        under the policy.  Attempt numbering continues from 1 so the
        jitter schedule matches :meth:`RetryPolicy.run` exactly."""
        policy = self.policy
        attempt = 1
        while True:
            if (policy.classify(exc) == "fatal"
                    or attempt >= policy.max_attempts):
                if self.breaker is not None:
                    self.breaker.record_failure()
                return Quarantined(
                    site=self.site, error_type=type(exc).__name__,
                    error=str(exc), attempts=attempt,
                    value_repr=_clip(value),
                    value_digest=_value_digest(value))
            delay = policy.delay_s(self.site, attempt)
            if delay > 0.0:
                self.sleep(delay)
            attempt += 1
            try:
                result = self.fn(value)
            except Exception as next_exc:
                exc = next_exc
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return Retried(result, attempt - 1)


class StageShield:
    """Retry + quarantine + fault injection around one stage's records.

    ``wrap(fn)`` is applied by the executor before mapping; ``settle``
    runs in the parent afterwards, unwrapping markers and recording
    tallies into the owning :class:`Resilience` exactly once."""

    def __init__(self, resilience: "Resilience", site: str,
                 policy: RetryPolicy,
                 breaker: Optional[CircuitBreaker] = None,
                 plan: Optional[FaultPlan] = None) -> None:
        self.resilience = resilience
        self.site = site
        self.policy = policy
        self.breaker = breaker
        self.plan = plan

    def wrap(self, fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        inner = self.plan.wrap(self.site, fn) if self.plan is not None else fn
        return _GuardedFn(self.site, self.policy, inner, self.breaker,
                          self.resilience.sleep)

    def settle(self, results: List[Any]) -> List[Any]:
        settled: List[Any] = []
        for result in results:
            if isinstance(result, Retried):
                self.resilience.record_retry(self.site, result.retries)
                settled.append(result.result)
            else:
                if isinstance(result, Quarantined):
                    self.resilience.record_quarantine(result)
                settled.append(result)
        return settled


@dataclass
class DeadLetterReport(Reportable):
    """Records the run could not process: the quarantine ledger."""

    schema: str = field(default="pyranet/dead-letter/v1", init=False)
    entries: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, quarantined: Quarantined) -> None:
        self.entries.append(quarantined.to_dict())

    def __len__(self) -> int:
        return len(self.entries)

    def by_site(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for entry in self.entries:
            site = entry.get("site", "")
            histogram[site] = histogram.get(site, 0) + 1
        return histogram


@dataclass
class ResilienceReport(Reportable):
    """What the resilience runtime did during a run."""

    schema: str = field(default="pyranet/resilience-report/v1", init=False)
    retries: Dict[str, int] = field(default_factory=dict)
    quarantines: Dict[str, int] = field(default_factory=dict)
    breakers: List[Dict[str, Any]] = field(default_factory=list)
    resumed_stages: int = 0
    resumed_batches: int = 0
    faults_injected: Dict[str, Dict[str, int]] = field(default_factory=dict)
    dead_letter: DeadLetterReport = field(default_factory=DeadLetterReport)

    @property
    def total_retries(self) -> int:
        return sum(self.retries.values())

    @property
    def total_quarantined(self) -> int:
        return sum(self.quarantines.values())


class Resilience:
    """One run's fault-handling policy and bookkeeping.

    Args:
        retry: default :class:`RetryPolicy` for protected calls.
        breaker: shape of the per-site circuit breakers; ``None``
            disables breakers entirely.
        checkpointer: journals pipeline progress for resume; ``None``
            disables checkpointing.
        fault_plan: deterministic fault schedule (tests and drills);
            ``None`` injects nothing.
        obs: observability handle retry/trip/resume counters flow into.
            Curation and evaluation bind their own handle for the
            duration of a run when none was given here.
        sleep: backoff clock, injectable so tests never really sleep.
    """

    def __init__(self, retry: Optional[RetryPolicy] = None,
                 breaker: Optional[BreakerConfig] = BreakerConfig(),
                 checkpointer: Optional[Checkpointer] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 obs: Optional[Observability] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_config = breaker
        self.checkpointer = checkpointer
        self.fault_plan = fault_plan
        self.obs = obs
        self.sleep = sleep
        self.enabled = True
        self.dead_letter = DeadLetterReport()
        self._lock = Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._null_breaker = NullBreaker()
        self._retries: Dict[str, int] = {}
        self._quarantines: Dict[str, int] = {}
        self._resumed_stages = 0
        self._resumed_batches = 0

    @classmethod
    def disabled(cls) -> "Resilience":
        """The zero-cost instance :func:`resolve` hands out for None."""
        instance = cls(retry=NO_RETRY, breaker=None)
        instance.enabled = False
        return instance

    # -- per-site machinery ---------------------------------------------

    def breaker(self, site: str) -> CircuitBreaker:
        """The (shared, get-or-create) breaker guarding ``site``."""
        if self.breaker_config is None:
            return self._null_breaker
        with self._lock:
            found = self._breakers.get(site)
            if found is None:
                found = CircuitBreaker(site, self.breaker_config,
                                       on_trip=self._on_trip)
                self._breakers[site] = found
            return found

    def shield(self, site: str, mode: str = "serial"
               ) -> Optional[StageShield]:
        """A :class:`StageShield` for one stage's records, or ``None``
        when this runtime is disabled (the executor then runs its
        original zero-overhead path).

        Breakers hold locks and must stay shared, so in ``process``
        mode the shield carries none — per-worker retry and quarantine
        still apply; breaker accounting is a thread/serial feature.
        """
        if not self.enabled:
            return None
        breaker: Optional[CircuitBreaker] = None
        if self.breaker_config is not None and mode != "process":
            breaker = self.breaker(site)
        plan = self.fault_plan
        if plan is not None and not plan.active_for(site):
            plan = None
        return StageShield(self, site, self.retry, breaker, plan)

    def call(self, site: str, fn: Callable[[], Any],
             retry: Optional[RetryPolicy] = None,
             breaker: Optional[CircuitBreaker] = None) -> Any:
        """Run ``fn`` under the retry policy (store I/O, batch stages).

        Unlike shielded stage work, exhausted or fatal failures re-raise
        the *original* exception so callers' existing ``except`` clauses
        keep working; an open breaker raises :class:`CircuitOpenError`
        without running ``fn`` at all.
        """
        if not self.enabled:
            return fn()
        if breaker is not None and not breaker.allow():
            self._obs().counter("resilience.breaker.rejected").inc()
            raise CircuitOpenError(site)
        policy = retry if retry is not None else self.retry
        wrapped = (self.fault_plan.wrap(site, fn)
                   if self.fault_plan is not None else fn)
        retries = 0

        def on_retry(attempt: int, exc: BaseException) -> None:
            nonlocal retries
            retries += 1

        try:
            result, _attempts = policy.run(wrapped, site=site,
                                           sleep=self.sleep,
                                           on_retry=on_retry)
        except Exception:
            if breaker is not None:
                breaker.record_failure()
            if retries:
                self.record_retry(site, retries)
            raise
        if breaker is not None:
            breaker.record_success()
        if retries:
            self.record_retry(site, retries)
        return result

    # -- bookkeeping ----------------------------------------------------

    def _obs(self) -> Observability:
        return resolve_obs(self.obs)

    def _on_trip(self, breaker: CircuitBreaker) -> None:
        obs = self._obs()
        obs.counter("resilience.breaker.trips").inc()
        obs.counter(f"resilience.breaker.{breaker.site}.trips").inc()

    def record_retry(self, site: str, retries: int) -> None:
        if retries <= 0:
            return
        with self._lock:
            self._retries[site] = self._retries.get(site, 0) + retries
        obs = self._obs()
        obs.counter("resilience.retries").inc(retries)
        obs.counter(f"resilience.retry.{site}").inc(retries)

    def record_quarantine(self, quarantined: Quarantined) -> None:
        with self._lock:
            site = quarantined.site
            self._quarantines[site] = self._quarantines.get(site, 0) + 1
            self.dead_letter.add(quarantined)
        obs = self._obs()
        obs.counter("resilience.quarantined").inc()
        obs.counter(f"resilience.quarantine.{quarantined.site}").inc()

    def record_resumed(self, stages: int = 0, batches: int = 0) -> None:
        with self._lock:
            self._resumed_stages += stages
            self._resumed_batches += batches
        obs = self._obs()
        if stages:
            obs.counter("resilience.resume.stages").inc(stages)
        if batches:
            obs.counter("resilience.resume.batches").inc(batches)

    def retries_for(self, site: str) -> int:
        with self._lock:
            return self._retries.get(site, 0)

    def quarantined_for(self, site: str) -> int:
        with self._lock:
            return self._quarantines.get(site, 0)

    @property
    def total_retries(self) -> int:
        with self._lock:
            return sum(self._retries.values())

    @property
    def total_quarantined(self) -> int:
        with self._lock:
            return sum(self._quarantines.values())

    def summary(self) -> Dict[str, Any]:
        """The compact dict a run folds into its trace metadata."""
        with self._lock:
            return {
                "retries": sum(self._retries.values()),
                "quarantined": sum(self._quarantines.values()),
                "breaker_trips": sum(b.trips for b in self._breakers.values()),
                "resumed_stages": self._resumed_stages,
                "resumed_batches": self._resumed_batches,
            }

    def report(self) -> ResilienceReport:
        """Everything this runtime absorbed, as one report artefact."""
        with self._lock:
            return ResilienceReport(
                retries=dict(self._retries),
                quarantines=dict(self._quarantines),
                breakers=[b.snapshot() for b in self._breakers.values()],
                resumed_stages=self._resumed_stages,
                resumed_batches=self._resumed_batches,
                faults_injected=(self.fault_plan.report()
                                 if self.fault_plan is not None else {}),
                dead_letter=DeadLetterReport.from_dict(
                    self.dead_letter.to_dict()),
            )


#: Shared disabled instance used wherever no ``resilience`` was supplied.
_NULL = Resilience.disabled()


def resolve(resilience: Optional[Resilience]) -> Resilience:
    """``resilience`` itself, or the shared disabled instance for None."""
    return resilience if resilience is not None else _NULL
