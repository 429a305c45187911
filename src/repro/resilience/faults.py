"""Deterministic fault injection: prove the resilience layer works.

A :class:`FaultPlan` is a *schedule* of faults keyed on named call
sites (``stage.syntax_check``, ``store.read_shard``, …) and per-site
call ordinals.  Production code never checks "am I under test" — it
runs whatever callable it is handed, and the resilience runtime wraps
that callable with :meth:`FaultPlan.wrap` when a plan is attached, so
the injected and un-injected code paths are byte-identical.

Fault kinds:

* ``raise`` — raise a registered exception class at the scheduled
  attempt (transient when the next ordinal is clean, persistent when
  every ordinal matches);
* ``delay`` — sleep before the attempt runs (a slow call changes
  timing, never results; drills use it to widen the window a kill can
  land in);
* ``crash`` — raise :class:`SimulatedCrash`, a ``BaseException`` that
  models ``kill -9`` mid-run: no retry or quarantine machinery may
  absorb it, so the run dies at an exact record boundary and the
  checkpoint journal is all that survives.

:func:`flip_shard_byte` is the on-disk half of the harness: a seeded
single-byte corruption of a stored shard, for exercising the store's
digest verification, retry, and breaker paths.

Plans serialise to JSON (``to_json`` / ``from_json``) so a fault
schedule can ride a CLI flag (``--fault-plan plan.json``), and
:meth:`FaultPlan.seeded` derives a whole schedule from one seed.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..obs.reportable import Reportable

PathLike = Union[str, Path]

FAULT_KINDS = ("raise", "delay", "crash")


class TransientFault(RuntimeError):
    """The default injected exception — retryable by any sane policy."""


class SimulatedCrash(BaseException):
    """A simulated process kill.

    Deliberately a ``BaseException`` (like ``KeyboardInterrupt``): no
    ``except Exception`` handler — retry loops, quarantine wrappers,
    executor fallbacks — may swallow it, so the run genuinely dies
    where the plan says it dies.
    """

    def __init__(self, site: str, ordinal: int) -> None:
        self.site = site
        self.ordinal = ordinal
        super().__init__(f"simulated crash at {site!r} call #{ordinal}")


def _shard_corruption(message: str) -> BaseException:
    # Imported lazily: resilience must not depend on the store package.
    from ..store.errors import ShardCorruptionError

    return ShardCorruptionError("<injected>", message)


#: name -> factory(message) for exceptions a plan may raise.  JSON plans
#: reference these by name; extend via :func:`register_fault_exception`.
_EXCEPTIONS: Dict[str, Callable[[str], BaseException]] = {
    "TransientFault": TransientFault,
    "RuntimeError": RuntimeError,
    "OSError": OSError,
    "IOError": OSError,
    "TimeoutError": TimeoutError,
    "ValueError": ValueError,
    "KeyError": KeyError,
    "ConnectionError": ConnectionError,
    "ShardCorruptionError": _shard_corruption,
}


def register_fault_exception(
    name: str, factory: Callable[[str], BaseException]
) -> None:
    """Make ``name`` usable as a :class:`FaultRule` exception."""
    _EXCEPTIONS[name] = factory


@dataclass(frozen=True)
class FaultRule(Reportable):
    """One scheduled fault.

    Args:
        site: the call site the rule watches (exact match).
        kind: ``raise`` | ``delay`` | ``crash``.
        ordinals: 0-based per-site call ordinals that fault.  Every
            attempt — including retries — advances the site's ordinal,
            so a ``raise`` at ordinal 3 alone is a transient fault the
            first retry absorbs.
        exception: registered exception name (``raise`` kind).
        message: message passed to the exception factory.
        delay_s: sleep length (``delay`` kind).
    """

    site: str
    kind: str = "raise"
    ordinals: Tuple[int, ...] = ()
    exception: str = "TransientFault"
    message: str = "injected fault"
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind={self.kind!r}; choose from {FAULT_KINDS}")
        if self.kind == "raise" and self.exception not in _EXCEPTIONS:
            raise ValueError(
                f"unregistered exception {self.exception!r}; known: "
                f"{sorted(_EXCEPTIONS)}")

    def matches(self, ordinal: int) -> bool:
        return ordinal in self.ordinals


class FaultPlan(Reportable):
    """A deterministic schedule of faults over named call sites.

    Per-site call counting is thread-safe; under a process pool the
    plan cannot be pickled (by design — fault state must stay shared),
    which makes the executor degrade to its serial fallback, keeping
    injection deterministic in every mode.

    Args:
        rules: the fault schedule.
        sleep: injectable clock for ``delay`` rules (tests pass a
            recorder to avoid real sleeping).
    """

    schema = "pyranet/fault-plan/v1"

    def __init__(self, rules: Sequence[FaultRule] = (),
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self._by_site: Dict[str, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._injected: Dict[str, Dict[str, int]] = {}

    @classmethod
    def seeded(cls, seed: int, sites: Sequence[str], n_faults: int = 3,
               max_ordinal: int = 50, kind: str = "raise",
               exception: str = "TransientFault") -> "FaultPlan":
        """A schedule derived entirely from ``seed``: ``n_faults``
        distinct ordinals per site, uniformly below ``max_ordinal``."""
        rng = random.Random(seed)
        rules = []
        for site in sites:
            ordinals = tuple(sorted(rng.sample(
                range(max_ordinal), min(n_faults, max_ordinal))))
            rules.append(FaultRule(site=site, kind=kind, ordinals=ordinals,
                                   exception=exception))
        return cls(rules)

    def sites(self) -> List[str]:
        return sorted(self._by_site)

    def active_for(self, site: str) -> bool:
        return site in self._by_site

    def fire(self, site: str) -> None:
        """Advance ``site``'s ordinal; enact whatever the schedule says."""
        with self._lock:
            ordinal = self._calls.get(site, 0)
            self._calls[site] = ordinal + 1
            rule = next(
                (r for r in self._by_site.get(site, ()) if r.matches(ordinal)),
                None,
            )
            if rule is not None:
                tally = self._injected.setdefault(site, {})
                tally[rule.kind] = tally.get(rule.kind, 0) + 1
        if rule is None:
            return
        if rule.kind == "delay":
            self._sleep(rule.delay_s)
        elif rule.kind == "crash":
            raise SimulatedCrash(site, ordinal)
        else:
            raise _EXCEPTIONS[rule.exception](rule.message)

    def wrap(self, site: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with this plan's faults injected ahead of each call.

        Sites with no scheduled faults get ``fn`` back untouched, so a
        plan only prices the sites it watches.
        """
        if not self.active_for(site):
            return fn
        return _FaultyCall(self, site, fn)

    def calls(self, site: str) -> int:
        with self._lock:
            return self._calls.get(site, 0)

    def report(self) -> Dict[str, Dict[str, int]]:
        """site -> kind -> injected count."""
        with self._lock:
            return {site: dict(kinds)
                    for site, kinds in sorted(self._injected.items())}

    # -- serialisation (by hand: a plan is not a dataclass) -------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        return cls([FaultRule.from_dict(item)
                    for item in data.get("rules", [])])


class _FaultyCall:
    """``fn`` behind one plan site (deliberately unpicklable: the plan's
    shared counters must not fork into per-process copies)."""

    def __init__(self, plan: FaultPlan, site: str,
                 fn: Callable[..., Any]) -> None:
        self.plan = plan
        self.site = site
        self.fn = fn

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.plan.fire(self.site)
        return self.fn(*args, **kwargs)

    def __reduce__(self):
        raise TypeError(
            "a fault-injected callable cannot cross a process boundary "
            "(plan counters must stay shared); the executor degrades "
            "to its serial fallback instead")


def flip_shard_byte(path: PathLike, seed: int = 0,
                    offset: Optional[int] = None) -> int:
    """Flip one byte of the file at ``path``; returns the offset flipped.

    The offset derives deterministically from ``seed`` unless given.
    This is persistent, on-disk corruption — the reader's digest check
    must catch it on every read until the file is repaired.
    """
    path = Path(path)
    payload = bytearray(path.read_bytes())
    if not payload:
        raise ValueError(f"{path}: cannot corrupt an empty file")
    if offset is None:
        offset = random.Random(seed).randrange(len(payload))
    payload[offset] ^= 0xFF
    path.write_bytes(bytes(payload))
    return offset
