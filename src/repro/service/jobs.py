"""Job records: the unit of work the service queues and executes.

A :class:`Job` is a plain, JSON-able record — type name, parameter
dict, idempotency key, lifecycle status — and nothing else.  All
execution machinery lives in :mod:`~repro.service.handlers` (what a
job *does*) and :mod:`~repro.service.workers` (how it runs); the job
record itself must survive pickling into the queue journal and JSON
encoding over HTTP unchanged.

Identity and idempotency
------------------------

``job_id`` derives from the job type and idempotency key alone
(:func:`job_id_for`), so the same logical submission names the same
job in every process that ever touches the queue — the property the
exactly-once submission guarantee and crash-recovery both rest on.
Submissions without an explicit key get a unique auto-key derived from
the submission sequence number, i.e. *no* dedup: two identical
anonymous submissions are two jobs.

The job-type registry
---------------------

What a type name *means* — which runner executes it and what its
payload looks like — lives here too, in one
:func:`register_job_type` registry.  Workers, the submit path, and
the HTTP surface all resolve types through it, so a new workload
plugs in with one call instead of edits across three modules.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..obs.reportable import Reportable

#: Lifecycle states a job moves through (terminal: ``done``/``failed``).
JOB_STATUSES = ("queued", "running", "done", "failed")

_ID_DIGEST_SIZE = 8


def params_digest(params: Dict[str, Any]) -> str:
    """Stable digest of a parameter dict (sorted-key JSON)."""
    blob = json.dumps(params, sort_keys=True, ensure_ascii=False,
                      default=repr)
    return hashlib.blake2b(blob.encode("utf-8"),
                           digest_size=_ID_DIGEST_SIZE).hexdigest()


def job_id_for(job_type: str, idempotency_key: str) -> str:
    """The deterministic job id for one (type, idempotency key) pair."""
    digest = hashlib.blake2b(
        f"{job_type}|{idempotency_key}".encode("utf-8"),
        digest_size=_ID_DIGEST_SIZE).hexdigest()
    return f"job-{digest}"


@dataclass
class Job(Reportable):
    """One queued unit of work.

    Attributes:
        job_id: deterministic id (see :func:`job_id_for`).
        type: handler name (``curate`` / ``finetune`` / ``eval`` /
            ``probe``).
        params: handler parameters, JSON-able.
        idempotency_key: submission dedup key; resubmitting the same
            (type, key) returns this job instead of enqueueing again.
        seq: submission order, assigned by the queue.
        status: one of :data:`JOB_STATUSES`.
        attempts: execution attempts so far (recovered runs increment).
        worker: name of the worker that last claimed the job.
        error: terminal error text (``failed`` only).
        quarantine: the dead-letter marker dict for a quarantined job
            (:meth:`repro.resilience.Quarantined.to_dict` shape).
        result: handler summary dict (``done`` only).
        report: the job execution's own merged
            :class:`~repro.obs.RunReport` as a dict — what
            ``/jobs/<id>/report`` serves.
        wall_s: wall time of the finishing attempt.
        recovered: times the job was re-queued after a worker death.
    """

    job_id: str
    type: str
    params: Dict[str, Any] = field(default_factory=dict)
    idempotency_key: str = ""
    seq: int = 0
    status: str = "queued"
    attempts: int = 0
    worker: str = ""
    error: str = ""
    quarantine: Dict[str, Any] = field(default_factory=dict)
    result: Dict[str, Any] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    wall_s: float = 0.0
    recovered: int = 0

    def summary(self) -> Dict[str, Any]:
        """The compact listing row (``GET /jobs``): no report payload."""
        return {
            "job_id": self.job_id,
            "type": self.type,
            "status": self.status,
            "seq": self.seq,
            "attempts": self.attempts,
            "recovered": self.recovered,
            "error": self.error,
        }


def auto_key(seq: int, job_type: str, params: Dict[str, Any]) -> str:
    """The unique key for a submission that brought none.

    Includes ``seq`` so identical anonymous submissions stay distinct
    jobs — idempotent collapsing is opt-in via an explicit key.
    """
    return f"auto:{seq}:{params_digest(params)}:{job_type}"


# -- the job-type registry ----------------------------------------------

#: Python types a payload-schema ``type`` name maps onto.  ``float``
#: accepts ints (the JSON decoder hands ``2`` for ``2.0``); ``int``
#: rejects bools (a submitted ``true`` is never a count).
_SCHEMA_TYPES: Dict[str, tuple] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
    "dict": (dict,),
    "list": (list, tuple),
}


@dataclass(frozen=True)
class JobType:
    """One registered job type: its runner plus the payload contract.

    ``payload_schema`` maps parameter names to
    ``{"type": <name>, "required": bool, "doc": str}`` rows (all keys
    optional).  Validation is deliberately permissive — undeclared
    parameters pass through untouched so registering a schema for an
    existing type cannot reject payloads it previously accepted.
    """

    name: str
    runner: Callable[..., Dict[str, Any]]
    payload_schema: Dict[str, Any] = field(default_factory=dict)

    def validate(self, params: Dict[str, Any]) -> None:
        """Raise ``ValueError`` on a payload that breaks the schema."""
        for key, spec in self.payload_schema.items():
            if key not in params:
                if spec.get("required"):
                    raise ValueError(
                        f"{self.name} job needs params[{key!r}]")
                continue
            want = spec.get("type")
            if want is None:
                continue
            accepted = _SCHEMA_TYPES.get(want)
            if accepted is None:
                continue
            value = params[key]
            if isinstance(value, bool) and want != "bool":
                raise ValueError(
                    f"{self.name} job params[{key!r}] wants {want}, "
                    f"got bool")
            if not isinstance(value, accepted):
                raise ValueError(
                    f"{self.name} job params[{key!r}] wants {want}, "
                    f"got {type(value).__name__}")


_JOB_TYPES: Dict[str, JobType] = {}


def register_job_type(
    name: str,
    runner: Callable[..., Dict[str, Any]],
    payload_schema: Optional[Dict[str, Any]] = None,
) -> JobType:
    """Make ``name`` submittable: bind its runner and payload schema.

    Re-registering a name replaces the previous binding (tests swap
    runners in and out); returns the registered :class:`JobType`.
    """
    job_type = JobType(name=name, runner=runner,
                       payload_schema=dict(payload_schema or {}))
    _JOB_TYPES[name] = job_type
    return job_type


def unregister_job_type(name: str) -> JobType:
    """Remove ``name`` from the registry (raises ``KeyError`` if
    absent); returns the removed binding."""
    return _JOB_TYPES.pop(name)


def get_job_type(name: str) -> Optional[JobType]:
    """The registered :class:`JobType`, or ``None``."""
    return _JOB_TYPES.get(name)


def job_type_names() -> List[str]:
    """Registered type names, sorted."""
    return sorted(_JOB_TYPES)


def validate_payload(name: str, params: Dict[str, Any]) -> None:
    """Validate ``params`` against ``name``'s registered schema.

    Unknown types raise the same ``unknown job type`` error the
    submit path raises, with the known names listed.
    """
    job_type = _JOB_TYPES.get(name)
    if job_type is None:
        raise ValueError(f"unknown job type {name!r}; known: "
                         f"{job_type_names()}")
    job_type.validate(params)
