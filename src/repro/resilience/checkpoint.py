"""Crash-safe progress journaling for curation and evaluation runs.

A :class:`Checkpointer` owns a directory of journal entries, one file
per committed unit of work (``journal-000042.ckpt``).  Each entry is a
pickled payload prefixed with its blake2b digest and written via
:func:`~.atomic.atomic_write_bytes`, so a kill at any instant leaves
either a fully verifiable entry or no entry at all — never a torn one.

Runs journal at *batch* granularity: curation commits each batch of
source records per phase, evaluation each batch of ``interval``
problems.  On resume a run replays the contiguous prefix of journaled
batches instead of recomputing them, then continues live from the
first uncommitted batch — which is what makes a killed run
byte-identical to an uninterrupted one.

A journal is bound to a *run signature* (:func:`run_signature`, a
digest of the inputs, the stage list, and any extra parameters such as
seeds).  ``begin()`` with a different signature wipes the stale
journal rather than resuming someone else's run.
"""

from __future__ import annotations

import hashlib
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from .atomic import atomic_write_bytes
from .errors import CheckpointError

PathLike = Union[str, Path]

_DIGEST_SIZE = 16
_SUFFIX = ".ckpt"
_PREFIX = "journal-"

_MEMORY_ADDRESS = re.compile(r" at 0x[0-9a-fA-F]+")


def _stable_blob(value: Any) -> bytes:
    """``value`` as bytes, stable across processes.

    Pickle when possible; unpicklable values (specs holding lambdas,
    local classes) fall back to their ``repr`` with memory addresses
    scrubbed, so the same logical value signs identically in the run
    that wrote the journal and the run that resumes it."""
    try:
        return pickle.dumps(value, protocol=4)
    except Exception:
        return _MEMORY_ADDRESS.sub("", repr(value)).encode("utf-8",
                                                           "replace")


def run_signature(inputs: Iterable[Any], stages: Sequence[str],
                  extra: Any = None) -> str:
    """Digest identifying one logical run: same inputs + same stage
    list + same parameters → same signature, so a journal can only ever
    resume the run that wrote it."""
    digest = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for value in inputs:
        blob = _stable_blob(value)
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    for section, value in (("stages", list(stages)), ("extra", extra)):
        digest.update(f"|{section}|".encode("ascii"))
        digest.update(_stable_blob(value))
    return digest.hexdigest()


@dataclass
class ResumeState:
    """What a journal says already happened.

    ``stages`` maps stage index -> journaled whole-stage payload;
    ``batches`` maps stage index -> batch index -> payload for stages
    that were interrupted mid-flight.
    """

    signature: str = ""
    stages: Dict[int, Any] = field(default_factory=dict)
    batches: Dict[int, Dict[int, Any]] = field(default_factory=dict)
    finished: bool = False
    fresh: bool = True

    def stage_result(self, index: int) -> Optional[Any]:
        return self.stages.get(index)

    def batch_result(self, index: int, batch: int) -> Optional[Any]:
        return self.batches.get(index, {}).get(batch)

    def completed_batches(self, index: int) -> int:
        """Contiguous committed-batch count for one stage (replay stops
        at the first gap — later stray entries are recomputed)."""
        done = self.batches.get(index, {})
        count = 0
        while count in done:
            count += 1
        return count


class Checkpointer:
    """Journal pipeline progress under ``directory``.

    Args:
        directory: journal home; created on first write.  Give each
            run id its own directory (the CLI uses
            ``<checkpoint-root>/<run-id>``).
        interval: records per committed batch in per-record stages.
            Smaller = finer resume granularity, more journal writes.
        durable: fsync entries (and the directory) on commit.  Tests
            that kill processes keep this on; benchmarks may not.
    """

    def __init__(self, directory: PathLike, interval: int = 16,
                 durable: bool = True) -> None:
        if interval < 1:
            raise ValueError("interval must be at least 1")
        self.directory = Path(directory)
        self.interval = interval
        self.durable = durable
        self._seq = 0

    # -- write side -----------------------------------------------------

    def begin(self, signature: str) -> ResumeState:
        """Open the journal for a run with ``signature``.

        Returns the prior run's :class:`ResumeState` when a journal
        with the same signature exists and did not finish; otherwise
        wipes any stale journal and returns a fresh state.
        """
        state = self._load(missing_ok=True)
        if state.fresh or state.finished or state.signature != signature:
            self.clear()
            self._seq = 0
            self._append({"kind": "begin", "signature": signature})
            return ResumeState(signature=signature, fresh=True)
        self._seq = self._next_seq()
        return state

    def record_batch(self, stage_index: int, batch_index: int,
                     stage_name: str, payload: Any) -> None:
        self._append({
            "kind": "batch",
            "stage": stage_index,
            "batch": batch_index,
            "name": stage_name,
            "payload": payload,
        })

    def record_stage(self, stage_index: int, stage_name: str,
                     payload: Any) -> None:
        self._append({
            "kind": "stage",
            "stage": stage_index,
            "name": stage_name,
            "payload": payload,
        })

    def finish(self, payload: Any = None) -> None:
        self._append({"kind": "finish", "payload": payload})

    def prune_unverified(self) -> int:
        """Delete journal files after the verified prefix.

        Replay already stops at the first torn/corrupt entry, so the
        tail is dead weight — worse, new entries appended after it
        would sit beyond the truncation point and never replay.
        Callers that append to a reopened journal (the service job
        queue) prune first so the journal stays contiguous.  Returns
        the number of files removed.
        """
        paths = self._journal_paths()
        verified = sum(1 for _ in self._iter_entries())
        removed = 0
        for path in paths[verified:]:
            path.unlink()
            removed += 1
        if removed:
            self._seq = verified
        return removed

    def clear(self) -> None:
        """Delete every journal entry (and stray tmp files)."""
        if not self.directory.is_dir():
            return
        for path in self.directory.iterdir():
            name = path.name
            if name.startswith(_PREFIX) and (
                    name.endswith(_SUFFIX) or name.endswith(_SUFFIX + ".tmp")):
                path.unlink()
        self._seq = 0

    # -- read side ------------------------------------------------------

    def resume_run(self) -> ResumeState:
        """Load the journal for resumption.

        Raises :class:`CheckpointError` when there is nothing to resume
        — no journal directory, no entries, or a journal whose every
        entry failed verification.
        """
        state = self._load(missing_ok=False)
        if state.fresh:
            raise CheckpointError(
                f"{self.directory}: no resumable journal entries")
        return state

    def entries(self) -> List[Dict[str, Any]]:
        """The verified journal entries, in commit order."""
        return list(self._iter_entries())

    # -- internals ------------------------------------------------------

    def _journal_paths(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(
            p for p in self.directory.iterdir()
            if p.name.startswith(_PREFIX) and p.name.endswith(_SUFFIX))

    def _next_seq(self) -> int:
        paths = self._journal_paths()
        if not paths:
            return 0
        last = paths[-1].name[len(_PREFIX):-len(_SUFFIX)]
        return int(last) + 1

    def _append(self, entry: Dict[str, Any]) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(entry, protocol=4)
        digest = hashlib.blake2b(payload, digest_size=_DIGEST_SIZE).digest()
        path = self.directory / f"{_PREFIX}{self._seq:06d}{_SUFFIX}"
        atomic_write_bytes(path, digest + payload, durable=self.durable)
        self._seq += 1

    def _iter_entries(self) -> Iterable[Dict[str, Any]]:
        for path in self._journal_paths():
            try:
                blob = path.read_bytes()
            except OSError:
                return
            digest, payload = blob[:_DIGEST_SIZE], blob[_DIGEST_SIZE:]
            expect = hashlib.blake2b(
                payload, digest_size=_DIGEST_SIZE).digest()
            if digest != expect:
                # A torn or corrupt entry truncates the journal: every
                # entry after it is untrusted and gets recomputed.
                return
            try:
                yield pickle.loads(payload)
            except Exception:
                return

    def _load(self, missing_ok: bool) -> ResumeState:
        if not self.directory.is_dir():
            if missing_ok:
                return ResumeState()
            raise CheckpointError(f"{self.directory}: no checkpoint journal")
        state = ResumeState()
        for entry in self._iter_entries():
            kind = entry.get("kind")
            if kind == "begin":
                state = ResumeState(signature=entry["signature"], fresh=False)
            elif kind == "batch":
                state.batches.setdefault(
                    entry["stage"], {})[entry["batch"]] = entry["payload"]
            elif kind == "stage":
                state.stages[entry["stage"]] = entry["payload"]
            elif kind == "finish":
                state.finished = True
        return state
