"""Shielded executor behaviour: retry + quarantine in every mode.

The satellite case: a worker in **process** mode raising an exception
that cannot survive the pickle round trip must surface as a clean
:class:`Quarantined` dead-letter entry — never as a cryptic
``BrokenProcessPool``.
"""

import pickle

import pytest

from repro.pipeline import ParallelExecutor
from repro.resilience import Quarantined, Resilience, RetryPolicy

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0)


class UnpicklableError(Exception):
    """Pickles, but cannot be *unpickled*: reconstruction calls
    ``UnpicklableError(msg)`` and misses the second argument — the shape
    that turns a naive process-pool result fetch into BrokenProcessPool."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def poison(value):
    """Module-level (process-picklable) stage fn with one bad record."""
    if value == 3:
        raise UnpicklableError("E42", "poisoned record")
    return value * 2


def shielded(mode, **kwargs):
    """An executor, its runtime, and a map behind the runtime's shield:
    wrap the function, map it, settle the results in the parent."""
    executor = ParallelExecutor(mode=mode, **kwargs)
    res = Resilience(retry=FAST_RETRY)
    shield = res.shield("stage.poison", mode=executor.mode)

    def guarded_map(fn, items):
        return shield.settle(executor.map(shield.wrap(fn), items))

    return executor, res, guarded_map


@pytest.mark.parametrize("mode", ["serial", "thread", "process"])
class TestQuarantineAcrossModes:
    def test_poisoned_record_is_quarantined_not_fatal(self, mode):
        _, res, guarded_map = shielded(mode, max_workers=2, chunk_size=2)
        results = guarded_map(poison, list(range(6)))

        assert len(results) == 6
        marker = results[3]
        assert isinstance(marker, Quarantined)
        assert marker.error_type == "UnpicklableError"
        assert "poisoned record" in marker.error
        assert marker.attempts == FAST_RETRY.max_attempts
        # Healthy records are untouched, in order.
        clean = [r for i, r in enumerate(results) if i != 3]
        assert clean == [0, 2, 4, 8, 10]

    def test_dead_letter_has_the_details(self, mode):
        _, res, guarded_map = shielded(mode, max_workers=2, chunk_size=2)
        guarded_map(poison, list(range(6)))

        assert res.total_quarantined == 1
        assert res.quarantined_for("stage.poison") == 1
        assert len(res.dead_letter) == 1
        entry = res.dead_letter.entries[0]
        assert entry["site"] == "stage.poison"
        assert entry["error_type"] == "UnpicklableError"
        assert entry["value_repr"] == "3"


class TestProcessModeSpecifics:
    def test_the_exception_really_is_unpicklable(self):
        """The premise of the satellite: this exception shape breaks a
        bare process pool's result channel."""
        exc = UnpicklableError("E42", "poisoned record")
        blob = pickle.dumps(exc)
        with pytest.raises(Exception):
            pickle.loads(blob)

    def test_process_pool_survives_unpicklable_exception(self):
        executor, res, guarded_map = shielded("process", max_workers=2,
                                              chunk_size=3)
        results = guarded_map(poison, list(range(8)))

        # The guard converted the failure in the worker, so the pool's
        # result channel only ever carried plain picklable markers.
        assert isinstance(results[3], Quarantined)
        assert res.total_quarantined == 1
        assert not executor.fell_back

    def test_retry_counting_crosses_the_pool_boundary(self):
        # flaky_once fails on its first call per worker invocation; the
        # in-worker retry absorbs it and the parent still sees the tally.
        _, res, guarded_map = shielded("process", max_workers=2,
                                       chunk_size=4)
        results = guarded_map(flaky_by_value, [1, 2, 3, 4])
        assert results == [1, 2, 3, 4]
        assert res.total_quarantined == 0
        assert res.retries_for("stage.poison") == 1


def flaky_by_value(value):
    """Deterministically fails once for value 2 — stateless, so it
    behaves identically in any worker process."""
    if value == 2 and not getattr(flaky_by_value, "_tripped", False):
        flaky_by_value._tripped = True
        raise RuntimeError("transient wobble")
    return value
