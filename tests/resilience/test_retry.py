"""RetryPolicy and CircuitBreaker unit tests."""

import pytest

from repro.resilience import (
    BreakerConfig,
    CircuitBreaker,
    NO_RETRY,
    NullBreaker,
    RetryPolicy,
)
from repro.resilience.retry import CLOSED, HALF_OPEN, OPEN


def _sleepless():
    """Collects requested delays instead of sleeping."""
    delays = []
    return delays, delays.append


class TestRetryPolicy:
    def test_succeeds_first_try(self):
        policy = RetryPolicy(max_attempts=3)
        result, attempts = policy.run(lambda: 42, site="s",
                                      sleep=lambda _: None)
        assert (result, attempts) == (42, 1)

    def test_retries_then_succeeds(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        delays, sleep = _sleepless()
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.01, jitter=0.0)
        result, attempts = policy.run(flaky, site="s", sleep=sleep)
        assert (result, attempts) == ("ok", 3)
        assert len(delays) == 2

    def test_exhaustion_reraises_last_exception(self):
        def always():
            raise ValueError("boom")

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        with pytest.raises(ValueError, match="boom"):
            policy.run(always, site="s", sleep=lambda _: None)

    def test_give_up_on_wins_over_retry_on(self):
        policy = RetryPolicy(max_attempts=5, retry_on=(Exception,),
                             give_up_on=(KeyError,))
        assert policy.classify(KeyError("k")) == "fatal"
        assert policy.classify(RuntimeError("r")) == "retry"
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise KeyError("k")

        with pytest.raises(KeyError):
            policy.run(fatal, site="s", sleep=lambda _: None)
        assert calls["n"] == 1  # no retries for a fatal class

    def test_non_retryable_class_is_fatal(self):
        policy = RetryPolicy(retry_on=(OSError,))
        assert policy.classify(ValueError("v")) == "fatal"

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=0.3, jitter=0.0)
        assert policy.delay_s("s", 1) == pytest.approx(0.1)
        assert policy.delay_s("s", 2) == pytest.approx(0.2)
        assert policy.delay_s("s", 3) == pytest.approx(0.3)  # capped
        assert policy.delay_s("s", 9) == pytest.approx(0.3)

    def test_jitter_is_deterministic_per_seed_and_site(self):
        a = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=1)
        b = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=1)
        c = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=2)
        assert a.delay_s("site", 1) == b.delay_s("site", 1)
        assert a.delay_s("site", 1) != c.delay_s("site", 1)
        assert a.delay_s("site", 1) != a.delay_s("other", 1)
        # Jitter only ever shortens the nominal delay.
        assert 0.5 <= a.delay_s("site", 1) <= 1.0

    def test_with_override(self):
        policy = RetryPolicy(max_attempts=3)
        bumped = policy.with_(max_attempts=7)
        assert bumped.max_attempts == 7
        assert policy.max_attempts == 3  # frozen original untouched

    def test_no_retry_constant(self):
        calls = {"n": 0}

        def once():
            calls["n"] += 1
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            NO_RETRY.run(once, site="s", sleep=lambda _: None)
        assert calls["n"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker("s", BreakerConfig())
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_at_threshold(self):
        trips = []
        breaker = CircuitBreaker(
            "s", BreakerConfig(trip_threshold=3, cooldown_attempts=2),
            on_trip=lambda b: trips.append(b.site))
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert trips == ["s"]
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker("s", BreakerConfig(trip_threshold=3))
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_cooldown_measured_in_attempts(self):
        config = BreakerConfig(trip_threshold=1, cooldown_attempts=3)
        breaker = CircuitBreaker("s", config)
        breaker.record_failure()
        assert breaker.state == OPEN
        # Rejected attempts count toward the cooldown; the attempt that
        # crosses it probes in half-open.
        rejected = 0
        while not breaker.allow():
            rejected += 1
            assert rejected <= 10
        assert breaker.state == HALF_OPEN

    def test_half_open_success_closes(self):
        config = BreakerConfig(trip_threshold=1, cooldown_attempts=1,
                               half_open_successes=1)
        breaker = CircuitBreaker("s", config)
        breaker.record_failure()
        while not breaker.allow():
            pass
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_retrips(self):
        config = BreakerConfig(trip_threshold=1, cooldown_attempts=1)
        breaker = CircuitBreaker("s", config)
        breaker.record_failure()
        while not breaker.allow():
            pass
        assert breaker.state == HALF_OPEN
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_snapshot(self):
        breaker = CircuitBreaker("site-x", BreakerConfig(trip_threshold=2))
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap["site"] == "site-x"
        assert snap["state"] == CLOSED
        assert snap["consecutive_failures"] == 1

    def test_null_breaker_never_trips(self):
        breaker = NullBreaker("s")
        for _ in range(100):
            breaker.record_failure()
        assert breaker.allow()
        assert breaker.state == CLOSED

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(trip_threshold=0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_attempts=0)
