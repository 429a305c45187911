"""Typed failures of the resilience runtime."""

from __future__ import annotations


class ResilienceError(Exception):
    """Base class for every resilience-runtime failure."""


class CircuitOpenError(ResilienceError):
    """A call was rejected because its circuit breaker is open."""

    def __init__(self, site: str) -> None:
        self.site = site
        super().__init__(f"circuit open for {site!r}")


class CheckpointError(ResilienceError):
    """The checkpoint journal is missing, mismatched, or unreadable."""
