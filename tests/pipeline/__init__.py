"""Tests for the execution primitives: executor, caches, traces."""
