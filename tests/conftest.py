"""Shared test fixtures."""

import tracemalloc

import pytest


@pytest.fixture
def peak_traced_bytes():
    """Call fn() under tracemalloc and return the peak bytes it allocated."""
    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
