"""Shared test configuration.

Registers a ``ci`` hypothesis profile that derandomizes every property test,
and loads it when the ``CI`` environment variable is set (GitHub Actions sets
it), so a property failure in CI reproduces locally with ``CI=1``.  The
``traced_peak`` fixture measures allocation peaks.
"""

import os
import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def traced_peak():
    """A function giving the tracemalloc peak, in bytes, of ``call()``."""
    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
