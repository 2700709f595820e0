"""Shared test configuration.

Registers a ``ci`` hypothesis profile that derandomizes every property test,
and loads it when the ``CI`` environment variable is set (GitHub Actions sets
it), so a property failure in CI reproduces locally with ``CI=1``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
