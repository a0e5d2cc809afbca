"""Shared test configuration.

Hypothesis runs derandomized so the property suite is reproducible —
every run explores the same example sequence, and a failure in CI is a
failure locally.
"""

import pytest
from hypothesis import HealthCheck, settings

from repro.registry import Registry

settings.register_profile(
    "repro",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def empty_like():
    """An empty registry with another's kind, error, keys and check, so
    a registration test leaves the process-wide registries alone."""

    def make(registry):
        return Registry(registry.kind, registry.error, registry.keys_of,
                        check=registry.check)

    return make
