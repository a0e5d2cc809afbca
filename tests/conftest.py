"""Shared test configuration.

Hypothesis runs derandomized so the property suite is reproducible —
every run explores the same example sequence, and a failure in CI is a
failure locally.
"""

import pytest
from hypothesis import HealthCheck, settings

from repro.registry import Registry
from repro.scenarios import run_scenario

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


@pytest.fixture(scope="session")
def scenario_of():
    """``scenario_of(name, **knobs)``: run a registered scenario without
    its own diagnosis and return the executed scenario, for tests that
    read its probes or call a ``diagnose_*`` app themselves."""

    def run(name, **knobs):
        return run_scenario(name, with_diagnosis=False, **knobs).scenario

    return run


@pytest.fixture
def run_artifacts():
    """``run_artifacts(out_dir)``: the run documents of an artifact
    directory, in table order."""
    import json

    def read(out_dir):
        return [json.loads(path.read_text(encoding="utf-8"))
                for path in sorted((out_dir / "runs").glob("point*.json"))]

    return read


@pytest.fixture
def flush_all_tops():
    """``flush_all_tops(deploy)``: force-push every switch's top-level
    pointer, as an end-of-run push would."""

    def flush(deploy):
        for dp in deploy.datapaths.values():
            dp.store.flush_top()

    return flush
