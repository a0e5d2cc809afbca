"""Tests for the scenario registry and the four-phase protocol."""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.scenarios import (REGISTRY, Knob, Scenario, ScenarioError,
                             ScenarioSpec, run_scenario)


def _spec(name, aliases=()):
    return ScenarioSpec(name=name, summary="s", paper_ref="p",
                        expected_diagnosis="d", aliases=aliases)


class _Dummy(Scenario):
    spec = _spec("dummy")

    def build(self):
        pass

    def run(self):
        pass

    def collect(self):
        return {}

    def diagnose(self):
        return []


class TestRegistration:
    @pytest.fixture
    def reg(self, empty_like):
        return empty_like(REGISTRY)

    def test_duplicate_name_rejected(self, reg):
        reg.register(_Dummy)
        clone = type("Clone", (_Dummy,), {"spec": _spec("dummy")})
        with pytest.raises(ScenarioError, match="duplicate"):
            reg.register(clone)

    def test_alias_colliding_with_name_rejected(self, reg):
        reg.register(_Dummy)
        other = type("Other", (_Dummy,),
                     {"spec": _spec("other", aliases=("dummy",))})
        with pytest.raises(ScenarioError, match="duplicate"):
            reg.register(other)

    def test_duplicate_alias_rejected(self, reg):
        a = type("A", (_Dummy,), {"spec": _spec("a", aliases=("x",))})
        b = type("B", (_Dummy,), {"spec": _spec("b", aliases=("x",))})
        reg.register(a)
        with pytest.raises(ScenarioError, match="duplicate"):
            reg.register(b)

    def test_class_without_spec_rejected(self, reg):
        with pytest.raises(ScenarioError, match="ScenarioSpec"):
            reg.register(type("NoSpec", (), {}))

    def test_smoke_knob_naming_undeclared_knob_rejected(self, reg):
        spec = ScenarioSpec(name="sk", summary="s", paper_ref="p",
                            expected_diagnosis="d",
                            knobs={"flows": Knob(1, "flow count")},
                            smoke_knobs={"flowz": 2})
        bad = type("Bad", (_Dummy,), {"spec": spec})
        with pytest.raises(ScenarioError,
                           match=r"unknown knob\(s\) for 'sk': "
                                 r"\['flowz'\]"):
            reg.register(bad)

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            REGISTRY.get("no-such-scenario")

    def test_alias_resolution(self):
        for alias, name in (("fig2a", "contention"), ("fig2b", "microburst"),
                            ("fig3", "red-lights"), ("fig4", "cascades"),
                            ("fig7", "contention"),
                            ("fig8", "load-imbalance")):
            assert REGISTRY.get(alias).spec.name == name
            assert alias in REGISTRY

    def test_registry_has_at_least_eight_scenarios(self):
        assert len(REGISTRY) >= 8
        for new in ("incast", "gray-failure", "polarization", "link-flap"):
            assert new in REGISTRY


#: every (scenario, knob) that declares a ``minimum``
BOUNDED_KNOBS = [
    (name, knob) for name in REGISTRY.names()
    for knob, spec in REGISTRY.get(name).spec.knobs.items()
    if spec.minimum is not None]


class TestScenarioProtocol:
    def test_unknown_knob_rejected(self):
        cls = REGISTRY.get("gray-failure")
        with pytest.raises(ScenarioError, match="unknown knob"):
            cls(no_such_knob=1)

    def test_knob_defaults_and_overrides(self):
        cls = REGISTRY.get("gray-failure")
        sc = cls(fault_switch="S2")
        assert sc.p["fault_switch"] == "S2"
        assert sc.p["n_flows"] == cls.spec.knobs["n_flows"].default

    @pytest.mark.parametrize("name, knob", BOUNDED_KNOBS)
    def test_knob_below_its_minimum_is_rejected(self, name, knob):
        cls = REGISTRY.get(name)
        low = cls.spec.knobs[knob].minimum - 1
        with pytest.raises(ScenarioError) as err:
            cls(**{knob: low})
        assert str(err.value) == (f"knob {knob!r} of {name!r} must be "
                                  f">= {low + 1:g}, got {low!r}")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name, knob", BOUNDED_KNOBS)
    def test_non_finite_bounded_knob_is_rejected(self, name, knob, value):
        # NaN compares False with everything, so `value < minimum`
        # used to let it through
        cls = REGISTRY.get(name)
        minimum = cls.spec.knobs[knob].minimum
        with pytest.raises(ScenarioError) as err:
            cls(**{knob: value})
        assert str(err.value) == (f"knob {knob!r} of {name!r} must be a "
                                  f"finite number >= {minimum:g}, "
                                  f"got {value!r}")

    @pytest.mark.parametrize("knob, minimum", [("bg_flows", 0),
                                               ("bg_flow_kb", 1)])
    def test_background_knobs_declare_their_minimum(self, knob, minimum):
        for name in ("incast", "polarization", "link-flap",
                     "gray-failure"):
            assert (name, knob) in BOUNDED_KNOBS
            assert REGISTRY.get(name).spec.knobs[knob].minimum == minimum

    @pytest.mark.parametrize("name, knob", BOUNDED_KNOBS)
    def test_knob_at_its_minimum_is_accepted(self, name, knob):
        cls = REGISTRY.get(name)
        spec = cls.spec.knobs[knob]
        assert spec.default >= spec.minimum
        assert cls(**{knob: spec.minimum}).p[knob] == spec.minimum

    def test_build_must_set_network_and_deployment(self):
        with pytest.raises(ScenarioError, match="must set"):
            _Dummy().execute()

    def test_specs_are_well_formed(self):
        for spec in (cls.spec for cls in REGISTRY.values()):
            assert spec.name and spec.summary and spec.paper_ref
            assert spec.expected_diagnosis
            for knob_name, knob in spec.knobs.items():
                assert isinstance(knob, Knob), (spec.name, knob_name)
                assert knob.help
            unknown_smoke = set(spec.smoke_knobs) - set(spec.knobs)
            assert not unknown_smoke, (spec.name, unknown_smoke)


@pytest.mark.parametrize("entry", [
    pytest.param("repro.scenarios", id="scenarios"),
    pytest.param("repro.cli", id="cli")])
@pytest.mark.parametrize("package", ["numpy", "networkx"])
def test_importing_the_scenarios_does_not_import_numpy(package, entry):
    """The runtime is pure standard library: numpy and networkx are
    test-time dependencies only, and each costs a third of the import
    (and ~14 MB of every process) when it sneaks back in."""
    src = Path(__file__).resolve().parents[2] / "src"
    subprocess.run(
        [sys.executable, "-c",
         f"import {entry}, sys; assert {package!r} not in sys.modules"],
        check=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120)


class TestRoundTrips:
    """Every registered scenario must complete all four phases quickly
    and produce a verdict (the acceptance bar for new plugins)."""

    @pytest.mark.parametrize("name, knobs", [
        *(pytest.param(name, REGISTRY.get(name).spec.smoke_knobs, id=name)
          for name in REGISTRY.names()),
        # the ambient-fault shapes: skew, partial deployment, a crashed
        # agent, a slow control network
        pytest.param("gray-failure", {"n_flows": 2, "skew_ms": 2.0},
                     id="gray-failure-skew"),
        pytest.param("gray-failure", {"n_flows": 4, "deploy_frac": 0.5},
                     id="gray-failure-deploy-frac"),
        pytest.param("gray-failure", {"n_flows": 2, "crash_host": "h2_0",
                                      "crash_at": 0.03},
                     id="gray-failure-crash"),
        pytest.param("gray-failure", {"n_flows": 2, "rpc_latency_ms": 2.0},
                     id="gray-failure-rpc-latency"),
    ])
    def test_round_trip(self, name, knobs):
        gc.collect()
        result = run_scenario(name, **knobs)
        # a run makes no garbage cycles — what Scenario.execute's GC
        # pause relies on: with the result held, nothing is unreachable
        assert gc.collect() == 0
        assert set(result.timings) == {"build", "run", "collect",
                                       "diagnose"}
        assert result.sim_time > 0
        assert result.network is not None
        assert result.deployment is not None
        assert result.switch_stats  # one entry per switch
        assert result.verdicts, f"{name} produced no verdict"
        for v in result.verdicts:
            assert v.narrative

    def test_run_scenario_via_alias(self):
        spec = REGISTRY.get("contention").spec
        result = run_scenario("fig2a", **spec.smoke_knobs)
        assert result.name == "contention"

    @pytest.mark.parametrize("name", REGISTRY.names())
    def test_summary_reports_debugging_time(self, name):
        """The Fig 7 / Fig 8 y-axes print for every scenario's verdicts."""
        spec = REGISTRY.get(name).spec
        result = run_scenario(name, **spec.smoke_knobs)
        text = "\n".join(result.summary_lines())
        assert result.verdicts
        for v in result.verdicts:
            assert (f"debugging time (model): {v.total_time_s * 1e3:.1f} "
                    f"ms; hosts consulted: {len(v.hosts_consulted)}"
                    ) in text

    def test_summary_lines_render(self):
        spec = REGISTRY.get("gray-failure").spec
        result = run_scenario("gray-failure", **spec.smoke_knobs)
        text = "\n".join(result.summary_lines())
        assert "scenario: gray-failure" in text
        assert "diagnosis (gray-failure)" in text
        # every verdict line is followed by the Fig 7 / Fig 8 y-axes
        for v in result.verdicts:
            assert (f"debugging time (model): {v.total_time_s * 1e3:.1f} "
                    f"ms; hosts consulted: {len(v.hosts_consulted)}"
                    ) in text
