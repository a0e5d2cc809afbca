"""Fault registry contract: contents, validation, and param handling."""

import pytest

from repro.faults import FAULTS, Fault, FaultError, FaultParam, FaultSpec


class TestRegistryContents:
    def test_at_least_six_faults_registered(self):
        # the CLI `faults list` acceptance bar rides on this
        assert len(FAULTS) >= 6

    def test_expected_faults_present(self):
        for name in ("link-down", "link-flap", "silent-drop",
                     "ecmp-polarization", "clock-skew",
                     "partial-deployment", "agent-crash"):
            assert name in FAULTS

    def test_names_sorted_and_specs_match(self):
        names = FAULTS.names()
        assert names == sorted(names)
        assert [cls.spec.name for cls in FAULTS.values()] == names

    def test_unknown_fault_rejected_with_known_list(self):
        with pytest.raises(FaultError, match="known:.*silent-drop"):
            FAULTS.get("bit-rot")

    def test_get_returns_an_instantiable_fault(self):
        fault = FAULTS.get("silent-drop")(switch="S1")
        assert fault.spec.name == "silent-drop"
        assert fault.p["switch"] == "S1"


class TestRegistryValidation:
    @pytest.fixture
    def reg(self, empty_like):
        return empty_like(FAULTS)

    def test_duplicate_name_rejected(self, reg):

        class F(Fault):
            spec = FaultSpec(name="f", summary="s", degrades="d",
                             diagnosed_by="n")

            def inject(self, ctx):
                pass

            def heal(self, ctx):
                pass

        reg.register(F)
        with pytest.raises(FaultError, match="duplicate"):
            reg.register(F)

    def test_missing_spec_rejected(self, reg):

        class Bare(Fault):
            def inject(self, ctx):
                pass

            def heal(self, ctx):
                pass

        with pytest.raises(FaultError, match="FaultSpec"):
            reg.register(Bare)

    def test_shared_param_shadowing_rejected(self, reg):

        class Shadow(Fault):
            spec = FaultSpec(name="shadow", summary="s", degrades="d",
                             diagnosed_by="n",
                             params={"start": FaultParam(1.0, "clash")})

            def inject(self, ctx):
                pass

            def heal(self, ctx):
                pass

        with pytest.raises(FaultError, match="redeclares"):
            reg.register(Shadow)


class TestParamHandling:
    def test_unknown_param_rejected(self):
        with pytest.raises(FaultError, match="unknown param"):
            FAULTS.get("silent-drop")(switch="S1", wobble=3)

    def test_defaults_and_overrides_resolve(self):
        fault = FAULTS.get("link-flap")(a="S1", b="SPA",
                                        start=0.01, stop=0.05)
        assert fault.p["down_for"] == 0.006        # default
        assert fault.p["start"] == 0.01
        assert fault.p["stop"] == 0.05

    def test_negative_start_rejected(self):
        with pytest.raises(FaultError, match="start"):
            FAULTS.get("silent-drop")(switch="S1", start=-0.1)

    def test_heal_before_inject_rejected_at_construction(self):
        with pytest.raises(FaultError, match="cannot heal before"):
            FAULTS.get("silent-drop")(switch="S1",
                                      start=0.02, stop=0.01)

    def test_heal_at_inject_instant_rejected(self):
        with pytest.raises(FaultError, match="cannot heal before"):
            FAULTS.get("link-down")(a="S1", b="S2",
                                    start=0.02, stop=0.02)

    def test_describe_names_fault_params_and_state(self):
        fault = FAULTS.get("silent-drop")(switch="S3", start=0.02)
        text = fault.describe()
        assert "silent-drop" in text
        assert "switch=S3" in text
        assert "[pending]" in text
