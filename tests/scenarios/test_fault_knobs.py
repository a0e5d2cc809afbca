"""The shared ambient-fault knobs (skew_ms / deploy_frac / crash_host)
on the rewired scenarios, and the registry declarations themselves."""

from repro.faults import FAULTS
from repro.scenarios import REGISTRY, run_scenario


class TestFaultDeclarations:
    def test_rewired_scenarios_declare_registry_faults(self):
        expected = {
            "gray-failure": ("silent-drop",),
            "polarization": ("ecmp-polarization",),
            "link-flap": ("link-flap",),
        }
        for name, faults in expected.items():
            assert REGISTRY.get(name).spec.faults == faults

    def test_declared_faults_exist_in_fault_registry(self):
        for spec in (cls.spec for cls in REGISTRY.values()):
            for fault in spec.faults:
                assert fault in FAULTS

    def test_fault_plan_reported_in_measurements(self):
        res = run_scenario("gray-failure", n_flows=2)
        plan = res.measurements["fault_plan"]
        assert len(plan) == 1 and "silent-drop" in plan[0]
        assert "[active]" in plan[0]


class TestClockSkewKnob:
    def test_diagnosis_survives_skew_within_epsilon(self):
        res = run_scenario("gray-failure", n_flows=4, skew_ms=2.0)
        assert res.verdicts
        assert all(v.suspect == "S3" for v in res.verdicts)

    def test_diagnosis_survives_skew_at_the_epsilon_bound(self):
        # offsets span ±skew_ms, so skew_ms=5 means pairwise skew up
        # to 10 ms = α = ε — the largest value the bound still covers
        res = run_scenario("gray-failure", n_flows=4, skew_ms=5.0)
        assert res.verdicts
        assert all(v.suspect == "S3" for v in res.verdicts)

    def test_skew_fault_joins_the_plan(self):
        res = run_scenario("gray-failure", n_flows=2, skew_ms=2.0)
        assert any("clock-skew" in line
                   for line in res.measurements["fault_plan"])


class TestDeployFracKnob:
    def test_diagnosis_survives_partial_deployment_with_spared_fault(self):
        res = run_scenario("gray-failure", n_flows=4, deploy_frac=0.5,
                           deploy_spare="S3")
        assert res.verdicts
        assert all(v.suspect == "S3" for v in res.verdicts)
        stripped = res.measurements["uninstrumented_switches"]
        assert len(stripped) == 2
        assert "S1" not in stripped and "S3" not in stripped

    def test_polarization_diagnoses_with_stripped_spines(self):
        # the branch switch is auto-spared; everything else may go —
        # the census then runs on host-only evidence for the spines
        res = run_scenario("polarization", n_flows=8, deploy_frac=0.25)
        v = res.verdict("ecmp-polarization")
        assert v is not None and v.imbalanced
        assert v.suspect in ("spine0", "spine1")


class TestCrashKnob:
    def test_bystander_crash_keeps_diagnosis(self):
        res = run_scenario("gray-failure", n_flows=2, crash_host="h2_0",
                           crash_at=0.030)
        assert res.verdicts
        assert all(v.suspect == "S3" for v in res.verdicts)

    def test_victim_destination_crash_loses_localization(self):
        # the records the localization needs die with the agent: the
        # verdict degrades to "no spatial cut" instead of a suspect
        res = run_scenario("gray-failure", n_flows=2,
                           crash_host="h4_0", crash_at=0.030)
        assert res.verdicts
        assert all(v.suspect is None for v in res.verdicts)

    def test_crash_then_restart_recovers_post_restart_evidence(self):
        res = run_scenario("gray-failure", n_flows=2,
                           crash_host="h4_1", crash_at=0.010)
        agent = res.deployment.host_agents["h4_1"]
        assert not agent.alive


class TestBackgroundKnobs:
    """Satellite: polarization and link-flap grew bg_* knobs."""

    def test_polarization_with_background_still_flags(self):
        res = run_scenario("polarization", n_flows=8, bg_flows=100)
        v = res.verdict("ecmp-polarization")
        assert v is not None and v.imbalanced
        assert res.measurements["flow_count"] == 108
        assert res.measurements["bg_packets_delivered"] > 0

    def test_polarization_background_avoids_the_branch(self):
        res = run_scenario("polarization", n_flows=8, bg_flows=100)
        # nothing but the 8 parallel connections crossed leaf0
        leaf0 = res.network.switches["leaf0"]
        census = res.verdict("ecmp-polarization").distribution
        assert sum(len(v) for v in census.values()) == 8
        assert leaf0.forwarded > 0

    def test_link_flap_with_background_still_localizes(self):
        res = run_scenario("link-flap", n_flows=8, bg_flows=100)
        v = res.verdict("link-flap")
        assert v is not None and v.suspect == "S1-SPA"
        assert res.measurements["flow_count"] == 109
        assert res.measurements["bg_packets_delivered"] > 0

    def test_link_flap_background_stays_off_the_trunk(self):
        res = run_scenario("link-flap", n_flows=4, bg_flows=50)
        # background endpoints are dedicated tx-side hosts: no
        # background flow appears in the churn census at S1's spines
        v = res.verdict("link-flap")
        assert v is not None and v.suspect == "S1-SPA"
