"""Docs health: the generated catalogue is in sync with the registry,
and intra-repo markdown links resolve (same checks CI's docs job runs)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiment import EXPERIMENTS
from repro.experiment.catalog import experiments_markdown
from repro.faults import FAULTS, faults_markdown
from repro.scenarios import REGISTRY, catalog_markdown
from tools import gen_docs

REPO = Path(__file__).resolve().parent.parent


class TestScenarioCatalog:
    def test_scenarios_md_matches_registry(self):
        """docs/SCENARIOS.md must be regenerated when the registry
        changes (python tools/gen_docs.py scenarios)."""
        page = (REPO / "docs" / "SCENARIOS.md").read_text(encoding="utf-8")
        assert page == catalog_markdown()

    def test_every_scenario_documented(self):
        page = (REPO / "docs" / "SCENARIOS.md").read_text(encoding="utf-8")
        for spec in (cls.spec for cls in REGISTRY.values()):
            assert f"## `{spec.name}`" in page
            assert spec.summary in page
            for knob in spec.knobs:
                assert f"`{knob}`" in page


class TestFaultCatalog:
    def test_faults_md_matches_registry(self):
        """docs/FAULTS.md must be regenerated when the fault registry
        changes (python tools/gen_docs.py faults)."""
        page = (REPO / "docs" / "FAULTS.md").read_text(encoding="utf-8")
        assert page == faults_markdown()

    def test_every_fault_documented(self):
        page = (REPO / "docs" / "FAULTS.md").read_text(encoding="utf-8")
        for spec in (cls.spec for cls in FAULTS.values()):
            assert f"## `{spec.name}`" in page
            assert spec.summary in page
            for param in spec.params:
                assert f"`{param}`" in page

    def test_page_documents_protocol_and_shared_params(self):
        page = (REPO / "docs" / "FAULTS.md").read_text(encoding="utf-8")
        assert "schedule → inject → heal → describe" in page
        assert "`start`" in page and "`stop`" in page
        assert "faults list" in page
        assert "FaultPlan" in page

    def test_readme_links_faults_doc(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/FAULTS.md" in readme

    def test_architecture_covers_the_fault_layer(self):
        arch = (REPO / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        for anchor in ("repro/faults", "FaultPlan", "FAULTS.md",
                       "pending → active → healed"):
            assert anchor in arch

    def test_scenarios_page_names_declared_faults(self):
        page = (REPO / "docs" / "SCENARIOS.md").read_text(
            encoding="utf-8")
        assert "Injects (fault registry" in page


class TestExperimentCatalog:
    def test_experiments_md_matches_registry(self):
        """docs/EXPERIMENTS.md must be regenerated when the experiment
        registry changes (python tools/gen_docs.py experiments)."""
        page = (REPO / "docs" / "EXPERIMENTS.md").read_text(
            encoding="utf-8")
        assert page == experiments_markdown()

    def test_every_experiment_documented(self):
        page = (REPO / "docs" / "EXPERIMENTS.md").read_text(
            encoding="utf-8")
        for spec in EXPERIMENTS.values():
            assert f"## `{spec.name}`" in page
            assert spec.summary in page
            for knob in spec.grid:
                assert f"`{knob}`" in page

    def test_page_documents_grids_and_nightly_grids(self):
        page = (REPO / "docs" / "EXPERIMENTS.md").read_text(
            encoding="utf-8")
        assert "| knob | grid | nightly grid |" in page
        for spec in EXPERIMENTS.values():
            for grid in (spec.grid, spec.nightly_grid):
                for values in grid.values():
                    assert ",".join(str(v) for v in values) in page
        # the traffic knob and its per-run report fields
        assert "`bg_flows`" in page
        assert "`flow_count`" in page
        assert "`ingest_records_per_s`" in page
        assert "WORKLOADS.md" in page
        # the combined top-end point and its wall-time budget note
        assert "`hosts=4096 bg_flows=2000`" in page
        assert "**Wall-time budget:**" in page

    def test_page_documents_one_repetition_sweeps_and_grading(self):
        """A scale sweep is the one-repetition run table, in the same
        artifact directory, graded on every run unless it charts a
        figure."""
        page = (REPO / "docs" / "EXPERIMENTS.md").read_text(
            encoding="utf-8")
        assert "one repetition" in page
        assert "`results/experiments/<name>/`" in page
        assert "**every** run diagnosed correctly" in page
        assert "run *errored*" in page

    def test_page_documents_the_run_table_contract(self):
        page = (REPO / "docs" / "EXPERIMENTS.md").read_text(
            encoding="utf-8")
        assert "experiment nightly" in page
        assert "byte-identical" in page
        assert "manifest.json" in page
        assert "pending" in page
        assert "switchpointer.experiment-report/v3" in page

    def test_committed_figures_match_committed_reports(self):
        """results/figures/*.svg must be regenerated when a committed
        report changes (python tools/plot_experiments.py)."""
        proc = subprocess.run(
            [sys.executable,
             str(REPO / "tools" / "plot_experiments.py"), "--check"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_every_figure_spec_has_a_committed_figure(self):
        for spec in EXPERIMENTS.values():
            if spec.figure is None:
                continue
            path = REPO / "results" / "figures" / f"{spec.name}.svg"
            assert path.exists(), path
            svg = path.read_text(encoding="utf-8")
            assert spec.figure.title in svg

    def test_linked_from_readme_and_architecture(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/EXPERIMENTS.md" in readme
        arch = (REPO / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        assert "EXPERIMENTS.md" in arch


class TestWorkloadsPage:
    def test_exists_and_covers_the_model(self):
        page = (REPO / "docs" / "WORKLOADS.md").read_text(
            encoding="utf-8")
        for anchor in ("WorkloadSpec", "zipf", "bounded-Pareto",
                       "bg_flows", "BackgroundTraffic", "plan_per_flow",
                       "flows="):
            assert anchor in page

    def test_linked_from_readme_and_architecture(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/WORKLOADS.md" in readme
        arch = (REPO / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        assert "WORKLOADS.md" in arch


class TestDiagnosisPage:
    README_KNOBS = {"rpc_latency_ms": 2, "overrun_ms": 250, "n_flows": 2,
                    "crash_host": "h4_0", "crash_at": 0.1}

    def test_exists_and_covers_the_model(self):
        page = (REPO / "docs" / "DIAGNOSIS.md").read_text(encoding="utf-8")
        for anchor in ("DiagnosisSession", "since_seq", "complete",
                       "degraded", "stale", "missing_hosts",
                       "diagnosis_latency_sim", "freshness",
                       "timeout_retry_cost", "rpc_latency_ms",
                       "stale_after_ms", "overrun_ms",
                       "active-during-diagnosis", "with_extra",
                       "rpc-latency-degradation"):
            assert anchor in page

    def test_linked_from_readme_architecture_and_catalog(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/DIAGNOSIS.md" in readme
        arch = (REPO / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        assert "DIAGNOSIS.md" in arch
        scenarios = (REPO / "docs" / "SCENARIOS.md").read_text(
            encoding="utf-8")
        assert "DIAGNOSIS.md" in scenarios

    def test_readme_example_knobs_are_verbatim(self):
        """The README online-diagnosis example must carry exactly the
        knobs the sync test below executes."""
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        for knob, value in self.README_KNOBS.items():
            assert f"--knob {knob}={value}" in readme
        assert "--knob rpc_latency_ms=0" in readme

    def test_readme_example_output_is_real(self):
        """Executing the README example reproduces the output it
        claims: degraded + missing h4_0 + suspect S3 at 2 ms of extra
        RPC latency, complete at 0 ms."""
        cls = REGISTRY.get("gray-failure")

        degraded = cls(**self.README_KNOBS).execute()
        summary = "\n".join(degraded.summary_lines())
        assert "[degraded missing_hosts=h4_0]" in summary
        assert "[suspect: S3]" in summary

        knobs = dict(self.README_KNOBS, rpc_latency_ms=0)
        complete = cls(**knobs).execute()
        assert all(v.status == "complete" for v in complete.verdicts)
        assert any(v.suspect == "S3" for v in complete.verdicts)


class TestRetiredBaselineGate:
    def test_no_source_or_doc_points_at_the_retired_gate(self):
        """The absolute-time baseline gate, its env knob, its page and
        the linear reference scan it kept in ``src/`` are gone; the scan
        lives in ``tests/hostd/eager_records.py``."""
        retired = ("BENCH_REGRESSION_FACTOR", "benchmarks/baselines",
                   "BENCHMARKS.md", "linear_flows_through")
        files = [REPO / "README.md", REPO / "docs" / "ARCHITECTURE.md"]
        for top in ("src", "tools", ".github"):
            files += [p for p in (REPO / top).rglob("*") if p.is_file()
                      and "__pycache__" not in p.parts]
        hits = [f"{path.relative_to(REPO)}: {word}" for path in files
                for word in retired
                if word in path.read_text(encoding="utf-8", errors="ignore")]
        assert hits == []
        assert not (REPO / "docs" / "BENCHMARKS.md").exists()
        assert not (REPO / "benchmarks" / "baselines").exists()


class TestLintingPage:
    def test_linting_md_matches_rule_registry(self):
        """docs/LINTING.md must be regenerated when the rule registry
        changes (python tools/gen_docs.py lint)."""
        from tools.reprolint.catalog import rules_markdown

        page = (REPO / "docs" / "LINTING.md").read_text(encoding="utf-8")
        assert page == rules_markdown()

    def test_every_rule_documented(self):
        from tools.reprolint import RULES
        from tools.reprolint import rules  # noqa: F401

        page = (REPO / "docs" / "LINTING.md").read_text(encoding="utf-8")
        for spec in RULES.specs():
            assert f"### `{spec.name}`" in page
            assert spec.summary in page

    def test_linked_from_readme_and_architecture(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/LINTING.md" in readme
        arch = (REPO / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        assert "LINTING.md" in arch


class TestDocsDriver:
    def test_check_docs_runs_clean(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_docs.py")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_driver_covers_every_generator(self):
        """A new gen_*docs.py script must join the driver registry."""
        sys.path.insert(0, str(REPO))
        try:
            from tools.check_docs import CHECKS
        finally:
            sys.path.pop(0)
        driven = {args[0] for _, args in CHECKS}
        generators = {
            f"tools/{p.name}" for p in (REPO / "tools").glob("gen_*docs.py")
        }
        assert generators <= driven
        assert "tools/check_links.py" in driven


class TestDocGenerator:
    @pytest.mark.parametrize("catalogue", list(gen_docs.CATALOGUES))
    def test_check_mode_passes(self, catalogue):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "gen_docs.py"), "--check",
             catalogue],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_check_mode_names_every_stale_page(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setattr(gen_docs, "REPO", tmp_path)
        assert gen_docs.main(["--check"]) == 1
        err = capsys.readouterr().err
        for page, _ in gen_docs.CATALOGUES.values():
            assert page in err


class TestArchitecturePage:
    def test_exists_and_mentions_layers(self):
        page = (REPO / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8")
        for anchor in ("switchd", "hostd", "analyzer", "scenario registry",
                       "src/repro/scenarios/"):
            assert anchor in page

    def test_readme_links_both_docs(self):
        readme = (REPO / "README.md").read_text(encoding="utf-8")
        assert "docs/ARCHITECTURE.md" in readme
        assert "docs/SCENARIOS.md" in readme


class TestLinkChecker:
    def test_intra_repo_links_resolve(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_links.py")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_checker_catches_broken_link(self, tmp_path):
        bad = tmp_path / "bad.md"
        bad.write_text("see [missing](no/such/file.md)", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "check_links.py"),
             str(bad)],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "no/such/file.md" in proc.stdout
