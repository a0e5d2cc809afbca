"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import build_parser, main
from repro.faults import FAULTS
from repro.scenarios import REGISTRY


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig2a", "fig3", "fig8", "sizing"):
            assert fig in out

    def test_list_matches_registry(self, capsys):
        """Every registered scenario (and its aliases) appears in
        `list` — the CLI is registry-driven, no hand-kept tables."""
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert len(REGISTRY) >= 8
        for spec in (cls.spec for cls in REGISTRY.values()):
            assert spec.name in out
            for alias in spec.aliases:
                assert alias in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestDirectoryCommand:
    def test_directory_list_matches_registry(self, capsys):
        from repro.directory import DIRECTORIES

        assert main(["directory", "list"]) == 0
        out = capsys.readouterr().out
        assert set(DIRECTORIES.names()) >= {"exact", "bloom", "lsh"}
        for backend in DIRECTORIES.values():
            assert backend.name in out
            assert backend.summary.split("(")[0].strip()[:40] in out
        assert "'exact'" in out  # what "auto" resolves to

    def test_directory_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["directory"])


class TestFaultsCommand:
    def test_faults_list_shows_at_least_six_faults(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert len(FAULTS) >= 6
        for spec in (cls.spec for cls in FAULTS.values()):
            assert spec.name in out
        assert f"{len(FAULTS)} fault(s) registered" in out

    def test_faults_list_matches_registry_summaries(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for spec in (cls.spec for cls in FAULTS.values()):
            assert spec.summary.split("(")[0].strip()[:40] in out

    def test_faults_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])

    def test_run_multi_fault_scenario(self, capsys):
        assert main(["run", "multi-fault",
                     "--knob", "faults=silent-drop+link-flap",
                     "--knob", "slot_flows=4"]) == 0
        out = capsys.readouterr().out
        assert "diagnosis (multi-fault)" in out
        assert "attributed independently" in out


class TestRunCommand:
    def test_run_by_name(self, capsys):
        assert main(["run", "gray-failure", "--knob", "n_flows=2"]) == 0
        out = capsys.readouterr().out
        assert "scenario: gray-failure" in out
        assert "diagnosis (gray-failure) [suspect: S3]" in out

    def test_run_by_alias_with_knobs(self, capsys):
        assert main(["run", "fig8", "--knob", "n_servers=4"]) == 0
        out = capsys.readouterr().out
        assert "scenario: load-imbalance" in out
        assert "clean separation" in out

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert main(["run", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["contention", "microburst"])
    def test_negative_burst_size_fails_cleanly(self, scenario, capsys):
        assert main(["run", scenario, "--knob", "m_flows=-1"]) == 2
        assert "m_flows" in capsys.readouterr().err

    def test_unknown_knob_fails_cleanly(self, capsys):
        assert main(["run", "gray-failure", "--knob", "bogus=1"]) == 2
        assert "unknown knob" in capsys.readouterr().err

    def test_malformed_knob_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "gray-failure", "--knob", "not-a-pair"])

    def test_knob_coercion(self, capsys):
        # bools, floats, and strings all arrive typed at the scenario
        assert main(["run", "polarization", "--knob", "polarized=false",
                     "--knob", "n_flows=4", "--knob",
                     "duration=0.02"]) == 0
        out = capsys.readouterr().out
        assert "polarized=False" in out
        assert "no polarization" in out


class TestSizing:
    def test_paper_anchor(self, capsys):
        assert main(["sizing", "--hosts", "1000000", "--alpha", "10",
                     "--k", "3"]) == 0
        out = capsys.readouterr().out
        assert "3.325 MB" in out
        assert "90 ms" in out

    def test_defaults(self, capsys):
        assert main(["sizing"]) == 0
        assert "n=100000" in capsys.readouterr().out


class TestScenarios:
    """One figure point is one ``run <fig alias> --knob ...``."""

    def test_fig2a_single_point(self, capsys):
        assert main(["run", "fig2a", "--knob", "m_flows=2",
                     "--knob", "duration=0.045",
                     "--knob", "watch=false"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "scenario: contention" in lines
        # the legacy `fig2a --flows 2` row: 1.0 ms, 2.03 ms, 0 timeouts
        assert "starvation_ms: 1.0" in lines
        assert "max_gap_ms: 2.028" in lines
        assert "tcp_timeouts: 0" in lines

    def test_fig7_single_point(self, capsys):
        assert main(["run", "fig7", "--knob", "m_flows=2",
                     "--knob", "duration=0.045"]) == 0
        out = capsys.readouterr().out
        # the legacy `fig7 --flows 2` row: 36.7 ms, 3 hosts
        assert "diagnosis (priority-contention)" in out
        assert "debugging time (model): 36.7 ms; hosts consulted: 3" in out

    def test_fig8_small(self, capsys):
        assert main(["run", "fig8", "--knob", "n_servers=4"]) == 0
        out = capsys.readouterr().out
        # the legacy `fig8 --servers 4` row: 23.2 ms, imbalanced
        assert "clean separation" in out
        assert "debugging time (model): 23.2 ms; hosts consulted: 4" in out


class TestScenarioCommands:
    @pytest.mark.parametrize("fig", ["fig2a", "fig2b", "fig3", "fig4",
                                     "fig7", "fig8"])
    def test_figure_ids_are_not_subcommands(self, fig):
        with pytest.raises(SystemExit):
            build_parser().parse_args([fig])

    def test_fig3(self, capsys):
        assert main(["run", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "scenario: red-lights" in out
        assert "diagnosis (too-many-red-lights)" in out

    def test_fig4(self, capsys):
        assert main(["run", "fig4", "--knob", "cascaded=false"]) == 0
        without = capsys.readouterr().out
        assert main(["run", "fig4", "--knob", "cascaded=true"]) == 0
        with_cascade = capsys.readouterr().out
        # the legacy `fig4` rows: C-E done at 28.8 ms vs 36.8 ms
        assert "ce_completed_ms: 28.77" in without.splitlines()
        assert "ce_completed_ms: 36.8" in with_cascade.splitlines()
        assert "cascade chain" in with_cascade

    def test_fig2b(self, capsys):
        assert main(["run", "fig2b", "--knob", "m_flows=2",
                     "--knob", "duration=0.045",
                     "--knob", "watch=false"]) == 0
        out = capsys.readouterr().out
        assert "scenario: microburst" in out
        assert "starvation_ms" in out
