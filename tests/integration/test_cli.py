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
    @pytest.mark.parametrize("scenario, skew_ms, verdicts", [
        ("link-flap", 1, ["diagnosis (link-flap) [suspect: S1-SPA]"]),
        ("multi-fault", 2, [
            "diagnosis (gray-failure) [suspect: leaf1]",
            "diagnosis (ecmp-polarization) [suspect: spine1]",
            "diagnosis (multi-fault): all 2 concurrent fault(s) "
            "attributed independently"]),
    ])
    def test_switch_clock_behind_true_time(self, scenario, skew_ms,
                                           verdicts, capsys):
        """The clock-skew fault fires at t=0 and sets some switches
        behind true time: their first packets fall before their epoch
        0, and the run still gives the default verdicts."""
        assert main(["run", scenario, "--knob", f"skew_ms={skew_ms}"]) == 0
        out = capsys.readouterr().out
        for verdict in verdicts:
            assert verdict in out

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

    @pytest.mark.parametrize("knob, named", [
        ("first_down=-0.001", "start must be >= 0"),
        ("down_for=0", "down_for must be > 0"),
    ])
    def test_bad_fault_param_fails_cleanly(self, knob, named, capsys):
        # a FaultError from a knob is a usage error, not a traceback
        assert main(["run", "link-flap", "--knob", knob]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_non_finite_duration_fails_cleanly(self, duration, capsys):
        # NaN used to hang the event loop; inf ran epoch timers forever
        assert main(["run", "incast", "--knob",
                     f"duration={duration}"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("latency", ["nan", "inf"])
    def test_non_finite_rpc_latency_fails_cleanly(self, latency, capsys):
        # nan used to print a nan debugging time and exit 0
        assert main(["run", "gray-failure", "--knob",
                     f"rpc_latency_ms={latency}"]) == 2
        assert (f"extra RPC latency must be finite, got {latency}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("scenario, knob", [
        ("incast", "hosts=-5"),
        ("incast", "records_per_host=-1"),
        ("gray-failure", "records_per_host=-1"),
        ("gray-failure", "skew_ms=-3"),
        ("gray-failure", "n_flows=0"),
        ("multi-fault", "slot_flows=0"),
    ])
    def test_negative_size_knob_names_the_knob(self, scenario, knob,
                                               capsys):
        # hosts=-5 used to build the minimal fabric and exit 0;
        # records_per_host=-1 blamed an internal max_records; n_flows=0
        # raised MphfBuildError and slot_flows=0 an IndexError (exit 1)
        assert main(["run", scenario, "--knob", knob]) == 2
        captured = capsys.readouterr()
        name, _, value = knob.partition("=")
        minimum = REGISTRY.get(scenario).spec.knobs[name].minimum
        assert captured.err == (f"error: knob {name!r} of {scenario!r} "
                                f"must be >= {minimum:g}, got {value}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("scenario, knob, minimum", [
        ("incast", "hosts=nan", 0),
        ("incast", "hosts=inf", 0),
        ("incast", "records_per_host=nan", 0),
        ("gray-failure", "records_per_host=nan", 0),
        ("incast", "bg_flows=nan", 0),
        ("incast", "bg_flow_kb=nan", 1),
        # a nan fault knob ran as if no skew, stripping or crash was set
        ("gray-failure", "skew_ms=nan", 0),
        ("gray-failure", "deploy_frac=nan", 0),
        ("gray-failure", "crash_at=nan", 0),
    ])
    def test_non_finite_bounded_knob_names_the_knob(self, scenario, knob,
                                                    minimum, capsys):
        # hosts=nan built a different fabric and exited 0, and
        # records_per_host=nan left the record table unbounded
        assert main(["run", scenario, "--knob", knob]) == 2
        captured = capsys.readouterr()
        name, _, value = knob.partition("=")
        assert captured.err == (f"error: knob {name!r} of {scenario!r} "
                                f"must be a finite number >= {minimum}, "
                                f"got {value}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("knob, minimum", [
        ("bg_flows=-1", 0), ("bg_flow_kb=-4", 1), ("bg_flow_kb=0", 1),
    ])
    def test_background_knob_below_minimum_fails_cleanly(self, knob,
                                                         minimum, capsys):
        # bg_flows=-1 silently ran no background, and a bg_flow_kb
        # under 1 was silently clamped to 1 KB
        assert main(["run", "incast", "--knob", knob]) == 2
        captured = capsys.readouterr()
        name, _, value = knob.partition("=")
        assert captured.err == (f"error: knob {name!r} of 'incast' must "
                                f"be >= {minimum}, got {value}\n")
        assert captured.out == ""

    def test_unknown_knob_fails_cleanly(self, capsys):
        assert main(["run", "gray-failure", "--knob", "bogus=1"]) == 2
        assert "unknown knob" in capsys.readouterr().err

    def test_removed_batch_knob_is_unknown(self, capsys):
        """Hosts decode each packet on arrival; no knob batches it."""
        assert main(["run", "incast", "--knob", "ingest_batch=16"]) == 2
        err = capsys.readouterr().err
        assert "unknown knob" in err and "'ingest_batch'" in err

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

    @pytest.mark.parametrize("flag, value, message", [
        ("--hosts", "0", "need at least one host"),
        ("--alpha", "1", "alpha must be >= 2"),
        ("--k", "0", "k must be >= 1"),
    ])
    def test_out_of_range_flag_is_a_usage_error(self, flag, value,
                                                message, capsys):
        # used to print the n=... header, then a ValueError traceback
        assert main(["sizing", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, value, header", [
        ("--hosts", "1", "n=1, alpha=10 ms, k=3:"),
        ("--alpha", "2", "n=100000, alpha=2 ms, k=3:"),
        ("--k", "1", "n=100000, alpha=10 ms, k=1:"),
    ])
    def test_smallest_valid_flag_is_accepted(self, flag, value, header,
                                             capsys):
        assert main(["sizing", flag, value]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == header
        assert captured.err == ""


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
