"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in ("fig1", "fig4", "table2", "table3", "tabledb", "table5"):
            assert parser.parse_args([command]).command == command

    def test_table6_options(self):
        args = build_parser().parse_args(["table6", "--runs", "5", "--seed", "2"])
        assert args.runs == 5 and args.seed == 2

    def test_table6_workers_flag(self):
        parser = build_parser()
        assert parser.parse_args(["table6"]).workers is None
        assert parser.parse_args(["table6", "--workers", "2"]).workers == 2

    def test_stream_options(self):
        args = build_parser().parse_args(
            ["stream", "--hosts", "30", "--events", "5", "--solver", "bp",
             "--compare-cold"]
        )
        assert args.hosts == 30
        assert args.events == 5
        assert args.solver == "bp"
        assert args.compare_cold and not args.cold

    def test_scalability_full_flag(self):
        args = build_parser().parse_args(["table7", "--full"])
        assert args.full

    @pytest.mark.parametrize("command", ["table7", "table8", "table9"])
    def test_scalability_workers_flag(self, command):
        parser = build_parser()
        assert parser.parse_args([command]).workers is None
        assert parser.parse_args([command, "--workers", "4"]).workers == 4
        assert parser.parse_args([command, "--workers", "-1"]).workers == -1

    @pytest.mark.parametrize("command", ["table7", "table8", "table9"])
    def test_removed_dual_flags_exit_2(self, command):
        # The dual-decomposition tier and its flags are gone: argparse
        # rejects them before any cell runs.
        for flags in (
            ["--shards", "cut"], ["--dual-parts", "4"],
            ["--dual-rounds", "20"], ["--dual-gap", "1e-4"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main([command, *flags])
            assert exit_info.value.code == 2

    def test_sensitivity_options(self):
        args = build_parser().parse_args(
            ["sensitivity", "--noise", "0.2", "--seeds", "1", "2", "--workers", "2"]
        )
        assert args.noise == [0.2]
        assert args.seeds == [1, 2]
        assert args.workers == 2


class TestExecution:
    def test_fig1_output(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "0.1250" in out and "0.5000" in out

    def test_table2_output(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "0.278" in out  # Win7/WinXP from the paper's Table II
        assert "Win10" in out

    def test_table3_output(self, capsys):
        assert main(["table3"]) == 0
        assert "0.386" in capsys.readouterr().out

    def test_tabledb_output(self, capsys):
        assert main(["tabledb"]) == 0
        assert "MariaDB 10" in capsys.readouterr().out

    def test_table5_output(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out and "mono" in out and "d_bn" in out

    def test_table6_small_run(self, capsys):
        assert main(["table6", "--runs", "10"]) == 0
        assert "MTTC" in capsys.readouterr().out

    def test_synthetic_nvd(self, capsys):
        assert main(["synthetic-nvd", "--cves-per-year", "20"]) == 0
        out = capsys.readouterr().out
        assert "synthetic feed" in out
        assert "microsoft windows_7" in out


class TestExtensionCommands:
    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "--noise", "0.1", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "Similarity-perturbation sensitivity" in out
        assert "agreement=" in out

    def test_effort(self, capsys):
        assert main(["effort"]) == 0
        out = capsys.readouterr().out
        assert "Least attacking effort" in out
        assert "k-0day" in out

    def test_richness(self, capsys):
        assert main(["richness"]) == 0
        out = capsys.readouterr().out
        assert "d1=" in out
        assert "mono" in out and "optimal" in out

    def test_plan(self, capsys):
        assert main(["plan", "--budget", "3"]) == 0
        out = capsys.readouterr().out
        assert "upgrade plan: 3 change(s)" in out

    def test_adversary(self, capsys):
        assert main(["adversary", "--runs", "20"]) == 0
        out = capsys.readouterr().out
        assert "full" in out and "blind" in out

    def test_stream(self, capsys):
        assert main(["stream", "--hosts", "12", "--events", "3"]) == 0
        out = capsys.readouterr().out
        assert "Streaming churn" in out
        assert "events" in out and "warm" in out

    def test_dot(self, capsys, tmp_path):
        out_path = tmp_path / "case.dot"
        assert main(["dot", "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert out_path.read_text().startswith("graph")
