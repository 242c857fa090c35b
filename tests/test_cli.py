"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.streams == 12
        assert not args.paper

    def test_capacity_defaults(self):
        args = build_parser().parse_args(["capacity"])
        assert args.cubs == 14


class TestCommands:
    def test_demo_runs(self, capsys):
        code = main(["demo", "--streams", "6", "--seconds", "12", "--files", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "slots" in out
        assert "disk schedule" in out
        assert "cub 0" in out

    def test_failover_runs(self, capsys):
        code = main(
            ["failover", "--load", "0.4", "--seconds", "30", "--files", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failing cub" in out
        assert "mirror pieces sent" in out

    def test_capacity_paper_numbers(self, capsys):
        code = main(["capacity", "--cubs", "14", "--disks", "4"])
        assert code == 0
        out = capsys.readouterr().out
        # Derived from the disk model (the paper pinned its measured
        # 10.75 streams/disk -> 602; the model derives ~11 -> ~616).
        assert "56s ring" in out
        capacity_line = next(
            line for line in out.splitlines() if "system capacity" in line
        )
        streams = int(capacity_line.split(":")[1].split()[0])
        assert 560 <= streams <= 660

    def test_report_writes_file(self, tmp_path, capsys):
        output = tmp_path / "EXP.md"
        code = main(
            ["report", "--results", str(tmp_path), "--output", str(output)]
        )
        assert code == 0
        assert output.exists()


class TestBadInput:
    """A constructor's ``ValueError`` is the user's input being
    rejected: one ``error:`` line, exit code 2, no traceback — on every
    verb, with the library's own message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chaos", "--load", "2"], "load must be in (0, 1]"),
            (["chaos", "--seconds", "0"], "duration must be positive"),
            (["chaos", "--drop-rate", "1.5"], "rate must be within [0, 1]"),
            (["chaos", "--helpers", "-1"], "helpers must be >= 0"),
            (["chaos", "--victim", "99"], "--victim"),
            (["chaos", "--restripe", "1,2", "--restripe-throttle", "0"],
             "throttle must be in (0, 1]"),
            (["demo", "--files", "0"], "add content"),
            (["demo", "--file-seconds", "0"], "duration must be positive"),
            (["demo", "--helpers", "-1"], "helpers must be >= 0"),
            (["demo", "--helper-capacity", "-2"],
             "helper_capacity must be >= 0"),
            (["demo", "--helper-policy", "bogus"], "--helper-policy"),
            (["demo", "--restripe", "1,2", "--restripe-throttle", "0"],
             "throttle must be in (0, 1]"),
            (["demo", "--restripe", "a,b"], "weights must be integers"),
            (["restripe", "--throttle", "0"], "throttle must be in (0, 1]"),
            (["restripe", "--load", "0"], "--load"),
            (["restripe", "--seconds", "0"], "--seconds"),
            (["failover", "--victim", "7"], "--victim"),
            (["trace", "--victim", "7"], "--victim"),
            (["metrics", "--files", "0"], "add content"),
        ],
    )
    def test_rejected_with_one_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and message in line
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("verb", ["demo", "chaos"])
    def test_shards_flag_is_gone(self, verb, capsys):
        """There is one event kernel: ``--shards`` is an unknown flag,
        which argparse refuses with a usage line and exit code 2."""
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--shards", "2"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: ")
        assert "unrecognized arguments: --shards 2" in captured.err
        assert "Traceback" not in captured.out + captured.err

    def test_an_error_out_of_the_run_is_not_a_usage_error(self, monkeypatch):
        """Only construction is wrapped: a ``ValueError`` raised while
        the clock is moving must surface, not exit 2."""
        from repro import TigerSystem

        def boom(self, duration):
            raise ValueError("schedule corrupted mid-run")

        monkeypatch.setattr(TigerSystem, "run_for", boom)
        with pytest.raises(ValueError, match="mid-run"):
            main(["demo", "--streams", "2", "--seconds", "1", "--files", "2"])
