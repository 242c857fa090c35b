"""Tests for the command-line interface."""

import json
import re

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


#: ``_print_restripe_summary``'s counts line, as CI's restripe job reads it.
RESTRIPE_SUMMARY = re.compile(
    r"restripe (\w[\w ]*): (\d+) committed \+ (\d+) resumed-skipped "
    r"of (\d+) moves"
)
RESTRIPE_DRILL = [
    "demo", "--streams", "16", "--restripe", "1,2",
    "--restripe-throttle", "0.5",
]


def _restripe_run(capsys, *extra):
    """Exit code, (state, committed, skipped, total) and placement
    prefix (None until finished) of one ``demo --restripe`` run."""
    code = main(RESTRIPE_DRILL + list(extra))
    out = capsys.readouterr().out
    state, done, skipped, total = RESTRIPE_SUMMARY.search(out).groups()
    placement = re.search(r"placement ([0-9a-f]+)", out)
    return (
        code,
        (state, int(done), int(skipped), int(total)),
        placement and placement.group(1),
    )


class TestFoldedDrills:
    """What the ``trace``, ``metrics`` and ``restripe`` verbs did, run
    through ``failover`` and ``demo``."""

    def test_failover_trace_holds_the_failure_and_the_recovery(
        self, tmp_path, capsys
    ):
        path = tmp_path / "failover.json"
        code = main([
            "failover", "--load", "0.25", "--seconds", "3", "--files", "4",
            "--recover", "--trace", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovering cub 1" in out
        assert re.search(r"^  fault\.inject +2$", out, re.MULTILINE)
        assert "about://tracing" in out
        events = json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
        injected = [
            event["args"]["message"] for event in events
            if event.get("cat") == "fault.inject"
        ]
        assert injected == ["cub 1 failed", "cub 1 recovered"]

    def test_a_restripe_cut_short_resumes_from_its_journal(
        self, tmp_path, capsys
    ):
        """CI's crash-resume drill: the resumed run re-runs none of the
        committed moves and lands on the undisturbed run's placement."""
        journal = str(tmp_path / "restripe.jsonl")
        code, (state, done, _, total), _ = _restripe_run(
            capsys, "--restripe-journal", journal, "--seconds", "12"
        )
        assert code == 1
        assert state == "in progress" and 0 < done < total
        code, (state, done2, skipped2, total2), resumed = _restripe_run(
            capsys, "--restripe-journal", journal, "--seconds", "90"
        )
        assert code == 0 and state == "finished"
        assert skipped2 == done and done2 + skipped2 == total2 == total
        code, _, undisturbed = _restripe_run(capsys, "--seconds", "90")
        assert code == 0
        assert undisturbed is not None and resumed == undisturbed

    def test_demo_metrics_out_samples_the_run_and_prints_the_table(
        self, tmp_path, capsys
    ):
        path = tmp_path / "metrics.json"
        code = main([
            "demo", "--streams", "6", "--seconds", "12", "--files", "4",
            "--metrics-out", str(path),
        ])
        assert code == 0
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        sampled = {name for name in snapshot if name.startswith("sample.")}
        assert "sample.blocks_sent" in sampled and len(sampled) == 10
        assert re.search(
            r"^sample\.active_streams +6 +streams$",
            capsys.readouterr().out, re.MULTILINE,
        )


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
            (["chaos", "--helper-capacity", "-1"],
             "helper_capacity must be >= 0"),
            (["demo", "--restripe", "1,2", "--restripe-throttle", "0"],
             "throttle must be in (0, 1]"),
            (["demo", "--restripe", "a,b"], "weights must be integers"),
            (["demo", "--restripe", "1,2", "--restripe-throttle", "2"],
             "throttle must be in (0, 1]"),
            (["failover", "--load", "0"], "--load"),
            (["demo", "--restripe", "1,2", "--seconds", "0"], "--seconds"),
            (["failover", "--victim", "7"], "--victim"),
            (["failover", "--recover", "--victim", "7"], "--victim"),
            (["demo", "--metrics-out", "metrics.json", "--files", "0"],
             "add content"),
            (["capacity", "--cubs", "0"], "at least 3 cubs"),
            (["demo", "--seconds", "-1"], "--seconds must be positive"),
            (["demo", "--streams", "-3"], "--streams must be >= 0"),
            (["failover", "--load", "3"], "--load must be in (0, 1]"),
            (["failover", "--seconds", "0"], "--seconds must be positive"),
            (["demo", "--trace", "no-such-dir/t.json"], "--trace"),
            (["failover", "--metrics-out", "no-such-dir/m.json"],
             "--metrics-out"),
            (["chaos", "--trace", "no-such-dir/t.json"], "--trace"),
            (["report", "--results", "no-such-dir"], "--results"),
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

    @pytest.mark.parametrize("verb", ["demo", "chaos", "cluster"])
    def test_helper_policy_flag_is_gone(self, verb, capsys):
        """A helper's cache is always LRU: ``--helper-policy`` is an
        unknown flag, which argparse refuses with exit code 2."""
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--helper-policy", "lru"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --helper-policy lru" in captured.err
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("verb", ["trace", "metrics", "restripe"])
    def test_folded_verbs_are_gone(self, verb, capsys):
        """``failover`` and ``demo`` run these drills now; the old verb
        is an invalid choice, refused by argparse with exit code 2."""
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err

    def test_an_error_out_of_the_run_is_not_a_usage_error(self, monkeypatch):
        """Only construction is wrapped: a ``ValueError`` raised while
        the clock is moving must surface, not exit 2."""
        from repro import TigerSystem

        def boom(self, duration):
            raise ValueError("schedule corrupted mid-run")

        monkeypatch.setattr(TigerSystem, "run_for", boom)
        with pytest.raises(ValueError, match="mid-run"):
            main(["demo", "--streams", "2", "--seconds", "1", "--files", "2"])
