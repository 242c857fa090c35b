"""Tests for wire payloads and the EXPERIMENTS.md report generator."""


import pathlib

import pytest

from repro.analysis.report import (
    EXPERIMENT_ORDER,
    PAPER_CLAIMS,
    load_sections,
    render,
)
from repro.core.protocol import (
    BlockData,
    CancelStart,
    ClientStart,
    ClientStop,
    DescheduleForward,
    Heartbeat,
    PlayEnded,
    StartCommitted,
    StartRequest,
    ViewerStateBatch,
)
from repro.core.viewerstate import DescheduleRequest, ViewerState


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def make_state(seqno=0):
    return ViewerState("v", 1, 2, 0, seqno, 3, 10.0, seqno)


class TestPayloads:
    def test_batch_len_counts_both_kinds(self):
        from repro.core.viewerstate import mirror_states_for

        states = (make_state(0), make_state(1))
        mirrors = mirror_states_for(make_state(2), 2, 8, 1.0)
        batch = ViewerStateBatch(states, mirrors)
        assert len(batch) == 4

    def test_empty_batch(self):
        assert len(ViewerStateBatch()) == 0

    def test_payloads_are_frozen(self):
        request = StartRequest("v", 1, 0, 0, 3, 0.0)
        with pytest.raises(AttributeError):
            request.viewer_id = "w"
        beat = Heartbeat(3)
        with pytest.raises(AttributeError):
            beat.cub_id = 4

    def test_block_data_defaults(self):
        data = BlockData("v", 1, 0, 5, 5)
        assert data.piece is None
        assert data.total_pieces == 1
        assert data.final is False

    def test_deschedule_forward_wraps_request(self):
        request = DescheduleRequest("v", 1, 2, 0.0)
        assert DescheduleForward(request).request is request

    def test_misc_payload_fields(self):
        assert StartCommitted("v", 1, 9, 3.0).slot == 9
        assert PlayEnded("v", 1, 9).slot == 9
        assert CancelStart("v", 1).instance == 1
        assert ClientStart("v", 1, 0).first_block == 0
        assert ClientStop("v", 1).viewer_id == "v"


class TestReport:
    def test_every_ordered_experiment_has_a_claim(self):
        for name in EXPERIMENT_ORDER:
            assert name in PAPER_CLAIMS

    def test_render_without_results(self, tmp_path):
        sections = load_sections(str(tmp_path))
        document = render(sections)
        assert "not yet run" in document
        for name in EXPERIMENT_ORDER:
            title, _ = PAPER_CLAIMS[name]
            assert title in document

    def test_render_with_results(self, tmp_path):
        target = tmp_path / "fig8_unfailed_loads.txt"
        target.write_text("streams 30 cpu 0.03\n")
        document = render(load_sections(str(tmp_path)))
        assert "streams 30 cpu 0.03" in document
        assert "```text" in document

    def test_main_writes_output(self, tmp_path):
        """``repro report`` is the one writer of EXPERIMENTS.md."""
        from repro.cli import main

        output = tmp_path / "EXP.md"
        code = main(
            ["report", "--results", str(tmp_path), "--output", str(output)]
        )
        assert code == 0
        assert "# EXPERIMENTS" in output.read_text(encoding="utf-8")

    def test_the_committed_document_is_what_report_writes(self):
        """EXPERIMENTS.md is generated: a result file that changes
        without the document being regenerated fails here."""
        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        results = REPO_ROOT / "benchmarks" / "results"
        assert committed == render(load_sections(str(results)))
