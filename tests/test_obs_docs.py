"""The instrumentation surface stays documented, loadable, and stable.

* every trace category and metric family a fault-injected run emits
  must be named (in backticks) in docs/OBSERVABILITY.md, and every
  name a table row there documents must still exist under ``src/``;
* ``python -m repro chaos --trace out.json`` must write a Chrome trace
  that ``json.load`` accepts and a trace viewer can open;
* the Sphinx API docs must build warning-free (skipped when sphinx is
  not installed — CI runs it);
* the ASCII renderers must be byte-stable for a fixed seed.
"""

import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro import TigerSystem, small_config
from repro.analysis.render import (
    render_disk_schedule,
    render_metrics_table,
    render_view_summary,
)
from repro.faults.harness import ChaosHarness, standard_chaos_plan
from repro.sim.trace import Tracer
from repro.workloads import ContinuousWorkload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OBSERVABILITY_MD = REPO_ROOT / "docs" / "OBSERVABILITY.md"

#: The complete category inventory — call sites in src/repro must not
#: invent names outside this list without documenting them.
ALL_CATEGORIES = {
    "admission.reject",
    "block.miss",
    "block.service",
    "deadman",
    "deadman.resurrect",
    "deschedule",
    "disk.fail",
    "disk.recover",
    "disk.slow",
    "disk.stuck",
    "disk.unstuck",
    "failover",
    "failover.relay",
    "fault.inject",
    "helper.evict",
    "helper.fallback",
    "helper.fill",
    "helper.hit",
    "helper.invalidate",
    "helper.miss",
    "helper.serve",
    "insert",
    "invariant.violation",
    "mirror.cover",
    "net.deliver",
    "net.reorder",
    "restripe.abort",
    "restripe.done",
    "restripe.move",
    "restripe.pause",
    "restripe.resume",
    "restripe.retry",
    "restripe.suspend",
    "vstate.forward",
}


def run_traced_chaos():
    tracer = Tracer(capacity=500_000)
    tracer.enable()
    harness = ChaosHarness(
        small_config(),
        standard_chaos_plan(duration=40.0),
        seed=0,
        load=0.5,
        duration=40.0,
        num_files=4,
        file_seconds=60.0,
        tracer=tracer,
    )
    harness.run()
    return tracer, harness


class TestDocCoverage:
    @pytest.fixture(scope="class")
    def chaos_run(self):
        return run_traced_chaos()

    def test_emitted_categories_documented(self, chaos_run):
        tracer, _ = chaos_run
        doc = OBSERVABILITY_MD.read_text()
        emitted = tracer.categories()
        assert emitted, "chaos run emitted no trace records"
        missing = {c for c in emitted if f"`{c}`" not in doc}
        assert not missing, (
            f"trace categories emitted but missing from "
            f"docs/OBSERVABILITY.md: {sorted(missing)}"
        )

    def test_emitted_metric_families_documented(self, chaos_run):
        _, harness = chaos_run
        doc = OBSERVABILITY_MD.read_text()
        names = harness.system.registry.names()
        assert names, "chaos run registered no metrics"
        missing = {n for n in names if f"`{n}`" not in doc}
        assert not missing, (
            f"metric families registered but missing from "
            f"docs/OBSERVABILITY.md: {sorted(missing)}"
        )

    def test_known_inventory_documented(self):
        # Categories that a short run doesn't reach (stuck disks,
        # invariant violations...) still belong in the reference.
        doc = OBSERVABILITY_MD.read_text()
        missing = {c for c in ALL_CATEGORIES if f"`{c}`" not in doc}
        assert not missing

    def test_documented_names_exist_in_source(self):
        # The reverse direction: a table row whose metric family or
        # trace category no code names any more documents nothing.
        documented = re.findall(
            r"^\| `([^`]+)`", OBSERVABILITY_MD.read_text(), re.MULTILINE
        )
        assert len(documented) > 100, "table-row pattern matched too little"
        source = "".join(
            path.read_text()
            for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        )
        stale = [name for name in documented if f'"{name}"' not in source]
        assert not stale, (
            f"docs/OBSERVABILITY.md documents names that appear as a "
            f"string literal nowhere under src/: {stale}"
        )

    def test_emitted_categories_are_in_known_inventory(self, chaos_run):
        tracer, _ = chaos_run
        unknown = tracer.categories() - ALL_CATEGORIES
        assert not unknown, (
            f"new trace categories need documenting: {sorted(unknown)}"
        )


class TestCliTrace:
    def test_python_m_repro_chaos_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "out.json"
        metrics = tmp_path / "metrics.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro", "chaos",
                "--seconds", "30", "--files", "4",
                "--trace", str(out), "--metrics-out", str(metrics),
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(tmp_path),
            timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert events[0]["args"]["name"] == "tiger"
        phases = {e["ph"] for e in events}
        assert "i" in phases and "X" in phases  # instants and spans
        assert any(e.get("cat") == "fault.inject" for e in events)
        snapshot = json.loads(metrics.read_text())
        assert "cub.blocks_sent" in snapshot


class TestSphinxDocs:
    @pytest.mark.skipif(
        importlib.util.find_spec("sphinx") is None,
        reason="sphinx not installed (CI docs job runs this)",
    )
    def test_sphinx_build_warning_free(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "sphinx",
                "-W", "-b", "html",
                str(REPO_ROOT / "docs"), str(tmp_path / "html"),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stdout + result.stderr


class TestRenderStability:
    @staticmethod
    def render_everything(seed: int) -> str:
        system = TigerSystem(small_config(), seed=seed)
        system.add_standard_content(num_files=4, duration_s=60.0)
        workload = ContinuousWorkload(system)
        workload.add_streams(8)
        system.run_for(12.0)
        occupancy = {
            slot: system.oracle.occupant(slot).viewer_id
            for slot in system.oracle.occupied_slots()
        }
        system.export_metrics()
        return "\n\n".join(
            [
                render_disk_schedule(system.clock, occupancy, system.sim.now),
                render_view_summary(system),
                render_metrics_table(system.registry.snapshot()),
            ]
        )

    def test_same_seed_renders_byte_identical(self):
        assert self.render_everything(7) == self.render_everything(7)

    def test_metrics_table_formats_kinds(self):
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("a.count", unit="blocks", cub=1).increment(3)
        registry.gauge("b.level", unit="ratio").set(0.5)
        registry.histogram("c.lat", unit="s").observe(1.0)
        table = render_metrics_table(registry.snapshot())
        assert "a.count{cub=1}" in table
        assert "blocks" in table
        assert "n=1" in table
        assert render_metrics_table({}) == "(no metrics recorded)"
