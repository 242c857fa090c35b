"""Self-test of the benchmark (``pytest benchmarks/perf -q``).

Not part of tier-1 (``testpaths`` is ``tests``).  Every workload runs at
``--smoke`` scale, timed and traced, through the same command line the
driver uses; the whole file takes about half a minute.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402,F401 - puts src/ on sys.path for the imports below
import live  # noqa: E402
import workloads  # noqa: E402
from repro.obs.registry import MetricsRegistry, snapshot_total  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [row["name"] for row in CONTRACT["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(workload: str, seed: int, trace: int, out: Path) -> dict:
    """One smoke run through the command line; returns the --out document
    after checking the last stdout line is the contract's JSON object."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "never retrieved" not in done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["metrics"] == last["metrics"]
    return document


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    """Every workload once timed and once traced, seed 3."""
    scratch = tmp_path_factory.mktemp("perf")
    return {
        (workload, trace): bench(
            workload, 3, trace, scratch / f"{workload}-{trace}.json")
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema(smoke, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        document = smoke[(workload, trace)]
        declared = {row["name"]: row["unit"] for row in CONTRACT[section]}
        assert set(document["metrics"]) == set(declared)
        for name, row in document["metrics"].items():
            assert NAME.match(name)
            assert row["unit"] == declared[name]
            assert isinstance(row["value"], float)
        assert document["correct"] is True, document["detail"]["problems"]
        assert document["failed"] == 0
        assert document["attempted"] >= 1
        env = document["env"]
        for key in ("nproc", "python", "platform", "git_commit",
                    "loadavg_1m_start", "loadavg_1m_end", "noisy"):
            assert key in env
    for name, row in smoke[(workload, 0)]["metrics"].items():
        assert row["value"] > 0, f"end-to-end metric {name} must never be 0"


@pytest.mark.parametrize("workload", sorted(workloads.DES_WORKLOADS))
def test_fingerprint_repeats_for_a_seed_and_differs_for_another(
    smoke, workload, tmp_path
):
    timed = smoke[(workload, 0)]["detail"]
    traced = smoke[(workload, 1)]["detail"]
    # Repeats inside a run are checked by the run itself ("correct").
    assert timed["fingerprint"] == traced["fingerprint"]
    if workload != "idle_tick":  # an idle system draws nothing from the seed
        other = bench(workload, 4, 0, tmp_path / "other.json")["detail"]
        assert other["fingerprint"] != timed["fingerprint"]


@pytest.mark.parametrize("workload", sorted(workloads.DES_WORKLOADS))
def test_traced_self_times_sum_to_the_window(smoke, workload):
    document = smoke[(workload, 1)]
    metrics = document["metrics"]
    window = document["detail"]["traced_window_wall_s"]
    named = sum(
        row["value"] for name, row in metrics.items() if name.endswith(".self_s")
    )
    unattributed = metrics["trace.unattributed_share"]["value"] * window
    assert abs(named + unattributed - window) <= 0.02 * window


def test_relay_frame_to_an_unknown_node_counts_as_failed(monkeypatch):
    monkeypatch.setattr(live, "RELAY_STALL_TIMEOUT", 0.5)
    messages = live.relay_mix(seed=3, arrivals=100)
    messages[350].dst = "cub:9"  # no such connection: the hub drops it
    registry = MetricsRegistry()
    outcome = asyncio.run(
        live.relay(messages, live.CODEC_BINARY, registry, 0.0)
    )
    delivered = live.intact(messages, outcome["inbox"])
    assert outcome["stalled"]
    assert len(messages) - delivered == 1
    assert snapshot_total(registry.snapshot(), "live.hub_messages_dropped") == 1


def test_start_against_a_full_schedule_counts_as_failed():
    workload = workloads.DES_WORKLOADS["steady_full"]
    run_ = workload.build(workload.smoke, 3, 10.0)
    system = run_.system
    assert system.oracle.num_occupied == system.config.num_slots
    client = system.clients[0]
    file_id = system.catalog.files()[0].file_id
    run_.window_starts.append((client, client.start_stream(file_id)))
    system.run_for(10.0)
    waits, unserved = run_.startup_waits()
    assert unserved == 1
    assert waits[0] >= 9.0  # censored: enters at its elapsed wait
