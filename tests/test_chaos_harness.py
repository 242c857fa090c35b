"""Tests for the chaos harness and replay fingerprints."""

import pytest

from repro import paper_config, small_config
from repro.faults.harness import ChaosHarness, standard_chaos_plan
from repro.faults.plan import (
    CONTROLLER_KILL,
    CONTROLLER_RECOVER,
    CUB_CRASH,
    CUB_RESTART,
    NET_DROP,
    FaultPlan,
)

DURATION = 40.0


def small_plan():
    return (
        FaultPlan(name="test-mix")
        .drop_messages(0.01, start=5.0, duration=20.0, kind="data")
        .crash_cub(1, at=15.0, restart_after=8.0)
    )


def run(seed, plan=None):
    harness = ChaosHarness(
        small_config(),
        plan if plan is not None else small_plan(),
        seed=seed,
        load=0.4,
        duration=DURATION,
    )
    return harness.run()


class TestHarness:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ChaosHarness(small_config(), FaultPlan(), load=0.0)
        with pytest.raises(ValueError):
            ChaosHarness(small_config(), FaultPlan(), duration=-1.0)

    def test_run_produces_report(self):
        report = run(seed=0)
        assert report.checks_run >= DURATION - 2
        assert report.totals["client_received"] > 100
        assert report.totals["client_corrupt"] == 0
        assert report.message_stats["seen"] > 0
        assert len(report.fingerprint) == 64
        joined = "\n".join(report.lines())
        assert report.fingerprint in joined
        assert "violations: 0" in joined

    def test_same_seed_replays_bit_identically(self):
        """The determinism acceptance criterion: identical inputs must
        reproduce the identical observable outcome."""
        first = run(seed=3)
        second = run(seed=3)
        assert first.fingerprint == second.fingerprint
        assert first.totals == second.totals

    def test_different_seeds_diverge(self):
        assert run(seed=0).fingerprint != run(seed=1).fingerprint


class TestChainLivenessRegressions:
    """End-to-end regressions for two chain-death bugs the invariant
    monitor originally caught (each failed as a liveness violation)."""

    def test_disk_death_hands_chain_to_living_neighbour(self):
        """A block covered on a locally failed disk must still forward
        its chain to the *living* cub owning the next disk — the
        advanced state used to be parked passively and orphan the
        viewer."""
        plan = FaultPlan(name="disk-death").fail_disk(
            6, at=10.0, recover_after=10.0
        )
        for seed in (0, 1):
            report = run(seed=seed, plan=plan)
            assert report.totals["client_received"] > 100

    def test_cub_restart_race_relays_held_state(self):
        """A restarted cub's first heartbeat can overtake the state
        batch rerouted around it; receivers that already flipped back
        to 'alive' must relay the held state to the owner instead of
        sitting on it."""
        plan = FaultPlan(name="restart").crash_cub(
            1, at=15.0, restart_after=10.0
        )
        for seed in (0, 2):
            harness = ChaosHarness(
                small_config(), plan, seed=seed, load=0.5, duration=65.0
            )
            report = harness.run()
            assert report.totals["client_received"] > 100


class TestRebootInsideTheTimeout:
    """One cub reboots after ``r`` seconds, before (0.5, 3.0) or around
    (5.5) the 6 s deadman timeout, under the invariant monitor.  Without
    the boot epoch in the heartbeat the two short reboots orphan plays:
    ``view-coherence`` fails at t = 58 or 60 on both configs."""

    @pytest.mark.parametrize("restart_after", [0.5, 3.0, 5.5])
    @pytest.mark.parametrize("config, seeds, duration", [
        (small_config, (0, 1, 2), 120.0),
        (paper_config, (0,), 75.0),
    ], ids=["small", "paper"])
    def test_no_viewer_is_dropped(self, config, seeds, duration, restart_after):
        plan = FaultPlan().crash_cub(1, at=40.0, restart_after=restart_after)
        for seed in seeds:
            report = ChaosHarness(
                config(), plan, seed=seed, load=0.5, duration=duration,
                file_seconds=240.0,
            ).run()
            assert report.checks_run >= duration - 2  # raises on a violation


def partition_case():
    # A data link: a 3 s cut between cubs orphans a play (silent
    # sub-timeout control-link cuts are outside the paper's TCP model).
    plan = FaultPlan(name="partition").partition_link(
        "cub:1", "client:0", start=10.0, duration=3.0
    )
    return small_config(), plan, {}


def restripe_case():
    config = small_config()
    plan = (
        FaultPlan(name="restripe-ops")
        .pause_restripe(8.0, duration=5.0)
        .abort_restripe(20.0, reason="drill")
    )
    # ``--restripe 1,2``: every cub's second drive weighs twice its first.
    weights = tuple(
        1 if disk < config.num_cubs else 2 for disk in range(config.num_disks)
    )
    return config, plan, dict(
        restripe_weights=weights, restripe_throttle=0.5, restripe_start=5.0
    )


def helper_case():
    plan = FaultPlan(name="helper").crash_helper(0, at=10.0, restart_after=5.0)
    return small_config(helpers=2, helper_capacity=64), plan, {}


class TestFaultArmFingerprints:
    """One short run per fault arm no committed result exercises, with
    its fingerprint pinned: arming a verb at another instant, or in
    another order among same-instant events, moves it."""

    @pytest.mark.parametrize(
        "case, fingerprint, dropped",
        [
            (partition_case,
             "4102cb65b8d173f63ccd46daef3de2ef789033901ebffa8eaf59c63c72ecbece",
             8),
            (restripe_case,
             "8ef72db3e78387ae8045574b6e46fd5ae53b267362158480b4f9e45d7541572f",
             0),
            (helper_case,
             "2716d50d9b1dbd48f98ae2aa6ecdbabb2baa04fbd1ea52d7ba7196c537dea565",
             0),
        ],
        ids=["partition_link", "pause_and_abort_restripe", "crash_helper"],
    )
    def test_fingerprint_is_pinned(self, case, fingerprint, dropped):
        config, plan, extra = case()
        harness = ChaosHarness(
            config, plan, seed=0, load=0.4, duration=30.0, **extra
        )
        report = harness.run()
        assert report.totals["messages_dropped"] == dropped
        assert report.fingerprint == fingerprint
        restriper = harness.system.restriper
        if restriper is not None:
            assert restriper.aborted and not restriper.finished


class TestStandardPlan:
    def test_contains_acceptance_fault_mix(self):
        plan = standard_chaos_plan(duration=120.0, drop_rate=0.01)
        kinds = [event.kind for event in plan.events]
        assert NET_DROP in kinds
        assert CUB_CRASH in kinds and CUB_RESTART in kinds
        assert CONTROLLER_KILL in kinds and CONTROLLER_RECOVER in kinds
        drop = next(e for e in plan.events if e.kind == NET_DROP)
        assert drop.get("rate") == pytest.approx(0.01)
        assert drop.get("message_kind") == "data"
