"""Tests for the one fault installer and the message stage
(repro.faults.injectors)."""

import re

import pytest

from repro import TigerSystem, small_config
from repro.faults.harness import ChaosHarness
from repro.faults.injectors import (
    MessageFaultInjector,
    UnsupportedFaultError,
    install_plan,
)
from repro.faults.monitor import InvariantMonitor
from repro.faults.plan import ALL_KINDS, CUB_CRASH, FaultPlan, FaultSpec
from repro.live.cluster import ClusterHub, ClusterScenario, LiveCluster
from repro.obs.registry import MetricsRegistry
from repro.sim.rng import RngRegistry


class FakeNetwork:
    def __init__(self):
        self.fault_injector = None


class FakeSystem:
    def __init__(self, seed=0):
        self.network = FakeNetwork()
        self.rngs = RngRegistry(seed=seed)


class FakeMessage:
    def __init__(self, kind="control"):
        self.kind = kind


def make_injector(plan, seed=0):
    system = FakeSystem(seed=seed)
    injector = MessageFaultInjector(system, plan)
    injector.install()
    return injector


class TestMessageFaults:
    def test_drop_inside_window_only(self):
        plan = FaultPlan().drop_messages(1.0, start=10.0, duration=5.0)
        injector = make_injector(plan)
        # Before the window: untouched.
        assert injector.perturb(FakeMessage(), now=9.0, arrival=9.1) == [9.1]
        # Inside: rate 1.0 means certain loss.
        assert injector.perturb(FakeMessage(), now=12.0, arrival=12.1) == []
        # The window is half-open: at end the fault is over.
        assert injector.perturb(FakeMessage(), now=15.0, arrival=15.1) == [15.1]
        assert injector.messages_dropped == 1
        assert injector.messages_seen == 3

    def test_drop_respects_message_kind(self):
        plan = FaultPlan().drop_messages(
            1.0, start=0.0, duration=10.0, kind="data"
        )
        injector = make_injector(plan)
        assert injector.perturb(FakeMessage("control"), 1.0, 1.1) == [1.1]
        assert injector.perturb(FakeMessage("data"), 1.0, 1.1) == []

    def test_delay_adds_latency_within_jitter_bound(self):
        plan = FaultPlan().delay_messages(
            0.01, start=0.0, duration=10.0, jitter=0.005
        )
        injector = make_injector(plan)
        [when] = injector.perturb(FakeMessage(), now=1.0, arrival=1.1)
        assert 1.11 <= when <= 1.115 + 1e-12
        assert injector.messages_delayed == 1

    def test_duplicate_appends_trailing_copy(self):
        plan = FaultPlan().duplicate_messages(1.0, start=0.0, duration=10.0)
        injector = make_injector(plan)
        times = injector.perturb(FakeMessage(), now=1.0, arrival=1.1)
        assert len(times) == 2
        assert times[0] == pytest.approx(1.1)
        assert times[0] <= times[1] <= times[0] + 0.005
        assert injector.messages_duplicated == 1

    def test_reorder_pushes_arrival_later(self):
        plan = FaultPlan().reorder_messages(
            1.0, shift=0.2, start=0.0, duration=10.0
        )
        injector = make_injector(plan)
        [when] = injector.perturb(FakeMessage(), now=1.0, arrival=1.1)
        assert 1.1 <= when <= 1.3
        assert injector.messages_reordered == 1

    def test_double_install_rejected(self):
        system = FakeSystem()
        plan = FaultPlan().drop_messages(0.5, start=0.0, duration=1.0)
        MessageFaultInjector(system, plan).install()
        with pytest.raises(RuntimeError):
            MessageFaultInjector(system, plan).install()

    def test_same_seed_same_draws(self):
        plan = FaultPlan().drop_messages(0.5, start=0.0, duration=100.0)
        outcomes = []
        for _ in range(2):
            injector = make_injector(plan, seed=42)
            outcomes.append(
                [
                    len(injector.perturb(FakeMessage(), t * 1.0, t + 0.1))
                    for t in range(50)
                ]
            )
        assert outcomes[0] == outcomes[1]


class TestSystemInjectors:
    def build(self):
        system = TigerSystem(small_config(), seed=11)
        system.add_standard_content(num_files=3, duration_s=60)
        return system

    def test_disk_slow_window(self):
        system = self.build()
        plan = FaultPlan().slow_disk(2, factor=3.0, start=1.0, duration=2.0)
        install_plan(plan, system)
        disk = system.disk(2)
        system.run_for(1.5)
        assert disk.slow_factor == pytest.approx(3.0)
        system.run_for(2.0)
        assert disk.slow_factor == pytest.approx(1.0)

    def test_disk_fail_and_recover(self):
        system = self.build()
        plan = FaultPlan().fail_disk(1, at=1.0, recover_after=2.0)
        install_plan(plan, system)
        disk = system.disk(1)
        system.run_for(1.5)
        assert disk.failed
        system.run_for(2.0)
        assert not disk.failed

    def test_cub_crash_and_restart(self):
        system = self.build()
        plan = FaultPlan().crash_cub(1, at=1.0, restart_after=2.0)
        install_plan(plan, system)
        system.run_for(1.5)
        assert system.cubs[1].failed
        system.run_for(2.0)
        assert not system.cubs[1].failed

    def test_controller_kill_and_failback(self):
        system = self.build()
        plan = FaultPlan().kill_controller(at=1.0, recover_after=2.0)
        install_plan(plan, system)
        system.run_for(1.5)
        assert system.controller.failed
        system.run_for(2.0)
        assert not system.controller.failed

    def test_no_message_stage_without_message_faults(self):
        system = self.build()
        assert install_plan(FaultPlan().crash_cub(1, at=1.0), system) is None
        assert system.network.fault_injector is None
        plan = FaultPlan().drop_messages(0.1, start=0.0, duration=5.0)
        stage = install_plan(plan, system)
        assert system.network.fault_injector is stage

    def test_monitor_notified_of_every_spec(self, monkeypatch):
        plan = (
            FaultPlan()
            .drop_messages(0.1, start=0.0, duration=5.0)
            .crash_cub(1, at=1.0, restart_after=2.0)
        )
        noted = []
        monkeypatch.setattr(
            InvariantMonitor, "note_fault", lambda _, spec: noted.append(spec)
        )
        ChaosHarness(small_config(), plan, duration=10.0).build()
        assert noted == plan.events


class ArmedCalls:
    """A runtime that writes down what is armed on it, by verb name."""

    def __init__(self):
        self.armed = []

    def call_at(self, when, fn, *args):
        self.armed.append((when, fn.__name__, args))


def stub_live_cluster(scenario):
    """A :class:`LiveCluster` with no processes, on an :class:`ArmedCalls`."""
    registry = MetricsRegistry()
    hub = ClusterHub(scenario.node_addresses(), registry)
    return LiveCluster(scenario, hub, ArmedCalls(), registry, procs={})


class TestOneInstallerBothHosts:
    SCENARIO = ClusterScenario(cubs=4, helpers=1, helper_capacity=8)

    def test_both_hosts_arm_the_same_verbs(self):
        plan = (
            FaultPlan()
            .crash_cub(2, at=3.0)
            .crash_helper(0, at=1.0)
            .kill_controller(at=2.0)
        )
        system = TigerSystem(self.SCENARIO.config())
        system.runtime = ArmedCalls()
        cluster = stub_live_cluster(self.SCENARIO)
        install_plan(plan, system)
        install_plan(plan, cluster)
        assert system.runtime.armed == cluster.runtime.armed == [
            (3.0, "fail_cub", (2,)),
            (1.0, "fail_helper", (0,)),
            (2.0, "fail_controller", ()),
        ]

    @pytest.mark.parametrize(
        "kind", sorted(ALL_KINDS - LiveCluster.fault_kinds)
    )
    def test_live_cluster_refuses_with_nothing_armed(self, kind):
        cluster = stub_live_cluster(self.SCENARIO)
        plan = FaultPlan([
            FaultSpec(CUB_CRASH, 1.0, target="cub:1"),
            FaultSpec(kind, 2.0, duration=1.0),
        ])
        with pytest.raises(UnsupportedFaultError, match=re.escape(kind)):
            install_plan(plan, cluster)
        assert cluster.runtime.armed == []
