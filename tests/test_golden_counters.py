"""Golden protocol counters: exact values a behaviour change must move.

The seven protocol counters (and the kernel event count) are a pure
function of config + seed, so each scenario below is pinned to the
numbers it produced when it was last verified; drift in any of them is
a behaviour change, never noise.
"""

import hashlib

import pytest

from repro import TigerConfig, TigerSystem, paper_config, small_config
from repro.core.metrics import PROTOCOL_COUNTERS, protocol_counters
from repro.faults.injectors import install_plan
from repro.faults.plan import FaultPlan
from repro.workloads.generator import ContinuousWorkload


def _run(config, *, seed, streams, sim_seconds, num_files=8, file_seconds=240.0):
    """Build a system, load it with ``streams`` viewers and drive it."""
    system = TigerSystem(config, seed=seed)
    system.add_standard_content(num_files=num_files, duration_s=file_seconds)
    if streams:
        ContinuousWorkload(system).add_streams(streams)
    system.run_for(sim_seconds)
    system.finalize_clients()
    system.export_metrics()
    return system


def _loaded_run():
    """A small loaded system driven for 20 sim-seconds."""
    config = small_config()
    return _run(
        config, seed=5, num_files=4, file_seconds=60.0,
        streams=max(1, config.num_slots // 2), sim_seconds=20.0,
    )


class TestServicePathGoldenCounters:
    """The deadline-bucket service path was an event-count optimization
    over the seed's one-timer-per-viewer path, checked by running both.
    The legacy path is gone; what it produced on this scenario (taken
    on the last commit that had it, where both paths agreed) is pinned
    here instead, so a service-path change that moves a protocol
    counter still fails."""

    LEGACY_COUNTERS = {
        "cub.viewer_states_forwarded": 430,
        "cub.deschedules_forwarded": 0,
        "cub.inserts_performed": 16,
        "cub.admission_rejects": 0,
        "cub.mirror_covers": 0,
        "cub.blocks_sent": 302,
        "cub.deadman_resurrections": 0,
    }
    #: Kernel events the one-timer-per-viewer path dispatched.
    LEGACY_EVENTS = 2771

    def test_counters_identical_to_legacy_path(self):
        system = _loaded_run()
        assert protocol_counters(system.registry) == self.LEGACY_COUNTERS
        # Batching exists to shrink the kernel event count, never to
        # grow it.
        assert system.sim.events_dispatched <= self.LEGACY_EVENTS


@pytest.fixture(scope="module")
def idle_paper_system():
    """The paper's configuration with no viewers, 30 sim-seconds."""
    return _run(paper_config(), seed=0, streams=0, sim_seconds=30.0)


class TestPaperConfigGoldenCounters:
    """The paper's 14-cub configuration, seed 0, 8 files x 240 s."""

    def test_fig8_full_load(self):
        """The §5 testbed at capacity (602 streams) for 10 sim-seconds
        — the workload behind Figure 8.

        The event count was re-pinned, 10,531 to 9,161, when a disk
        read stopped costing a kernel event: the drive knows a read's
        completion time when it is issued and settles it lazily, so the
        count fell by exactly the reads the drives have settled by the
        end of the run (one still in flight had not fired its event
        before, either) and the seven protocol counters did not move."""
        config = paper_config()
        system = _run(
            config, seed=0, streams=config.num_slots, sim_seconds=10.0
        )
        assert protocol_counters(system.registry) == dict(
            zip(PROTOCOL_COUNTERS, (2406, 0, 172, 0, 0, 1209, 0))
        )
        # Was 11,091 while heartbeat, pump and deadman each armed their
        # own kernel event: 14 cubs x 20 periods x 2 merged ticks = 560;
        # then 10,531 while every read armed a completion event.
        reads_settled = sum(
            disk.reads_completed.count + disk.reads_errored.count
            for cub in system.cubs
            for disk in cub.disks.values()
        )
        assert reads_settled == 10531 - 9161
        assert system.sim.events_dispatched == 9161

    def test_idle_system_serves_no_blocks(self, idle_paper_system):
        """Zero viewers: only heartbeats, pumps and deadman sweeps run,
        so every protocol counter stays at zero."""
        system = idle_paper_system
        assert not any(protocol_counters(system.registry).values())

    def test_idle_cub_costs_one_tick_per_heartbeat_period(
        self, idle_paper_system
    ):
        """30 idle sim-seconds: a cub's heartbeat, pump and deadman
        timers share one kernel event per 0.5 s period; the rest is the
        heartbeats' deliveries and the controller's 10 Hz tick."""
        system = idle_paper_system
        cubs, periods = 14, 60
        ticks = cubs * periods
        # Four watched neighbours each; the last period's are in flight.
        heartbeats_delivered = cubs * 4 * (periods - 1)
        # 0.1 s accumulated in floats puts the 300th just past 30.0.
        clock_master_ticks = 299
        assert (ticks, heartbeats_delivered) == (840, 3304)
        assert system.sim.events_dispatched == (
            ticks + heartbeats_delivered + clock_master_ticks
        )


#: The fabric's delivery counters.
FABRIC_COUNTERS = (
    "messages_sent", "messages_scheduled", "messages_dropped",
    "messages_delivered",
)


def heartbeat_digest(system):
    """SHA-256 over when each cub last heard every neighbour it watches,
    the arrival the fabric last scheduled on every flow (its FIFO floor)
    and the four fabric counters.

    A heartbeat lands at its send time plus NIC serialization, the base
    latency, one jitter draw and the flow's FIFO floor: drawing jitter in
    another order moves every entry, and dropping the floor moves the
    flows it clamps.  The event count in the test above moves with
    neither."""
    parts = [
        f"{cub.cub_id}<-{neighbour}@{heard!r}"
        for cub in system.cubs
        for neighbour, heard in sorted(cub.deadman._last_heard.items())
    ]
    parts += [
        f"{src}->{dst}@{arrival!r}"
        for (src, dst), arrival in sorted(system.network._last_arrival.items())
    ]
    parts += [
        f"{name}={getattr(system.network, name)}" for name in FABRIC_COUNTERS
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class TestHeartbeatTimingGolden:
    """Heartbeat timing, not only heartbeat counts.  Both digests were
    taken before the heartbeat fast path (one send, one delivery event,
    the fault stage only with an injector installed), which had to
    leave them unchanged."""

    def test_idle_paper_config(self, idle_paper_system):
        network = idle_paper_system.network
        assert [getattr(network, name) for name in FABRIC_COUNTERS] == [
            3360, 3360, 0, 3304,
        ]
        assert heartbeat_digest(idle_paper_system) == (
            "12c1b9778da7f2d5404c5627572f043d469ef66e72da42a19ca41315cf3efdd5"
        )

    def test_small_config_under_faults(self):
        """Half load, then a cub crash and reboot, an isolated cub and a
        message drop window: the fault stage's path, the source drops
        and the drops at a failed destination all feed the digest."""
        config = small_config()
        system = TigerSystem(config, seed=0)
        system.add_standard_content(num_files=4, duration_s=60.0)
        ContinuousWorkload(system).add_streams(config.num_slots // 2)
        plan = (
            FaultPlan()
            .crash_cub(1, at=5.0, restart_after=8.0)
            .isolate_node("cub:3", start=9.0, duration=1.5)
            .drop_messages(0.2, start=2.0, duration=6.0)
        )
        install_plan(plan, system)
        system.run_for(25.0)
        network = system.network
        assert [getattr(network, name) for name in FABRIC_COUNTERS] == [
            1221, 1174, 47, 1136,
        ]
        assert heartbeat_digest(system) == (
            "557c18620364207d8d04ca971e08ac70dc0ec0fd0880d0f80fa1b043f78740c9"
        )


class TestSweepPointIndependence:
    """Regression (sweep seeding): each sweep point must be a pure
    function of (cubs, seed) — independent of whatever ran earlier in
    the process.  TigerSystem rewinds the process-global message-id and
    play-instance-id sequences at construction, so a point measured
    alone matches the same point inside a full sweep, bit for bit."""

    @staticmethod
    def _sweep_point(num_cubs):
        config = TigerConfig(
            num_cubs=num_cubs,
            disks_per_cub=2,
            block_play_time=1.0,
            max_bitrate_bps=2e6,
            decluster=2,
            streams_per_disk_override=4.0,
        )
        system = _run(
            config, seed=0, streams=max(1, config.num_slots // 2),
            sim_seconds=10.0,
        )
        return (
            protocol_counters(system.registry),
            system.sim.events_dispatched,
            system.sim.now,
        )

    def test_single_point_matches_point_inside_sweep(self):
        # The same point measured standalone...
        alone = self._sweep_point(8)
        # ...and after a cubs=4 point has polluted any process-global
        # state it was going to.
        self._sweep_point(4)
        assert self._sweep_point(8) == alone
        assert alone[0]["cub.blocks_sent"] > 0

    def test_instance_ids_rewind_per_system(self):
        from repro.core.viewerstate import new_instance_id

        TigerSystem(small_config(), seed=0)
        first = new_instance_id()
        TigerSystem(small_config(), seed=0)
        second = new_instance_id()
        assert first == second == 1
