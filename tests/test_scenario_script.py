"""The one scenario script both backends run, and its two hosts.

``schedule_viewer_script`` needs nothing but ``runtime.call_at``, so
recording fake clients on a plain :class:`Simulator` see exactly the
operation sequence the live driver and the ``--compare-sim`` replay
would issue.  ``arm_scenario`` needs an assembly that can take a
client, a restriper and a fault plan: a recording fake pins what it
asks for and in which order, then the two real hosts —
:class:`TigerSystem` and :class:`LiveCluster` (no processes needed) —
are armed with the same scenario, and five replays are pinned to the
counters measured before the two backends shared this code.
"""

import asyncio
import time
from types import SimpleNamespace

import pytest

from repro.core.protocol import BlockData, block_pattern
from repro.core.tiger import TigerSystem
from repro.core.world import World
from repro.faults.plan import CUB_CRASH, HELPER_CRASH
from repro.live.cluster import (
    ClusterHub,
    ClusterScenario,
    LiveCluster,
    arm_scenario,
    replay_scenario_in_sim,
    run_scenario_in_sim,
    schedule_viewer_script,
)
from repro.live.runtime import LiveRuntime
from repro.live.transport import NullTransport
from repro.net.message import KIND_DATA, Message
from repro.obs.registry import MetricsRegistry, snapshot_total
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.storage.rebalance import RESTRIPER_ADDRESS


class RecordingClient:
    """Stands in for a ViewerClient: logs each call, mints fresh ids."""

    def __init__(self, index, sim, log, ids):
        self.index = index
        self.sim = sim
        self.log = log
        self.ids = ids

    def _record(self, op, arg):
        self.log.append((self.sim.now, op, self.index, arg))
        return next(self.ids)

    def start_stream(self, file_id):
        return self._record("start", file_id)

    def stop_stream(self, instance):
        self._record("stop", instance)

    def pause_stream(self, instance):
        return self._record("pause", instance)

    def resume_stream(self, parked):
        return self._record("resume", parked)


def run_script(scenario, client_class=RecordingClient):
    sim = Simulator()
    log = []
    ids = iter(range(100, 10_000))
    clients = [
        client_class(index, sim, log, ids)
        for index in range(scenario.streams)
    ]
    files = [
        SimpleNamespace(file_id=f"file-{index}")
        for index in range(scenario.num_files)
    ]
    schedule_viewer_script(sim, scenario, clients, files)
    sim.run(until=scenario.duration)
    return log


def planned_ops(scenario):
    """The three plans merged the way the kernel dispatches them: by
    time, ties in arming order (starts, then the stop, then churn)."""
    ops = [(at, "start", client) for client, _, at in scenario.stream_plan()]
    ops += [(at, "stop", client) for client, at in scenario.stop_plan()]
    ops += scenario.churn_plan()
    return sorted(ops, key=lambda op: op[0])


def test_issued_sequence_is_the_three_plans():
    # Every start (last at t=2.25) lands before the churn window opens
    # (t=3), so no planned operation is a no-op.
    scenario = ClusterScenario(streams=6, churn=4, duration=20.0, seed=0)
    assert scenario.stop_plan() and scenario.churn_plan()
    log = run_script(scenario)
    assert [(at, op, client) for at, op, client, _ in log] == planned_ops(
        scenario
    )
    starts = {client: file for client, file, _ in scenario.stream_plan()}
    for _, op, client, arg in log:
        if op == "start":
            assert arg == f"file-{starts[client]}"


def test_instances_are_handed_from_op_to_op():
    scenario = ClusterScenario(streams=6, churn=5, duration=20.0, seed=3)
    log = run_script(scenario)
    ops = {op for _, op, _, _ in log}
    assert ops == {"start", "stop", "pause", "resume"}
    # Replay the log: each op must name the id the previous op on that
    # client returned — start -> pause/stop take the play instance,
    # resume takes the parked one pause handed back.
    ids = iter(range(100, 10_000))
    holding = {}
    for _, op, client, arg in log:
        if op != "start":
            assert arg == holding[client], (op, client)
        holding[client] = next(ids)


def test_ops_on_a_viewer_without_an_instance_are_noops():
    # A refused pause parks nothing, so the resume that follows must
    # not reach the client.
    scenario = ClusterScenario(streams=2, churn=1, duration=20.0, seed=0)
    assert [op for _, op, _ in scenario.churn_plan()] == ["pause", "resume"]

    class RefusingClient(RecordingClient):
        def pause_stream(self, instance):
            super().pause_stream(instance)
            return None

    log = run_script(scenario, RefusingClient)
    assert [op for _, op, client, _ in log if client == 1] == [
        "start", "pause",
    ]


# ----------------------------------------------------------------------
# arm_scenario: what it asks of a host, and in which order
# ----------------------------------------------------------------------
RESTRIPE_WEIGHTS = (1, 1, 1, 1, 2, 2, 2, 2)


def busy_scenario(**overrides):
    """Restripe, cub kill, helper kill and churn in one run."""
    fields = dict(
        cubs=4, streams=5, duration=20.0, churn=3,
        kill_cub=2, helpers=1, helper_capacity=8, kill_helper=0,
        restripe_weights=RESTRIPE_WEIGHTS, restripe_throttle=0.5,
        restripe_start=2.0,
    )
    fields.update(overrides)
    return ClusterScenario(**fields)


class RecordingHost(World):
    """A third host: the substrate comes from the assembly, the host
    verbs and the two fault verbs only write down what they were
    asked."""

    fault_kinds = frozenset({CUB_CRASH, HELPER_CRASH})

    def __init__(self, scenario):
        super().__init__(
            scenario.config(), Simulator(), NullTransport(),
            MetricsRegistry(), None, RngRegistry(scenario.seed),
        )
        self.add_standard_content(
            scenario.num_files, scenario.file_duration_s
        )
        self.calls = []
        self.faults = []
        self.clients = []
        self.restriper_started_at = None

    def add_client(self):
        self.calls.append("add_client")
        self.clients.append(RecordingClient(
            len(self.clients), self.runtime, [], iter(range(100, 10_000))
        ))
        return self.clients[-1]

    def attach_restriper(self, plan, **options):
        self.calls.append("attach_restriper")
        self.plan, self.restriper_options = plan, options

        def start():
            self.restriper_started_at = self.runtime.now

        return SimpleNamespace(start=start)

    def fail_cub(self, cub_id):
        self.faults.append((self.runtime.now, "fail_cub", cub_id))

    def fail_helper(self, helper_id):
        self.faults.append((self.runtime.now, "fail_helper", helper_id))


def test_arm_scenario_order_and_arguments():
    scenario = busy_scenario()
    host = RecordingHost(scenario)
    arm_scenario(host, scenario)
    # Restriper first, then every client, then the fault plan's timers:
    # on the DES this order is the event sequence numbers (the golden
    # replays below pin it).
    assert host.calls == (
        ["attach_restriper"] + ["add_client"] * scenario.streams
    )
    assert host.plan.moves and host.plan.new_layout.disk_weights == (
        RESTRIPE_WEIGHTS
    )
    assert host.restriper_options == {"journal": None, "throttle": 0.5}
    assert host.restriper_started_at is None and host.faults == []
    host.runtime.run(until=scenario.duration)
    assert host.restriper_started_at == scenario.restripe_start
    assert host.faults == [
        (scenario.kill_time(), "fail_cub", 2),
        (scenario.helper_kill_time(), "fail_helper", 0),
    ]


def test_arm_scenario_without_restripe_or_faults_asks_for_neither():
    scenario = ClusterScenario(cubs=4, streams=3, duration=20.0)
    host = RecordingHost(scenario)
    arm_scenario(host, scenario)
    assert host.calls == ["add_client"] * 3


# ----------------------------------------------------------------------
# The DES host
# ----------------------------------------------------------------------
def test_scenario_armed_on_a_real_system():
    scenario = busy_scenario()
    system = TigerSystem(scenario.config(), seed=scenario.seed)
    system.add_standard_content(
        scenario.num_files, scenario.file_duration_s
    )
    arm_scenario(system, scenario)
    assert len(system.clients) == scenario.streams
    assert system.restriper is not None and not system.restriper.started
    system.run_until(scenario.restripe_start + 1e-6)
    assert system.restriper.started_at == scenario.restripe_start
    victim = system.cubs[scenario.kill_cub]
    system.run_until(scenario.kill_time() - 1e-6)
    assert not victim.failed
    system.run_until(scenario.kill_time() + 1e-6)
    # Power cut, not just a silent process: the disks go with the cub.
    assert victim.failed
    assert all(disk.failed for disk in victim.disks.values())
    assert not system.helpers[0].failed
    system.run_until(scenario.helper_kill_time() + 1e-6)
    assert system.helpers[0].failed


#: ``run_scenario_in_sim`` totals measured on the commit before the
#: replay and the live driver shared ``arm_scenario``.
GOLDEN_COUNTERS = (
    "cub.viewer_states_forwarded", "cub.deschedules_forwarded",
    "cub.inserts_performed", "cub.admission_rejects", "cub.mirror_covers",
    "cub.blocks_sent", "cub.deadman_resurrections",
    "cub.mirror_pieces_sent", "controller.starts_routed",
    "controller.stops_routed", "restripe.moves_committed",
    "sim.events_dispatched", "helper.blocks_served",
)
# ``sim.events_dispatched`` was re-pinned when a cub's three same-period
# timers came to share one kernel event: each fell by 2 x (heartbeat
# periods the cubs lived through, 2 per sim-s; a killed cub until
# ``fault_time`` = 0.4 x duration) and no other column moved —
# 2098 - 2*4*40; 897 - 2*(2*24 + 9); 3155 - 2*(4*50 + 19);
# 2104 - 2*4*40; 3609 - 2*4*32.
# It was re-pinned again when a disk read stopped costing a kernel event
# (the drive knows a read's completion time at issue and settles it
# lazily): each fell by exactly the reads the drives had settled by the
# scenario's end, completed or errored, and no other column moved —
# ``test_replay_events_fell_by_the_reads_the_drives_settled`` holds each
# row to the count it replaced, ``EVENTS_WITH_A_COMPLETION_EVENT_PER_READ``.
GOLDEN_REPLAYS = [
    (dict(cubs=4, streams=6, duration=20.0),
     (150, 4, 6, 0, 0, 102, 0, 0, 6, 1, 0, 1672, 0)),
    (dict(cubs=3, streams=6, duration=12.0, kill_cub=1),
     (88, 2, 6, 0, 20, 43, 0, 11, 6, 1, 0, 720, 0)),
    (dict(cubs=5, streams=12, duration=25.0, kill_cub=2, churn=4,
          arrivals="zipf", seed=3),
     (203, 17, 13, 0, 45, 118, 0, 50, 13, 4, 0, 2534, 0)),
    (dict(cubs=4, streams=8, duration=20.0, helpers=2, helper_capacity=64,
          kill_helper=0, arrivals="flash", seed=1),
     (112, 4, 8, 0, 0, 57, 0, 0, 8, 1, 0, 1721, 29)),
    (dict(cubs=4, streams=3, duration=16.0,
          restripe_weights=RESTRIPE_WEIGHTS, restripe_throttle=0.5,
          restripe_start=2.0),
     (61, 4, 3, 0, 0, 37, 0, 0, 3, 1, 430, 3314, 0)),
]
#: ``sim.events_dispatched`` of the same rows while every read armed a
#: completion (or error) event of its own.
EVENTS_WITH_A_COMPLETION_EVENT_PER_READ = (1778, 783, 2717, 1784, 3353)


@pytest.mark.parametrize("fields, expected", GOLDEN_REPLAYS)
def test_replay_counters_are_bit_identical(fields, expected):
    snapshot = run_scenario_in_sim(ClusterScenario(**fields))
    assert tuple(
        int(snapshot_total(snapshot, name)) for name in GOLDEN_COUNTERS
    ) == expected


@pytest.mark.parametrize(
    "fields, events_before",
    [
        (fields, before)
        for (fields, _expected), before in zip(
            GOLDEN_REPLAYS, EVENTS_WITH_A_COMPLETION_EVENT_PER_READ
        )
    ],
)
def test_replay_events_fell_by_the_reads_the_drives_settled(
    fields, events_before
):
    """The identity behind the re-pin: a read used to cost one kernel
    event — its completion, or its error callback on a dead drive — and
    now costs none, so each row's event count fell by the reads its
    drives have counted, either way, by the scenario's end (a read
    still in flight then had not fired its event before, either)."""
    system = replay_scenario_in_sim(ClusterScenario(**fields))
    settled = sum(
        disk.reads_completed.count + disk.reads_errored.count
        for cub in system.cubs
        for disk in cub.disks.values()
    )
    assert settled > 0
    assert events_before - system.sim.events_dispatched == settled


def test_replay_ignores_the_journal(tmp_path):
    """The replay always executes the full plan (see
    ``ClusterScenario.restripe_journal``): it neither reads nor writes
    the live run's journal."""
    journal = tmp_path / "moves.jsonl"
    fields, expected = GOLDEN_REPLAYS[-1]
    snapshot = run_scenario_in_sim(
        ClusterScenario(restripe_journal=str(journal), **fields)
    )
    assert int(snapshot_total(snapshot, "restripe.moves_committed")) == 430
    assert not journal.exists()


# ----------------------------------------------------------------------
# The live host, without processes
# ----------------------------------------------------------------------
class StubProc:
    """Stands in for a ``subprocess.Popen`` the fault injector kills."""

    def __init__(self):
        self.killed = False

    def poll(self):
        return 0 if self.killed else None

    def kill(self):
        self.killed = True


def test_scenario_armed_on_a_live_cluster_without_processes():
    scenario = busy_scenario(kill_at=5.0)

    async def body():
        registry = MetricsRegistry()
        hub = ClusterHub(scenario.node_addresses(), registry)
        # Runtime time 4.8: every start and the restripe start are
        # already due, the kill is 0.2 s away.
        runtime = LiveRuntime(time.time() - 4.8, asyncio.get_running_loop())
        procs = {address: StubProc() for address in scenario.node_addresses()}
        cluster = LiveCluster(scenario, hub, runtime, registry, procs)
        arm_scenario(cluster, scenario)
        try:
            assert set(hub.local) == {
                f"client:{index}" for index in range(scenario.streams)
            } | {RESTRIPER_ADDRESS}
            # What the driver echoes as armed.
            assert [
                (spec.start, spec.target)
                for spec in scenario.fault_plan().events
            ] == [(5.0, "cub:2"), (5.0, "helper:0")]
            assert cluster.restriper.plan.moves
            await asyncio.sleep(0.05)  # due timers fire: streams start
            assert cluster.restriper.started

            # Blocks routed to client:0 reach that client, through the
            # tap: lateness is observed from the second block on (the
            # first one fixes the stream's deadlines).
            client = cluster.clients[0]
            (instance,) = client.streams
            monitor = client.streams[instance]
            for seqno in range(3):
                assert cluster.lateness.n == max(0, seqno - 1)
                hub.route(Message(
                    "cub:0", client.address,
                    BlockData(
                        monitor.viewer_id, instance, monitor.file_id,
                        seqno, seqno,
                        pattern=block_pattern(monitor.file_id, seqno),
                    ),
                    1000, kind=KIND_DATA,
                ))
                assert monitor.blocks_received == seqno + 1
            assert cluster.lateness.n == 2

            assert not cluster.kills
            await asyncio.sleep(0.4)
            # Same instant on a wall clock: either may go first.
            assert sorted(address for _, address in cluster.kills) == [
                "cub:2", "helper:0",
            ]
            assert cluster.kills[0][0] == pytest.approx(5.0, abs=0.2)
            assert procs["cub:2"].killed and procs["helper:0"].killed
            assert {"cub:2", "helper:0"} <= hub.expected_exits
            assert not procs["cub:1"].killed

            snapshot = cluster.export_metrics().snapshot()
            assert snapshot_total(
                snapshot, "live.client_blocks_received", node="client:0"
            ) == 3
            assert "restripe.progress_ratio" in snapshot
        finally:
            runtime.cancel_all()

    asyncio.run(body())
