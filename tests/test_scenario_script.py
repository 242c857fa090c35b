"""The one scenario script both backends run, on a bare Simulator.

``schedule_viewer_script`` needs nothing but ``runtime.call_at``, so
recording fake clients on a plain :class:`Simulator` see exactly the
operation sequence the live driver and the ``--compare-sim`` replay
would issue.
"""

from types import SimpleNamespace

from repro.live.cluster import ClusterScenario, schedule_viewer_script
from repro.sim.core import Simulator


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
