"""Tests for the switched-network substrate."""

import pytest

from repro import TigerSystem, small_config
from repro.core.protocol import Heartbeat
from repro.faults.harness import ChaosHarness, standard_chaos_plan
from repro.faults.injectors import MessageFaultInjector
from repro.faults.plan import FaultPlan
from repro.net.message import KIND_DATA, Message, reset_message_ids
from repro.net.nic import Nic
from repro.net.node import NetworkNode
from repro.net.switch import _FIFO_EPSILON, SwitchedNetwork
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.stats import BusyMeter


class Sink(NetworkNode):
    """Test node collecting (payload, arrival_time) pairs."""

    def __init__(self, sim, address):
        super().__init__(sim, address)
        self.received = []
        self.ids = []

    def handle_message(self, message):
        self.received.append((message.payload, self.sim.now))
        self.ids.append(message.msg_id)


def make_net(sim, rngs, jitter=0.0, latency=0.001):
    return SwitchedNetwork(sim, rngs, base_latency=latency, latency_jitter=jitter)


@pytest.fixture
def net_pair(sim, rngs):
    network = make_net(sim, rngs)
    a = Sink(sim, "a")
    b = Sink(sim, "b")
    network.register(a, 100e6)
    network.register(b, 100e6)
    return network, a, b


class TestMessage:
    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            Message("a", "b", None, 0)

    def test_nan_size_rejected(self):
        with pytest.raises(ValueError):
            Message("a", "b", None, float("nan"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Message("a", "b", None, 10, kind="weird")

    def test_ids_are_unique(self):
        first = Message("a", "b", None, 10)
        second = Message("a", "b", None, 10)
        assert first.msg_id != second.msg_id


class TestNic:
    def test_serialization_delay(self):
        """A message occupies the wire for size / bandwidth, paced or not."""
        nic = Nic(8e6)  # 1 MB/s
        nic.pace(0.0, 1_000_000)
        assert nic.busy_until == pytest.approx(1.0)
        assert Nic(8e6).enqueue(0.0, 1_000_000) == pytest.approx(1.0)

    def test_fifo_queueing(self):
        nic = Nic(8e6)
        first_done = nic.enqueue(0.0, 1_000_000)
        second_done = nic.enqueue(0.0, 1_000_000)
        assert first_done == pytest.approx(1.0)
        assert second_done == pytest.approx(2.0)

    def test_utilization(self):
        nic = Nic(8e6)
        nic.enqueue(0.0, 500_000)
        assert nic.utilization(1.0) == pytest.approx(0.5)

    def test_queue_delay(self):
        nic = Nic(8e6)
        nic.enqueue(0.0, 1_000_000)
        assert nic.queue_delay(0.5) == pytest.approx(0.5)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError):
            Nic(0.0)

    def test_pace_charges_what_add_busy_charged(self):
        """The paced accounting in one method: serialization share on the
        busy horizon (queued behind the FIFO), bytes and messages."""
        nic, meter = Nic(8e6), BusyMeter(0.0)
        for now, size in ((0.0, 500_000), (0.25, 250_000), (2.0, 1_000_000)):
            nic.pace(now, size)
            meter.add_busy(now, size * 8.0 / 8e6)
            assert nic.busy_until == meter.busy_until
            assert nic.utilization(now + 0.5) == meter.utilization(now + 0.5)
        assert (nic.bytes_sent, nic.messages_sent) == (1_750_000, 3)

    @pytest.mark.parametrize("size", [-1, float("nan")])
    def test_pace_rejects_a_negative_or_nan_duration(self, size):
        nic = Nic(8e6)
        nic.pace(0.0, 500_000)
        with pytest.raises(ValueError):
            nic.pace(1.0, size)
        assert nic.utilization(1.0) == 0.5
        assert (nic.bytes_sent, nic.messages_sent) == (500_000, 1)


class TestDelivery:
    def test_basic_delivery(self, sim, net_pair):
        network, a, b = net_pair
        network.send(Message("a", "b", "hello", 100))
        sim.run()
        assert b.received[0][0] == "hello"

    def test_latency_applied(self, sim, net_pair):
        network, a, b = net_pair
        network.send(Message("a", "b", "x", 100))
        sim.run()
        _, arrival = b.received[0]
        assert arrival >= 0.001

    def test_fifo_per_flow(self, sim, rngs):
        """Even with latency jitter, one flow delivers in order (TCP)."""
        network = make_net(sim, rngs, jitter=0.01)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        network.register(a, 100e6)
        network.register(b, 100e6)
        for index in range(50):
            network.send(Message("a", "b", index, 100))
        sim.run()
        payloads = [payload for payload, _ in b.received]
        assert payloads == list(range(50))

    def test_unknown_destination_raises(self, sim, net_pair):
        network, a, b = net_pair
        with pytest.raises(KeyError):
            network.send(Message("a", "nope", "x", 10))

    def test_unknown_source_raises(self, sim, net_pair):
        network, a, b = net_pair
        with pytest.raises(KeyError):
            network.send(Message("nope", "b", "x", 10))

    def test_duplicate_registration_rejected(self, sim, net_pair):
        network, a, b = net_pair
        with pytest.raises(ValueError):
            network.register(Sink(sim, "a"), 1e6)

    def test_delivery_hook_fires(self, sim, net_pair):
        network, a, b = net_pair
        seen = []
        network.add_delivery_hook(str, lambda message, when: seen.append(message.payload))
        network.send(Message("a", "b", "x", 10))
        network.send(Message("a", "b", 7, 10))
        sim.run()
        assert seen == ["x"]

    def test_send_hook_sees_a_send_the_fabric_drops(self, sim, net_pair):
        network, a, b = net_pair
        sent, delivered = [], []
        network.add_send_hook(str, lambda message, when: sent.append((message.payload, when)))
        network.add_delivery_hook(str, lambda message, when: delivered.append(message.payload))
        network.partition("a", "b")
        assert network.send(Message("a", "b", "lost", 10)) is False
        network.heal("a", "b")
        network.send(Message("a", "b", "kept", 10))
        network.send(Message("a", "b", 7, 10))
        sim.run()
        assert sent == [("lost", 0.0), ("kept", 0.0)]
        assert delivered == ["kept"]


class TestFailureSemantics:
    def test_failed_source_drops(self, sim, net_pair):
        network, a, b = net_pair
        a.fail()
        assert network.send(Message("a", "b", "x", 10)) is False
        sim.run()
        assert b.received == []
        assert network.messages_dropped == 1

    def test_failed_destination_drops_silently(self, sim, net_pair):
        network, a, b = net_pair
        b.fail()
        assert network.send(Message("a", "b", "x", 10)) is True
        sim.run()
        assert b.received == []

    def test_recovered_destination_receives(self, sim, net_pair):
        network, a, b = net_pair
        b.fail()
        b.recover()
        network.send(Message("a", "b", "x", 10))
        sim.run()
        assert len(b.received) == 1

    def test_partition_drops_directionally(self, sim, net_pair):
        network, a, b = net_pair
        network.partition("a", "b")
        assert network.send(Message("a", "b", "x", 10)) is False
        assert network.send(Message("b", "a", "y", 10)) is True
        sim.run()
        assert len(a.received) == 1

    def test_heal_restores(self, sim, net_pair):
        network, a, b = net_pair
        network.partition("a", "b")
        network.heal("a", "b")
        network.send(Message("a", "b", "x", 10))
        sim.run()
        assert len(b.received) == 1

    def test_isolate_drops_both_directions_at_the_source(self, sim, net_pair):
        network, a, b = net_pair
        network.isolate("a")
        assert network.send(Message("a", "b", "out", 10)) is False
        assert network.send(Message("b", "a", "in", 10)) is False
        assert (network.messages_sent, network.messages_dropped) == (2, 2)
        assert network.messages_scheduled == 0
        network.rejoin("a")
        assert network.send(Message("b", "a", "after", 10)) is True
        sim.run()
        assert [payload for payload, _ in a.received] == ["after"]
        assert b.received == []

    def test_heartbeat_to_a_failed_cub_is_delivered_and_unheard(self):
        """A powered-off cub's neighbours keep beating it: each beat is
        a delivery the fabric counts, and the dead cub's deadman never
        sees it."""
        system = TigerSystem(small_config(), seed=0)
        system.run_for(2.0)
        victim = system.cubs[1]
        system.fail_cub(1)
        heard = dict(victim.deadman._last_heard)
        delivered = []
        system.network.add_delivery_hook(
            Heartbeat, lambda message, _when: delivered.append(message)
        )
        before = system.network.messages_delivered
        system.run_for(2.0)
        assert [m for m in delivered if m.dst == victim.address]
        # Every delivery of the window was a beat.
        assert system.network.messages_delivered - before == len(delivered)
        assert victim.deadman._last_heard == heard


class TestPacedSend:
    def test_paced_arrival_after_pacing_duration(self, sim, net_pair):
        network, a, b = net_pair
        network.send_paced(Message("a", "b", "blk", 250_000, kind=KIND_DATA), 1.0)
        sim.run()
        _, arrival = b.received[0]
        assert arrival == pytest.approx(1.001, abs=0.001)

    def test_paced_charges_serialization_share(self, sim, net_pair):
        network, a, b = net_pair
        # 250 KB on a 100 Mbit/s NIC = 20 ms of wire time.
        network.send_paced(Message("a", "b", "blk", 250_000, kind=KIND_DATA), 1.0)
        sim.run(until=1.0)
        assert network.nic("a").utilization(1.0) == pytest.approx(0.02, abs=0.002)

    def test_negative_pacing_rejected(self, sim, net_pair):
        network, a, b = net_pair
        with pytest.raises(ValueError):
            network.send_paced(Message("a", "b", "x", 10), -1.0)

    def test_nan_pacing_rejected(self, sim, net_pair):
        network, a, b = net_pair
        with pytest.raises(ValueError):
            network.send_paced(Message("a", "b", "x", 10), float("nan"))
        assert network.messages_sent == 0


class _InjectorHost:
    """Minimal system shim so a MessageFaultInjector can install on a
    bare network (the real injector only touches .network and .rngs)."""

    def __init__(self, network, rngs):
        self.network = network
        self.rngs = rngs


def install_message_faults(network, rngs, plan):
    injector = MessageFaultInjector(_InjectorHost(network, rngs), plan)
    injector.install()
    return injector


class TestFifoUnderFaults:
    def test_delayed_message_not_overtaken(self, sim, rngs):
        """Regression: the per-flow FIFO floor used to be recorded from
        the pre-perturbation arrival, so a fault-delayed message could
        be overtaken by a later send on the same flow — impossible on
        the TCP connections the paper's control plane runs over."""
        network = make_net(sim, rngs)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        network.register(a, 100e6)
        network.register(b, 100e6)
        plan = FaultPlan().delay_messages(
            0.05, start=0.0, duration=1.0, jitter=0.0, kind="data"
        )
        install_message_faults(network, rngs, plan)
        network.send(Message("a", "b", "slow", 100, kind=KIND_DATA))
        # A second message on the same flow, sent while the first is
        # still fault-delayed in flight, and itself unperturbed.
        sim.call_at(
            0.005, lambda: network.send(Message("a", "b", "fast", 100))
        )
        sim.run()
        payloads = [payload for payload, _ in b.received]
        assert payloads == ["slow", "fast"]
        slow_arrival = b.received[0][1]
        fast_arrival = b.received[1][1]
        assert slow_arrival >= 0.05
        assert fast_arrival > slow_arrival

    def test_deliberate_reorder_still_reorders(self, sim, rngs):
        """A reorder fault's shifted arrival must not become the FIFO
        floor: the floor would otherwise clamp the very overtake the
        fault exists to create, and drag all later traffic with it."""
        network = make_net(sim, rngs)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        network.register(a, 100e6)
        network.register(b, 100e6)
        plan = FaultPlan().reorder_messages(
            1.0, shift=5.0, start=0.0, duration=1.0, kind="data"
        )
        install_message_faults(network, rngs, plan)
        network.send(Message("a", "b", "pushed", 100, kind=KIND_DATA))
        network.send(Message("a", "b", "later", 100))
        sim.run()
        payloads = [payload for payload, _ in b.received]
        # The control message overtakes the deliberately shifted one.
        assert payloads == ["later", "pushed"]
        # And the flow floor tracks the in-order delivery, not the
        # reordered outlier: a third send arrives after "pushed" only
        # because of its own latency, not a clamp.
        assert b.received[0][1] < b.received[1][1]


class PassThroughStage:
    """A fault stage that perturbs nothing."""

    def __init__(self):
        self.seen = 0

    def perturb(self, message, now, arrival):
        self.seen += 1
        return [arrival]


def _two_clamped_flows(stage):
    """Bursts on two flows into ``b`` with jitter far above the NIC's
    serialization time, so the FIFO floor clamps arrivals on both."""
    reset_message_ids()
    sim = Simulator()
    network = make_net(sim, RngRegistry(seed=1234), jitter=0.01)
    a, b, c = Sink(sim, "a"), Sink(sim, "b"), Sink(sim, "c")
    for node in (a, b, c):
        network.register(node, 100e6)
    network.fault_injector = stage
    for index in range(40):
        network.send(Message("a", "b", ("a", index), 100))
        network.send(Message("c", "b", ("c", index), 100))
    sim.run()
    counters = (
        network.messages_sent, network.messages_scheduled,
        network.messages_dropped, network.messages_delivered,
    )
    return b.received, b.ids, counters


class TestFaultStageEquivalence:
    def test_pass_through_stage_changes_nothing(self):
        """The fault stage is a separate path from the plain send; with
        a stage that perturbs nothing, every arrival, id and counter must
        be what the plain path produces."""
        stage = PassThroughStage()
        plain = _two_clamped_flows(None)
        staged = _two_clamped_flows(stage)
        assert stage.seen == 80
        assert staged == plain
        received, _ids, counters = plain
        assert counters == (80, 80, 0, 80)
        for flow in ("a", "c"):
            arrivals = [when for (src, _), when in received if src == flow]
            clamped = [
                later == earlier + _FIFO_EPSILON
                for earlier, later in zip(arrivals, arrivals[1:])
            ]
            assert sum(clamped) >= 5, flow


class TestFabricAccountingIdentity:
    def test_identity_under_duplicate_and_drop(self, sim, rngs):
        """sent - dropped + duplicated == scheduled, exactly, even when
        drop and duplicate faults hit the same traffic."""
        network = make_net(sim, rngs)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        network.register(a, 100e6)
        network.register(b, 100e6)
        plan = (
            FaultPlan()
            .drop_messages(0.4, start=0.0, duration=60.0)
            .duplicate_messages(0.4, start=0.0, duration=60.0)
        )
        install_message_faults(network, rngs, plan)
        for index in range(200):
            sim.call_at(
                index * 0.01,
                lambda index=index: network.send(
                    Message("a", "b", index, 100)
                ),
            )
        sim.run()
        # Both fault kinds actually fired.
        assert network.messages_dropped > 0
        assert network.messages_duplicated > 0
        assert network.messages_sent == 200
        assert (
            network.messages_sent
            - network.messages_dropped
            + network.messages_duplicated
            == network.messages_scheduled
        )
        # The run drained: everything scheduled was delivered.
        assert network.messages_delivered == network.messages_scheduled
        assert network.messages_in_flight == 0
        assert len(b.received) == network.messages_delivered

    def test_identity_counts_source_failure_drops(self, sim, net_pair):
        network, a, b = net_pair
        a.fail()
        network.send(Message("a", "b", "x", 10))
        assert network.messages_sent == 1
        assert network.messages_dropped == 1
        assert network.messages_scheduled == 0
        assert network.messages_in_flight == 0

    def test_in_flight_tracks_undelivered(self, sim, net_pair):
        network, a, b = net_pair
        network.send(Message("a", "b", "x", 100))
        assert network.messages_in_flight == 1
        sim.run()
        assert network.messages_in_flight == 0
        assert network.messages_delivered == 1


class TestTrafficAccounting:
    def test_control_vs_data_separated(self, sim, net_pair):
        network, a, b = net_pair
        network.send(Message("a", "b", "c", 100))
        network.send_paced(Message("a", "b", "d", 1000, kind=KIND_DATA), 0.1)
        sim.run()
        assert network.control_bytes_from["a"].total == 100
        assert network.data_bytes_from["a"].total == 1000

    def test_control_rate_snapshot(self, sim, net_pair):
        network, a, b = net_pair
        for _ in range(10):
            network.send(Message("a", "b", "c", 100))
        sim.run(until=10.0)
        assert network.control_rate_from("a", 10.0) == pytest.approx(100.0)
        # Window resets after snapshot.
        assert network.control_rate_from("a", 20.0) == 0.0


def _noisy_chaos_plan(duration):
    """``standard_chaos_plan`` plus the three message faults it leaves
    out, so every kind of perturbation the injector knows is drawn."""
    plan = standard_chaos_plan(duration=duration, drop_rate=0.05)
    plan.delay_messages(0.004, start=2.0, duration=6.0, jitter=0.002)
    plan.duplicate_messages(0.05, start=4.0, duration=8.0, kind="data")
    plan.reorder_messages(0.05, 0.01, start=6.0, duration=8.0, kind="data")
    return plan


class TestEveryDeliveryPaysTheBaseLatency:
    """The fabric never schedules a delivery sooner than
    ``base_latency`` after the send — with or without a fault injector,
    whose ``perturb`` only delays, duplicates or drops.  (This is the
    lookahead bound a conservative parallel kernel would need; DESIGN.md
    §8.)"""

    @pytest.mark.parametrize(
        "injected", [False, True], ids=["plain", "fault-injector"]
    )
    def test_chaos_run(self, monkeypatch, injected):
        config = small_config()
        duration = 20.0
        plan = (
            _noisy_chaos_plan(duration) if injected
            else FaultPlan(name="quiet")
        )
        real_post, real_call_at = Simulator.post, Simulator.call_at
        leads, branches, cancellable = [], set(), []

        def post_spy(sim, time, fn, arg):
            if getattr(fn, "__func__", None) is SwitchedNetwork._deliver:
                leads.append(time - sim.now)
                branches.add(fn.__self__.fault_injector is not None)
            return real_post(sim, time, fn, arg)

        def call_at_spy(sim, time, fn, *args, **kwargs):
            if getattr(fn, "__func__", None) is SwitchedNetwork._deliver:
                cancellable.append(time)
            return real_call_at(sim, time, fn, *args, **kwargs)

        monkeypatch.setattr(Simulator, "post", post_spy)
        monkeypatch.setattr(Simulator, "call_at", call_at_spy)
        harness = ChaosHarness(config, plan, seed=3, duration=duration)
        report = harness.run()

        # Every delivery is posted (none is a cancellable Event), and
        # every one the fabric scheduled passed the spy.
        assert branches == {injected}
        assert not cancellable
        assert len(leads) == report.totals["messages_scheduled"] > 1000
        assert min(leads) >= config.net_base_latency - 1e-12
        if injected:
            stats = report.message_stats
            assert stats["dropped"] and stats["delayed"]
            assert stats["duplicated"] and stats["reordered"]
