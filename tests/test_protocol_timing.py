"""Timing-level tests of the forwarding protocol (§4.1.1-4.1.2).

These watch the wire (via delivery hooks) to verify the *when* of the
protocol, not just the *what*: lead-time windows, deschedule
propagation distance, heartbeat cadence.
"""

import doctest


import repro
from repro import TigerSystem, small_config
from repro.core.protocol import DescheduleForward, Heartbeat, ViewerStateBatch


def test_module_doctest():
    """The README-level doctest in repro/__init__.py must stay honest."""
    results = doctest.testmod(repro, verbose=False)
    assert results.failed == 0


class TestForwardingWindows:
    def test_viewer_states_arrive_within_lead_window(self):
        """Every steady-state viewer state must arrive at its serving
        cub between maxVStateLead and (roughly) minVStateLead before its
        due time."""
        system = TigerSystem(small_config(), seed=55)
        system.add_standard_content(num_files=4, duration_s=120)
        leads = []

        def hook(message, when):
            for state in message.payload.states:
                leads.append(state.due_time - when)

        system.network.add_delivery_hook(ViewerStateBatch, hook)
        client = system.add_client()
        for index in range(8):
            client.start_stream(file_id=index % 4)
        system.run_for(30.0)

        config = system.config
        # Ignore the first insertion transient: a fresh chain's lead
        # builds up hop by hop until it reaches the window, so filter
        # to records well past the start of play.
        steady = [lead for lead in leads if lead > config.min_vstate_lead - 1.0]
        assert steady, "no steady-state forwards observed"
        pump = config.forward_pump_interval
        for lead in steady:
            assert lead <= config.max_vstate_lead + 1e-6
        # The bulk must respect the minimum lead (allowing pump jitter).
        violations = [
            lead
            for lead in steady
            if lead < config.min_vstate_lead - pump - 0.1
        ]
        assert len(violations) < len(steady) * 0.02

    def test_double_forwarding_two_recipients_per_state(self):
        """Each forwarded state reaches exactly two cubs (succ + succ2)."""
        system = TigerSystem(small_config(), seed=56)
        system.add_standard_content(num_files=2, duration_s=60)
        recipients, seqnos = {}, {}

        def hook(message, when):
            for state in message.payload.states:
                recipients.setdefault(state.key(), set()).add(message.dst)
                seqnos[state.key()] = state.play_seqno

        system.network.add_delivery_hook(ViewerStateBatch, hook)
        client = system.add_client()
        client.start_stream(file_id=0)
        system.run_for(15.0)
        steady = {
            key: cubs for key, cubs in recipients.items() if seqnos[key] > 2
        }
        assert steady
        assert all(len(cubs) == 2 for cubs in steady.values())

    def test_heartbeats_flow_at_configured_cadence(self):
        system = TigerSystem(small_config(), seed=57)
        system.add_standard_content(num_files=2, duration_s=60)
        beats = []

        def hook(message, when):
            beats.append((message.src, message.dst, when))

        system.network.add_delivery_hook(Heartbeat, hook)
        system.run_until(10.0)
        per_pair = {}
        for src, dst, when in beats:
            per_pair.setdefault((src, dst), []).append(when)
        # Every cub beacons to its deadman neighbourhood (on a 4-cub
        # ring, distance 2 wraps, so there are 3 distinct neighbours).
        expected_pairs = sum(
            len(cub.deadman.watched) for cub in system.cubs
        )
        assert len(per_pair) == expected_pairs
        interval = system.config.heartbeat_interval
        for times in per_pair.values():
            gaps = [b - a for a, b in zip(times, times[1:])]
            assert all(abs(gap - interval) < 0.05 for gap in gaps)


class TestDeschedulePropagation:
    def test_deschedule_stops_within_max_lead_horizon(self):
        """Deschedules propagate "until they're more than maxVStateLead
        in front of the slot being descheduled" — cubs far ahead hold a
        tombstone only if the request reached them."""
        system = TigerSystem(small_config(), seed=58)
        system.add_standard_content(num_files=4, duration_s=120)
        deschedule_deliveries = []

        def hook(message, when):
            deschedule_deliveries.append(message.dst)

        system.network.add_delivery_hook(DescheduleForward, hook)
        client = system.add_client()
        instance = client.start_stream(file_id=0)
        system.run_for(10.0)
        client.stop_stream(instance)
        system.run_for(5.0)
        # Bounded flood: with 4 cubs, at most controller(2) + each cub
        # reforwarding twice = well under 20 messages; crucially it
        # terminated rather than circulating forever.
        assert 2 <= len(deschedule_deliveries) <= 24
        before = len(deschedule_deliveries)
        system.run_for(10.0)
        assert len(deschedule_deliveries) == before

    def test_stale_deschedule_harmless_after_slot_reuse(self):
        """"Having a deschedule request floating around after the slot
        has been reallocated will not cause incorrect results."""
        system = TigerSystem(small_config(), seed=59)
        system.add_standard_content(num_files=4, duration_s=120)
        client = system.add_client()
        first = client.start_stream(file_id=0)
        system.run_for(8.0)
        # Stop, then immediately restart into (likely) the same slot.
        client.stop_stream(first)
        second = client.start_stream(file_id=1)
        # Re-deliver the SAME deschedule long after reallocation.
        from repro.core.viewerstate import DescheduleRequest
        from repro.core.protocol import DescheduleForward
        from repro.net.message import DESCHEDULE_BYTES, Message

        monitor = client.streams[first]
        system.run_for(10.0)
        stale = DescheduleRequest(
            monitor.viewer_id, first, slot=0, issue_time=system.sim.now
        )
        for cub in system.cubs:
            system.network.send(
                Message(
                    "controller",
                    cub.address,
                    DescheduleForward(stale),
                    DESCHEDULE_BYTES,
                )
            )
        system.run_for(10.0)
        # The new play is unharmed.
        assert client.streams[second].blocks_received > 10
        system.assert_invariants()


class TestRecovery:
    def test_recover_clears_protocol_state(self):
        system = TigerSystem(small_config(), seed=60)
        system.add_standard_content(num_files=4, duration_s=240)
        client = system.add_client()
        for index in range(8):
            client.start_stream(file_id=index % 4)
        system.run_for(15.0)
        cub = system.cubs[1]
        system.fail_cub(1)
        system.run_for(20.0)
        system.recover_cub(1)
        assert cub.owner.queued() == 0
        assert not cub.failed
        system.run_for(20.0)
        system.assert_invariants()
