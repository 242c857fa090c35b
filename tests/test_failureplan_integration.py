"""A fault plan driving a real TigerSystem, plus cub edge cases."""

import pytest

from repro import TigerSystem, small_config
from repro.faults.injectors import install_plan
from repro.faults.plan import FaultPlan


class TestFailurePlanIntegration:
    def test_scheduled_cub_failure_and_recovery(self):
        system = TigerSystem(small_config(), seed=41)
        system.add_standard_content(num_files=4, duration_s=240)
        client = system.add_client()
        for index in range(8):
            client.start_stream(file_id=index % 4)
        install_plan(FaultPlan().crash_cub(1, at=20.0, restart_after=25.0), system)
        system.run_for(70.0)
        assert system.cubs[1].failed is False
        assert system.total_mirror_pieces_sent() > 0
        system.assert_invariants()

    def test_scheduled_disk_failure(self):
        system = TigerSystem(small_config(), seed=42)
        system.add_standard_content(num_files=4, duration_s=240)
        client = system.add_client()
        for index in range(8):
            client.start_stream(file_id=index % 4)
        install_plan(FaultPlan().fail_disk(2, at=15.0), system)
        system.run_for(40.0)
        assert system.cubs[2].disks[2].failed
        assert system.total_mirror_pieces_sent() > 0

    def test_rolling_failures_across_distant_cubs(self):
        """Fail one cub, recover it, fail a distant one — service
        survives both (they are never simultaneously down)."""
        system = TigerSystem(small_config(), seed=43)
        system.add_standard_content(num_files=4, duration_s=300)
        client = system.add_client()
        for index in range(8):
            client.start_stream(file_id=index % 4)
        plan = (
            FaultPlan()
            .crash_cub(0, at=15.0, restart_after=25.0)
            .crash_cub(2, at=60.0)
        )
        install_plan(plan, system)
        system.run_for(90.0)
        system.finalize_clients()
        for monitor in client.all_monitors():
            # Streams progressed through both failure episodes.
            assert monitor.blocks_received > 50
        system.assert_invariants()


class TestCubEdgeCases:
    def test_failed_cub_sends_nothing(self):
        system = TigerSystem(small_config(), seed=44)
        system.add_standard_content(num_files=4, duration_s=120)
        client = system.add_client()
        client.start_stream(file_id=0)
        system.run_for(10.0)
        system.fail_cub(0)
        sent = system.cubs[0].blocks_sent.count
        system.run_for(20.0)
        assert system.cubs[0].blocks_sent.count == sent

    def test_unknown_payload_raises(self):
        system = TigerSystem(small_config(), seed=45)
        from repro.net.message import Message

        with pytest.raises(TypeError):
            system.cubs[0].handle_message(
                Message("controller", "cub:0", object(), 10)
            )

    def test_duplicate_start_request_ignored(self):
        """Client retries (controller failover) must not double-queue."""
        system = TigerSystem(small_config(), seed=46)
        system.add_standard_content(num_files=4, duration_s=120)
        from repro.core.protocol import StartRequest

        cub = system.cubs[0]
        request = StartRequest("client:0#1", 1, 0, 0, 0, 0.0)
        cub._on_start_request(request, "controller")
        cub._on_start_request(request, "controller")
        assert cub.owner.queued() == 1

    def test_mean_disk_utilization_zero_idle(self):
        system = TigerSystem(small_config(), seed=47)
        system.run_for(5.0)
        assert system.cubs[0].mean_disk_utilization() == 0.0

    def test_fail_then_recover_preserves_index(self):
        """A rebooted cub still has its disks' contents (the index is
        rebuilt from stable storage in real life; here it is shared)."""
        system = TigerSystem(small_config(), seed=48)
        system.add_file("movie", duration_s=60)
        system.start()
        system.fail_cub(1)
        system.run_for(5.0)
        system.recover_cub(1)
        index = system.indexes[1]
        assert index.num_primary_entries > 0

    def test_living_cubs_excludes_failed(self):
        system = TigerSystem(small_config(), seed=49)
        system.start()
        system.fail_cub(3)
        living = system.living_cubs()
        assert len(living) == system.config.num_cubs - 1
        assert all(cub.cub_id != 3 for cub in living)
