"""Tests for the multiple-bitrate subsystem (§3.2 extension)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.disk.model import DiskParameters
from repro.disk.zones import ZONE_OUTER
from repro.mbr.admission import (
    LIMIT_DISK,
    LIMIT_NETWORK,
    MbrAdmission,
    edf_feasible,
    periodic_stream_feasible,
    run_mix_experiment,
)


class TestEdfFeasibility:
    def test_empty_is_feasible(self):
        assert edf_feasible([])

    def test_single_job(self):
        assert edf_feasible([(1.0, 2.0)])
        assert not edf_feasible([(3.0, 2.0)])

    def test_demand_accumulates(self):
        assert edf_feasible([(1.0, 1.0), (1.0, 2.0)])
        assert not edf_feasible([(1.0, 1.0), (1.1, 2.0)])

    def test_order_independent(self):
        jobs = [(0.5, 3.0), (1.0, 1.5), (0.4, 2.0)]
        assert edf_feasible(jobs) == edf_feasible(list(reversed(jobs)))

    def test_start_time_shifts_budget(self):
        assert edf_feasible([(1.0, 2.0)], start_time=0.0)
        assert not edf_feasible([(1.0, 2.0)], start_time=1.5)

    def test_negative_service_rejected(self):
        with pytest.raises(ValueError):
            edf_feasible([(-1.0, 2.0)])

    @given(
        st.lists(
            st.tuples(st.floats(0.001, 0.2), st.floats(0.1, 5.0)),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_feasible_sets_really_schedule(self, jobs):
        """If the demand test passes, serial EDF meets every deadline."""
        if not edf_feasible(jobs):
            return
        time = 0.0
        for service, deadline in sorted(jobs, key=lambda j: j[1]):
            time += service
            assert time <= deadline + 1e-9

    def test_periodic_feasibility(self):
        params = DiskParameters()
        assert periodic_stream_feasible(params, [250_000] * 5, ZONE_OUTER, 1.0)
        assert not periodic_stream_feasible(
            params, [250_000] * 20, ZONE_OUTER, 1.0
        )


class TestMbrAdmission:
    def build(self, headroom=1.0):
        return MbrAdmission(
            disk_params=DiskParameters(),
            num_disks=4,
            nic_bps=100e6,
            block_play_time=1.0,
            schedule_length=1.0,
            start_quantum=0.25,
            disk_headroom=headroom,
        )

    def test_admits_until_a_resource_binds(self):
        admission = self.build()
        admitted = 0
        while admission.try_admit(f"v{admitted}", 2e6) is not None:
            admitted += 1
        assert admitted > 10
        rejected = admission.rejections
        assert rejected[LIMIT_DISK] + rejected[LIMIT_NETWORK] == 1

    def test_network_binds_for_large_blocks(self):
        admission = self.build()
        while admission.try_admit(
            f"v{len(admission.streams)}", 8e6
        ) is not None:
            pass
        assert admission.rejections[LIMIT_NETWORK] == 1
        assert admission.limiting_resource() == LIMIT_NETWORK

    def test_disk_binds_for_small_blocks(self):
        """Small blocks pay the same seek for less data (§3.2)."""
        admission = self.build()
        while admission.try_admit(
            f"v{len(admission.streams)}", 0.4e6
        ) is not None:
            pass
        assert admission.rejections[LIMIT_DISK] == 1
        assert admission.limiting_resource() == LIMIT_DISK

    def test_release_frees_both_resources(self):
        admission = self.build()
        admission.try_admit("a", 8e6)
        disk_before = admission.disk_time_committed()
        assert admission.release("a")
        assert admission.disk_time_committed() < disk_before
        assert admission.network.utilization() == 0.0
        assert not admission.release("a")

    def test_duplicate_viewer_rejected(self):
        admission = self.build()
        admission.try_admit("a", 2e6)
        with pytest.raises(ValueError):
            admission.try_admit("a", 2e6)

    def test_headroom_reserves_disk_budget(self):
        tight = self.build(headroom=0.5)
        loose = self.build(headroom=1.0)
        for admission in (tight, loose):
            while admission.try_admit(
                f"v{len(admission.streams)}", 0.4e6
            ) is not None:
                pass
        assert len(tight.streams) < len(loose.streams)

    def test_summary_fields(self):
        admission = self.build()
        admission.try_admit("a", 2e6)
        summary = admission.summary()
        assert summary["streams"] == 1.0
        assert 0 < summary["disk_utilization"] < 1


class TestMbrService:
    """What serving an admitted mix needs, decided from the admission:
    striping rotates every stream over the cub's drives, so each drive
    reads one block per stream per rotation of ``num_disks`` block play
    times."""

    def test_feasible_mix_has_no_misses(self):
        rates = [1e6, 2e6, 4e6]
        row = run_mix_experiment(rates)
        streams = int(row["streams"])
        assert streams > 10
        # The first ``streams`` offers, round-robin; a block is 1 s of data.
        blocks = [int(rates[i % 3] / 8) for i in range(streams)]
        assert periodic_stream_feasible(DiskParameters(), blocks, ZONE_OUTER, 4.0)

    def test_crossover_with_rate(self):
        """The §3.2 claim: the binding resource depends on the mix."""
        small = run_mix_experiment([0.5e6], nic_bps=100e6)
        large = run_mix_experiment([8e6], nic_bps=100e6)
        assert small["limiting"] == LIMIT_DISK
        assert large["limiting"] == LIMIT_NETWORK

    def test_overcommitted_disk_misses_deadlines(self):
        """25 x 250 KB blocks a second (~61 ms each) overrun one disk:
        the admission stops short of them, and what it admits fits."""
        admission = MbrAdmission(
            disk_params=DiskParameters(),
            num_disks=1,
            nic_bps=1e9,
            block_play_time=1.0,
            schedule_length=1.0,
        )
        while admission.try_admit(
            f"v{len(admission.streams)}", 2e6
        ) is not None:
            pass
        admitted = [stream.block_bytes for stream in admission.streams.values()]
        assert admitted == [250_000] * len(admitted)
        assert len(admitted) < 25
        assert admission.rejections[LIMIT_DISK] == 1
        params = admission.disk_params
        assert periodic_stream_feasible(params, admitted, ZONE_OUTER, 1.0)
        assert not periodic_stream_feasible(
            params, [250_000] * 25, ZONE_OUTER, 1.0
        )
