"""Tests for the admission guard (§5's disabled product feature)."""

import pytest

from repro import TigerSystem, small_config


def test_disabled_by_default_admits_to_capacity():
    system = TigerSystem(small_config(), seed=31)
    system.add_standard_content(num_files=4, duration_s=120)
    client = system.add_client()
    for index in range(system.config.num_slots):
        client.start_stream(file_id=index % 4)
    system.run_for(30.0)
    assert system.oracle.num_occupied == system.config.num_slots


def test_limit_caps_admitted_load():
    config = small_config(admission_load_limit=0.6)
    system = TigerSystem(config, seed=31)
    system.add_standard_content(num_files=4, duration_s=120)
    client = system.add_client()
    for index in range(config.num_slots):
        client.start_stream(file_id=index % 4)
    system.run_for(40.0)
    load = system.oracle.load
    # The guard engages near the ceiling; local estimation is a little
    # noisy, so allow one step of slack above and real admission below.
    assert 0.4 < load < 0.8, f"load {load:.2f} not held near the 0.6 limit"
    queued = sum(cub.owner.queued() for cub in system.cubs)
    assert queued > 0, "excess viewers must wait, not vanish"


def test_load_estimate_tracks_true_load():
    system = TigerSystem(small_config(), seed=32)
    system.add_standard_content(num_files=4, duration_s=120)
    client = system.add_client()
    for index in range(16):  # half of 32 slots
        client.start_stream(file_id=index % 4)
    system.run_for(25.0)
    true_load = system.oracle.load
    estimates = [cub.local_load_estimate() for cub in system.cubs]
    mean_estimate = sum(estimates) / len(estimates)
    assert mean_estimate == pytest.approx(true_load, abs=0.12)


def test_estimate_zero_before_history():
    system = TigerSystem(small_config(), seed=33)
    system.add_standard_content(num_files=2, duration_s=60)
    assert system.cubs[0].local_load_estimate() == 0.0


def test_send_window_bounded_when_no_limit_is_set():
    """Regression: the send-time window was trimmed only inside
    ``local_load_estimate()``, which the admission check never reaches
    when ``admission_load_limit`` is None (the default) — so it grew by
    one float per block sent, for ever."""
    system = TigerSystem(small_config(), seed=31)
    system.add_standard_content(num_files=4, duration_s=120)
    client = system.add_client()
    for index in range(system.config.num_slots):
        client.start_stream(file_id=index % 4)
    system.run_for(60.0)
    for cub in system.cubs:
        assert cub.blocks_sent.value() > 200
        # A 4-block-play-time window of a cub serving 8 blocks/s.
        assert len(cub._recent_send_times) <= 40
