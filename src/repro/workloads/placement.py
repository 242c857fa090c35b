"""Start-order policy scenario: 95% load, VCR churn, failover.

:func:`run_policy_scenario` runs a 95%-load VCR-churn scenario — with a
mid-run controller failover, which is when client retries against the
backup land requests in retry-phase order rather than request-age
order — under one placement policy (``first-fit`` or
``deadline-greedy``) on a seeded trace, and reports startup latency
(p50/p99/max, *including* censored still-waiting starts) and block
loss.  ``benchmarks/test_placement_policies.py`` runs it per policy for
the EXPERIMENTS.md row; ``tests/test_golden_counters.py`` pins seed 0.

The scenario is built so the policy comparison is causal, not
coincidental:

* FF and DG are bit-identical until the controller dies (chronological
  wait queues make oldest-first equal FIFO), so every divergent sample
  traces back to the failover.
* Three dead-window waves are issued at offsets whose retry phases
  land at the backup in *inverted* age order (+1.9 lands at +7.9,
  +3.0 at +7.0, +4.1 at +6.1 for a 6 s takeover and 2 s ack timeout).
* The contested drain stops only long-running pre-failure viewers, so
  the freed-slot sequence — and hence the set of service instants — is
  the same under every policy; the disciplines differ only in which
  queued viewer gets each instant.

Everything runs on the discrete-event simulator, so every field of a
:class:`PolicyOutcome` is a pure function of ``(policy, seed)``.
The fig-10 claim it backs: deadline-greedy improves startup-latency p99
or block loss over first-fit under churn with a controller failover.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.config import small_config
from repro.core.tiger import TigerSystem
from repro.sim.rng import RngRegistry


@dataclasses.dataclass
class PolicyOutcome:
    """One policy's run through the shared failover-churn scenario."""

    policy: str
    streams: int
    censored: int
    p50_ms: int
    p99_ms: int
    max_ms: int
    loss_blocks: int
    events: int
    sim_seconds: float


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def run_policy_scenario(policy: str, seed: int = 0) -> PolicyOutcome:
    """Drive one policy through the 95%-load churn + failover trace.

    The churn RNG stream is keyed by seed only, so every policy sees
    the byte-identical operation sequence; outcomes differ only through
    the order in which cubs serve their waiting starts.
    """
    config = dataclasses.replace(small_config(), placement=policy)
    system = TigerSystem(config, seed=seed)
    system.add_standard_content(num_files=5, duration_s=120.0)
    system.enable_controller_backup()
    client = system.add_client()
    rng = RngRegistry(seed).stream("placement-churn")

    # Fill to 95% of the slot ring, then let the ramp settle.
    target = max(1, int(round(config.num_slots * 0.95)))
    active = [client.start_stream(index % 5) for index in range(target)]
    paused: List[int] = []

    def churn(steps: int, starts: bool = True) -> None:
        for _ in range(steps):
            roll = rng.random()
            if (
                roll < 0.35
                and starts
                and len(active) + len(paused) < target
            ):
                active.append(client.start_stream(rng.randrange(5)))
            elif roll < 0.55 and active:
                victim = active.pop(rng.randrange(len(active)))
                if client.pause_stream(victim) is not None:
                    paused.append(victim)
            elif roll < 0.8 and paused:
                resumed = client.resume_stream(
                    paused.pop(rng.randrange(len(paused)))
                )
                if resumed is not None:
                    active.append(resumed)
            elif active:
                client.stop_stream(active.pop(rng.randrange(len(active))))
            system.run_for(rng.uniform(0.3, 1.2))

    system.run_for(8.0)
    churn(8)
    # Top the ring back up so *placed* occupancy is back at 95% and
    # the wait queues are empty: the dead-window waves must contest a
    # full schedule identically on every seed.
    while len(active) < target:
        active.append(client.start_stream(rng.randrange(5)))
    system.run_for(8.0)

    prefail = list(active)
    system.fail_controller()
    # Dead-window waves whose retry phases land at the backup in
    # inverted age order (see the module docstring).  Cycling a small
    # file set lands every wave in the same wait queues: cross-wave
    # queue-mates are what the two disciplines order differently.
    waves = ((1.9, 3), (3.0, 3), (4.1, 4))
    elapsed = 0.0
    for offset, count in waves:
        system.run_for(offset - elapsed)
        elapsed = offset
        for index in range(count):
            active.append(client.start_stream(index % 3))
    system.run_for(8.2 - elapsed)
    # VCR departures while the landed waves contest the full ring:
    # each stop frees a slot at a spread instant and the queued
    # viewers claim them in policy order.  Only long-running
    # (pre-failure) viewers depart, so the freed-slot sequence is the
    # same under every policy and the comparison isolates the queue
    # discipline itself.
    for _ in range(8):
        if prefail:
            victim = prefail.pop(rng.randrange(len(prefail)))
            active.remove(victim)
            client.stop_stream(victim)
        system.run_for(rng.uniform(0.4, 1.0))
    # A full ring rotation serves every queued wave viewer from the
    # freed slots before ordinary churn resumes, so the recorded tail
    # reflects the queue discipline, not later churn interactions.
    system.run_for(8.5)
    system.recover_controller()
    # Post-recovery VCR churn without new admissions: fresh starts at
    # 95% occupancy have chaotic multi-second waits either way (no
    # systematic policy difference), so admitting them here would only
    # add variance to the tail the experiment is measuring.
    churn(10, starts=False)
    system.run_for(15.0)
    system.finalize_clients()
    system.assert_invariants()

    now = system.sim.now
    latencies_s: List[float] = []
    censored = 0
    loss = 0
    for monitor in client.all_monitors():
        loss += monitor.blocks_missed
        latency = monitor.startup_latency
        if latency is None:
            if monitor.stopped:
                continue  # withdrawn before service; no wait to charge
            latency = max(0.0, now - monitor.request_time)
            censored += 1
        latencies_s.append(latency)

    return PolicyOutcome(
        policy=policy,
        streams=len(latencies_s),
        censored=censored,
        p50_ms=int(round(_percentile(latencies_s, 0.50) * 1000)),
        p99_ms=int(round(_percentile(latencies_s, 0.99) * 1000)),
        max_ms=int(round(max(latencies_s) * 1000)),
        loss_blocks=int(loss),
        events=system.sim.events_dispatched,
        sim_seconds=now,
    )
