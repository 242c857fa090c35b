"""Command-line interface: quick Tiger runs without writing a script.

Subcommands:

* ``demo``     — run a small system with N streams, print delivery stats
                 and the Figure 3/7-style view of the schedule; with
                 ``--restripe`` also run an online capacity-weighted
                 restripe under that load, print its plan and estimate,
                 and exit 1 unless it finishes with no block missed;
* ``failover`` — run the §5 reconfiguration drill and print the loss
                 window; ``--recover`` brings the victim back as well;
* ``capacity`` — print the derived capacity numbers for a configuration;
* ``chaos``    — run a fault-injection soak under the runtime invariant
                 monitor and print the deterministic replay fingerprint;
* ``report``   — regenerate EXPERIMENTS.md from benchmark results;
* ``cluster``  — run the schedule protocol over real sockets: one OS
                 process per cub/controller on localhost, optional
                 mid-run SIGKILL of a cub, optional ``--compare-sim``
                 replay of the identical scenario in the simulator.

``demo``, ``failover`` and ``chaos`` also accept ``--trace PATH`` (Chrome
JSON by default, JSONL when the path ends in ``.jsonl``; the record
count per category is printed) and ``--metrics-out PATH`` (registry
snapshot JSON, with one ``sample.*`` measurement window over the whole
run; ``demo`` also prints it as a table).  See ``docs/OBSERVABILITY.md``
for the full name inventory.

Usage::

    python -m repro demo --streams 12 --seconds 30
    python -m repro demo --seconds 60 --metrics-out metrics.json
    python -m repro demo --streams 16 --seconds 90 --restripe 1,2 \\
        --restripe-throttle 0.5 --restripe-journal restripe.jsonl
    python -m repro failover --load 0.5
    python -m repro failover --recover --trace failover.json
    python -m repro capacity --cubs 14 --disks 4
    python -m repro chaos --seconds 90 --drop-rate 0.01 --trace out.json
    python -m repro report
    python -m repro cluster --cubs 4 --duration 20 --compare-sim
    python -m repro cluster --cubs 3 --duration 15 --kill-cub 1
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from collections import Counter
from typing import List, Optional

from repro import TigerSystem, TigerConfig, paper_config, small_config
from repro.core.metrics import MetricsCollector
from repro.analysis.render import (
    render_disk_schedule,
    render_metrics_table,
    render_view_summary,
)
from repro.helpers.node import origin_offload_ratio
from repro.obs.export import write_trace
from repro.obs.registry import snapshot_total
from repro.sim.trace import Tracer
from repro.storage.rebalance import arm_rebalance
from repro.workloads import ContinuousWorkload

#: Ring capacity used for CLI-requested traces: big enough that a
#: default-length run exports complete, not a truncated tail.
CLI_TRACE_CAPACITY = 2_000_000

#: Exit code for rejected arguments, on every verb (argparse's own).
EXIT_USAGE = 2


class _UsageError(Exception):
    """Rejected arguments; :func:`main` prints ``error: <message>``."""


@contextlib.contextmanager
def _constructing():
    """A ``ValueError`` while *building* what a verb runs is the user's
    input being rejected: the library's message becomes the one
    ``error:`` line and exit code 2.  Only construction goes inside —
    an exception out of the run itself must still surface as a failure.
    """
    try:
        yield
    except ValueError as error:
        raise _UsageError(str(error)) from None


def _make_tracer(args) -> Optional[Tracer]:
    """A capture tracer when ``--trace`` was given, else None."""
    if args.trace is None:
        return None
    tracer = Tracer(capacity=CLI_TRACE_CAPACITY)
    tracer.enable()
    return tracer


def _export_trace(path: str, tracer: Tracer) -> None:
    counts = Counter(record.category for record in tracer.records)
    print(f"{len(tracer.records)} trace records "
          f"({tracer.dropped} dropped) across {len(counts)} categories:")
    for category in sorted(counts):
        print(f"  {category:<20} {counts[category]}")
    written = write_trace(path, tracer.records)
    fmt = "jsonl" if path.endswith(".jsonl") else "chrome"
    print(f"wrote {written} trace records to {path} [{fmt}]")
    if fmt == "chrome":
        print("open in a Chromium browser at about://tracing, or at "
              "https://ui.perfetto.dev")


def _export_metrics(path: str, system: TigerSystem) -> None:
    # One measurement window over the whole run, so the snapshot
    # carries the paper's §5 series as ``sample.*``.
    MetricsCollector(system).sample()
    registry = system.export_metrics()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.to_json())
        handle.write("\n")
    print(f"wrote {len(registry.names())} metric families to {path}")


def _export_outputs(args, tracer: Optional[Tracer], system) -> None:
    """Write whatever ``--trace`` / ``--metrics-out`` asked for."""
    if tracer is not None:
        _export_trace(args.trace, tracer)
    if args.metrics_out is not None and system is not None:
        _export_metrics(args.metrics_out, system)


def _check_output_paths(args) -> None:
    """Outputs are written after the run: refuse one whose directory is
    missing before the clock moves, not after."""
    for flag, path in (("--trace", getattr(args, "trace", None)),
                       ("--metrics-out", args.metrics_out)):
        if path is not None:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise ValueError(f"{flag}: no directory {directory!r}")


def _check_run_shape(args) -> None:
    """A DES verb's run must be one: positive simulated time, a stream
    count, a load fraction of the schedule."""
    if args.seconds <= 0:
        raise ValueError("--seconds must be positive")
    if getattr(args, "streams", 0) < 0:
        raise ValueError("--streams must be >= 0")
    if not 0.0 < getattr(args, "load", 1.0) <= 1.0:
        raise ValueError("--load must be in (0, 1]")


def _cli_config(args) -> TigerConfig:
    """Base config for a subcommand, with the config fields its flags
    set (``--helpers`` …) applied; the config checks them."""
    fields = ("helpers", "helper_capacity")
    preset = paper_config if args.paper else small_config
    return preset(**{
        name: getattr(args, name) for name in fields if hasattr(args, name)
    })


def _build_system(args, tracer: Optional[Tracer] = None) -> TigerSystem:
    system = TigerSystem(_cli_config(args), seed=args.seed, tracer=tracer)
    system.add_standard_content(
        num_files=args.files, duration_s=args.file_seconds
    )
    return system


def _parse_restripe_weights(spec: str, config: TigerConfig) -> tuple:
    """Decode ``--restripe`` weights.

    Accepts either ``num_disks`` comma-separated integers (one per
    disk) or ``disks_per_cub`` integers (one per *local* disk slot,
    replicated across every cub — the natural spelling for a
    mixed-generation upgrade where each cub got the same new drive).
    """
    try:
        values = tuple(int(part) for part in spec.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"weights must be integers: {spec!r}")
    if not values:
        raise ValueError("no weights given")
    if any(weight < 1 for weight in values):
        raise ValueError("weights must be >= 1")
    if len(values) == config.num_disks:
        return values
    if len(values) == config.disks_per_cub:
        # disk d's local slot on its cub is d // num_cubs.
        return tuple(
            values[disk // config.num_cubs] for disk in range(config.num_disks)
        )
    raise ValueError(
        f"expected {config.num_disks} per-disk or "
        f"{config.disks_per_cub} per-local-slot weights, got {len(values)}"
    )


def _print_restripe_plan(restriper) -> None:
    """What an armed restripe will do, before the clock moves."""
    from repro.disk.zones import ZONE_OUTER
    from repro.storage.restripe import estimate_restripe_time

    plan, config = restriper.plan, restriper.config
    block_bytes = config.block_bytes
    disk_rate = block_bytes / config.disk.expected_read_time(
        ZONE_OUTER, block_bytes
    )
    estimate = (
        estimate_restripe_time(
            plan, disk_rate, disk_rate, config.cub_nic_bps
        )
        if plan.moves else 0.0
    )
    print(f"plan: {len(plan.moves)} moves, {plan.total_bytes} bytes, "
          f"weights {plan.new_layout.disk_weights}")
    print(f"analytic estimate (dedicated resources): {estimate:.1f}s; "
          f"throttle {restriper.throttle:.0%} of NIC under live load")
    skipped = int(restriper.moves_skipped.value())
    if skipped:
        print(f"journal resume: {skipped} moves already committed, "
              f"never re-run")


def _print_restripe_summary(restriper) -> None:
    journal = restriper.journal
    state = (
        "aborted" if restriper.aborted
        else "finished" if restriper.finished
        else "suspended" if restriper.suspended
        else "in progress"
    )
    print(f"restripe {state}: "
          f"{int(restriper.moves_committed.value())} committed + "
          f"{int(restriper.moves_skipped.value())} resumed-skipped of "
          f"{len(restriper.plan.moves)} moves "
          f"({restriper.progress_ratio():.0%}), "
          f"{int(restriper.bytes_moved.value())} bytes, "
          f"{int(restriper.retries.value())} retries")
    if restriper.finished:
        elapsed = restriper.finished_at - restriper.started_at
        print(f"restripe elapsed {elapsed:.1f}s, "
              f"placement {restriper.result_fingerprint()[:16]}…")
    if journal.path is not None:
        print(f"restripe journal: {journal.path} "
              f"({len(journal.records)} records)")


def _check_victim(args, config) -> None:
    """Validate a ``--victim`` cub id against the chosen config."""
    if not 0 <= args.victim < config.num_cubs:
        raise ValueError(
            f"--victim must be a cub id in 0..{config.num_cubs - 1}"
        )


def cmd_demo(args) -> int:
    tracer = _make_tracer(args)
    with _constructing():
        _check_run_shape(args)
        _check_output_paths(args)
        system = _build_system(args, tracer=tracer)
        restriper = None
        if args.restripe is not None:
            restriper = arm_rebalance(
                system,
                _parse_restripe_weights(args.restripe, system.config),
                args.restripe_throttle,
                args.restripe_start,
                args.restripe_journal,
            )
        workload = ContinuousWorkload(system)
    if restriper is not None:
        _print_restripe_plan(restriper)
    workload.add_streams(args.streams)
    system.run_for(args.seconds)
    system.finalize_clients()
    if restriper is not None:
        _print_restripe_summary(restriper)

    print(f"t={system.sim.now:.1f}s  "
          f"{system.oracle.num_occupied}/{system.config.num_slots} slots "
          f"({system.oracle.load:.0%} load)")
    print(f"delivered {system.total_client_received()} blocks, "
          f"missed {system.total_client_missed()}, "
          f"late {system.total_client_late()}")
    if system.helpers:
        snapshot = system.registry.snapshot()
        served = snapshot_total(snapshot, "helper.blocks_served")
        fills = snapshot_total(snapshot, "cub.helper_fetches_served")
        print(f"helper tier: {len(system.helpers)} helper(s) served "
              f"{served:.0f} blocks "
              f"({origin_offload_ratio(snapshot):.0%} offload, "
              f"{fills:.0f} cache fills)")
    latencies = workload.startup_latencies()
    if latencies:
        print(f"startup latency: min {min(latencies):.2f}s "
              f"mean {sum(latencies)/len(latencies):.2f}s "
              f"max {max(latencies):.2f}s")
    print()
    occupancy = {
        slot: system.oracle.occupant(slot).viewer_id
        for slot in system.oracle.occupied_slots()
    }
    print(render_disk_schedule(system.clock, occupancy, system.sim.now))
    print()
    print(render_view_summary(system))
    system.assert_invariants()
    _export_outputs(args, tracer, system)
    if args.metrics_out is not None:
        print(render_metrics_table(system.registry.snapshot()))
    if restriper is not None and not (
        restriper.finished and system.total_client_missed() == 0
    ):
        return 1
    return 0


def cmd_failover(args) -> int:
    tracer = _make_tracer(args)
    with _constructing():
        _check_run_shape(args)
        _check_output_paths(args)
        system = _build_system(args, tracer=tracer)
        _check_victim(args, system.config)
        workload = ContinuousWorkload(system)
    target = int(system.config.num_slots * args.load)
    workload.add_streams(target)
    system.run_for(15.0)
    failure_time = system.sim.now
    print(f"t={failure_time:.1f}s: failing cub {args.victim}")
    system.fail_cub(args.victim)
    system.run_for(args.seconds)
    if args.recover:
        print(f"t={system.sim.now:.1f}s: recovering cub {args.victim}")
        system.recover_cub(args.victim)
        system.run_for(args.seconds)
    system.finalize_clients()
    losses = sorted(
        when
        for client in system.clients
        for monitor in client.all_monitors()
        for when in monitor.loss_times
    )
    if losses:
        print(f"{len(losses)} blocks lost between "
              f"t={losses[0]:.1f}s and t={losses[-1]:.1f}s "
              f"(window {losses[-1] - losses[0]:.1f}s; paper: ~8 s)")
    else:
        print("no losses recorded")
    print(f"mirror pieces sent: {system.total_mirror_pieces_sent()}")
    system.assert_invariants()
    _export_outputs(args, tracer, system)
    return 0


def cmd_capacity(args) -> int:
    with _constructing():
        config = TigerConfig(
            num_cubs=args.cubs,
            disks_per_cub=args.disks,
            decluster=args.decluster,
        )
    print(f"{config.num_cubs} cubs x {config.disks_per_cub} disks "
          f"(decluster {config.decluster}):")
    print(f"  streams/disk (incl. failed-mode reserve): "
          f"{config.streams_per_disk:.2f}")
    print(f"  system capacity: {config.num_slots} streams")
    print(f"  schedule: {config.schedule_duration:.0f}s ring, "
          f"{config.block_service_time * 1000:.1f} ms slots")
    print(f"  block: {config.block_bytes // 1000} KB primary + "
          f"{config.decluster} x {config.mirror_piece_bytes() // 1000} KB "
          f"pieces")
    return 0


def cmd_chaos(args) -> int:
    from repro.faults.harness import ChaosHarness, standard_chaos_plan
    from repro.faults.monitor import InvariantViolation

    tracer = _make_tracer(args)
    with _constructing():
        config = _cli_config(args)
        _check_output_paths(args)
        _check_victim(args, config)
        plan = standard_chaos_plan(
            duration=args.seconds,
            drop_rate=args.drop_rate,
            victim_cub=args.victim,
        )
        harness = ChaosHarness(
            config,
            plan,
            seed=args.seed,
            load=args.load,
            duration=args.seconds,
            num_files=args.files,
            file_seconds=args.file_seconds,
            tracer=tracer,
            restripe_weights=(
                None if args.restripe is None
                else _parse_restripe_weights(args.restripe, config)
            ),
            restripe_throttle=args.restripe_throttle,
            restripe_start=args.restripe_start,
            restripe_journal=args.restripe_journal,
        )
        harness.build()
    print("fault plan:")
    print(plan.describe())
    print()
    try:
        report = harness.run()
    except InvariantViolation as violation:
        print(f"INVARIANT VIOLATION\n{violation}")
        # Export whatever was captured anyway: a violated run is
        # exactly when the forensics matter most.
        _export_outputs(args, tracer, harness.system)
        return 1
    for line in report.lines():
        print(line)
    if harness.system is not None and harness.system.restriper is not None:
        _print_restripe_summary(harness.system.restriper)
    _export_outputs(args, tracer, harness.system)
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import load_sections, render

    if not os.path.isdir(args.results):
        raise _UsageError(f"--results: no directory {args.results!r}")
    document = render(load_sections(args.results))
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document)
    print(f"wrote {args.output}")
    return 0


#: ``repro cluster`` exit codes (also in the subcommand's ``--help``):
#: 0 = run completed and every acceptance check (including the
#: ``--compare-sim`` tolerance bands) passed; 1 = run completed but a
#: check or sim/live comparison failed; 2 = bad arguments (argparse or
#: scenario validation — :data:`EXIT_USAGE`, as on every verb); 3 = the
#: driver itself died (boot failure, node crash take-down, replay
#: error) — reported as one line on stderr, never a traceback.
EXIT_CLUSTER_MISMATCH = 1
EXIT_CLUSTER_DRIVER_ERROR = 3


def cmd_cluster(args) -> int:
    # Imported lazily: the live backend drags in asyncio/subprocess
    # machinery no simulated subcommand needs.
    from repro.live.cluster import ClusterScenario, run_cluster

    with _constructing():
        _check_output_paths(args)
        scenario = ClusterScenario(
            cubs=args.cubs,
            duration=args.duration,
            streams=args.streams,
            seed=args.seed,
            kill_cub=args.kill_cub,
            kill_at=args.kill_at,
            backup=not args.no_backup,
            num_files=args.files,
            file_duration_s=args.file_seconds,
            deadman_timeout=args.deadman,
            codec=args.codec,
            arrivals=args.arrivals,
            helpers=args.helpers,
            helper_capacity=args.helper_capacity,
            kill_helper=args.kill_helper,
            churn=args.churn,
            restripe_throttle=args.restripe_throttle,
            restripe_start=args.restripe_start,
            restripe_journal=args.restripe_journal,
        )
        if args.restripe is not None:
            scenario = dataclasses.replace(
                scenario,
                restripe_weights=_parse_restripe_weights(
                    args.restripe, scenario.config()
                ),
            )
    try:
        report = run_cluster(
            scenario, compare_sim=args.compare_sim, echo=print
        )
    except KeyboardInterrupt:
        print("error: cluster run interrupted", file=sys.stderr)
        return EXIT_CLUSTER_DRIVER_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary: map to exit code
        print(
            f"error: cluster driver failed: {exc}", file=sys.stderr
        )
        return EXIT_CLUSTER_DRIVER_ERROR
    print()
    print(report.render())
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(report.merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote merged metrics snapshot to {args.metrics_out}")
    if args.full_metrics:
        print()
        print(render_metrics_table(report.merged))
    return 0 if report.passed else EXIT_CLUSTER_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def common(sub):
        sub.add_argument("--paper", action="store_true",
                         help="use the 14-cub paper configuration")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--files", type=int, default=8)
        sub.add_argument("--file-seconds", type=float, default=240.0)

    def helper_tier(sub):
        sub.add_argument(
            "--helpers", type=int, default=0, metavar="N",
            help="edge helper cache nodes to run (0 disables the tier)")
        sub.add_argument(
            "--helper-capacity", type=int, default=0,
            metavar="BLOCKS", dest="helper_capacity",
            help="per-helper cache capacity in blocks (0 keeps booted "
                 "helpers inert, for A/B runs on a fixed topology)")

    def observability(sub):
        sub.add_argument(
            "--trace", metavar="PATH", default=None,
            help="capture a trace; Chrome JSON, or JSONL if PATH "
                 "ends in .jsonl")
        sub.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write the metrics registry snapshot as JSON, with one "
                 "sample.* measurement window over the whole run")

    def restripe_flags(sub):
        sub.add_argument(
            "--restripe", metavar="WEIGHTS", default=None,
            help="run an online capacity-weighted restripe during the "
                 "run: comma-separated integer disk weights, either one "
                 "per disk or one per local disk slot (replicated "
                 "across cubs)")
        sub.add_argument(
            "--restripe-throttle", type=float, default=0.25,
            metavar="FRACTION", dest="restripe_throttle",
            help="cap restripe traffic at this fraction of a cub NIC "
                 "(default 0.25)")
        sub.add_argument(
            "--restripe-start", type=float, default=5.0,
            metavar="SECONDS", dest="restripe_start",
            help="when the restriper starts moving blocks (default 5)")
        sub.add_argument(
            "--restripe-journal", metavar="PATH", default=None,
            dest="restripe_journal",
            help="write-ahead move journal; an existing journal from a "
                 "crashed run is loaded and the restripe resumes")

    demo = subparsers.add_parser(
        "demo",
        help="run and inspect a system",
        epilog=(
            "exit codes: 0 = the run completed (with --restripe: and the "
            "restripe finished with zero viewer misses); 1 = the "
            "restripe is unfinished (raise --seconds or "
            "--restripe-throttle) or viewers missed blocks; 2 = bad "
            "arguments"
        ),
    )
    common(demo)
    observability(demo)
    demo.add_argument("--streams", type=int, default=12)
    demo.add_argument("--seconds", type=float, default=30.0)
    helper_tier(demo)
    restripe_flags(demo)
    demo.set_defaults(func=cmd_demo)

    failover = subparsers.add_parser("failover", help="reconfiguration drill")
    common(failover)
    observability(failover)
    failover.add_argument("--load", type=float, default=0.5)
    failover.add_argument("--victim", type=int, default=1)
    failover.add_argument("--seconds", type=float, default=45.0)
    failover.add_argument("--recover", action="store_true",
                          help="then recover the victim and run --seconds "
                               "more (reintegration)")
    failover.set_defaults(func=cmd_failover)

    capacity = subparsers.add_parser("capacity", help="derived capacity")
    capacity.add_argument("--cubs", type=int, default=14)
    capacity.add_argument("--disks", type=int, default=4)
    capacity.add_argument("--decluster", type=int, default=4)
    capacity.set_defaults(func=cmd_capacity)

    chaos = subparsers.add_parser("chaos", help="fault-injection soak")
    common(chaos)
    observability(chaos)
    chaos.add_argument("--load", type=float, default=0.5)
    chaos.add_argument("--seconds", type=float, default=120.0)
    chaos.add_argument("--drop-rate", type=float, default=0.01)
    chaos.add_argument("--victim", type=int, default=1)
    helper_tier(chaos)
    restripe_flags(chaos)
    chaos.set_defaults(func=cmd_chaos)

    report = subparsers.add_parser("report", help="rebuild EXPERIMENTS.md")
    report.add_argument("--results", default="benchmarks/results")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.set_defaults(func=cmd_report)

    cluster = subparsers.add_parser(
        "cluster",
        help="run the protocol over real sockets: one process per node",
        epilog=(
            "exit codes: 0 = all checks passed; 1 = run completed but "
            "an acceptance check or --compare-sim band failed; 2 = bad "
            "arguments; 3 = the driver itself failed (no traceback)"
        ),
    )
    cluster.add_argument("--cubs", type=int, default=4,
                         help="number of cub processes (minimum 3)")
    cluster.add_argument("--duration", type=float, default=20.0,
                         help="wall-clock seconds of protocol runtime")
    cluster.add_argument("--streams", "--viewers", dest="streams",
                         type=int, default=6,
                         help="viewer streams driven from the driver "
                              "(--viewers is an alias for load-test "
                              "phrasing)")
    cluster.add_argument("--codec", choices=("json", "binary"),
                         default="json",
                         help="preferred wire codec; negotiated per "
                              "connection, JSON-only peers keep working")
    cluster.add_argument("--arrivals",
                         choices=("stagger", "zipf", "flash"),
                         default="stagger",
                         help="viewer arrival trace: deterministic ramp, "
                              "Poisson+Zipf long tail, or live flash "
                              "crowd (see docs/WIRE.md companion "
                              "workloads)")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--files", type=int, default=8)
    cluster.add_argument("--file-seconds", type=float, default=120.0)
    cluster.add_argument("--kill-cub", type=int, default=None,
                         metavar="CUB_ID",
                         help="SIGKILL this cub mid-run (deadman drill)")
    cluster.add_argument("--kill-at", type=float, default=None,
                         metavar="SECONDS",
                         help="when to kill the victims, both at once "
                              "when both are set (default: the cub at "
                              "40%%, the helper at 50%% of duration)")
    helper_tier(cluster)
    cluster.add_argument("--kill-helper", type=int, default=None,
                         metavar="HELPER_ID",
                         help="SIGKILL this helper mid-run (viewers must "
                              "degrade to origin service)")
    cluster.add_argument("--deadman", type=float, default=3.0,
                         help="deadman timeout for the run (short "
                              "scenarios need a short deadman)")
    cluster.add_argument("--no-backup", action="store_true",
                         help="run without the backup controller node")
    restripe_flags(cluster)
    cluster.add_argument("--churn", type=int, default=0, metavar="EVENTS",
                         help="seeded VCR churn events (pause/resume/stop) "
                              "layered over the arrival plan; replayed "
                              "identically by --compare-sim")
    cluster.add_argument("--compare-sim", action="store_true",
                         help="replay the scenario in the simulator and "
                              "diff protocol counters within tolerance")
    cluster.add_argument("--metrics-out", metavar="PATH", default=None,
                         help="write the merged metrics snapshot as JSON")
    cluster.add_argument("--full-metrics", action="store_true",
                         help="also print the full merged metrics table")
    cluster.set_defaults(func=cmd_cluster)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
