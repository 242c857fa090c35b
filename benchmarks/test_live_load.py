"""Live-backend load test: binary wire codec vs JSON under open-loop load.

The paper's §5 testbed is real machines streaming over a switched ATM
network; our live backend replays the protocol over localhost sockets.
This benchmark records (a) the wire-codec throughput on a deterministic
protocol frame mix, and (b) a real socket cluster run driven by the
seeded open-loop arrival generator, and asserts the codec-design shape
claim: the binary framing moves the same protocol traffic in fewer
bytes and more frames per second than JSON.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List

import pytest

from repro.core.protocol import (
    BlockData,
    ClientStart,
    StartAck,
    ViewerStateBatch,
    block_pattern,
)
from repro.core.viewerstate import ViewerState
from repro.live.cluster import ClusterScenario, run_cluster
from repro.live.wire import (
    CODEC_BINARY,
    CODEC_JSON,
    FrameDecoder,
    encode_message,
)
from repro.net.message import KIND_CONTROL, KIND_DATA, Message
from repro.obs.registry import snapshot_total
from repro.workloads.arrivals import open_loop_trace

from conftest import write_result

SEED = 0

#: Scaled-down cluster leg: enough viewers for real admission traffic,
#: short enough for the benchmark suite.
CLUSTER_CUBS = 4
CLUSTER_VIEWERS = 60
CLUSTER_DURATION_S = 8.0

#: Codec microbench: viewers in the frame-mix trace, catalog size
#: (popularity ranks), whole-block data frames and schedule-gossip
#: states synthesized per viewer, cubs the frames are spread over, and
#: timing repetitions (best rate wins).
MIX_VIEWERS = 200
MIX_NUM_FILES = 32
MIX_BLOCKS_PER_VIEWER = 4
MIX_STATES_PER_BATCH = 4
MIX_CUBS = 8
MIX_TIMING_REPEATS = 3


def build_frame_mix(viewers: int, seed: int) -> List[Message]:
    """Synthesize the protocol traffic one arrival trace implies.

    Per viewer: a start request, its ack, one viewer-state gossip
    batch, and :data:`MIX_BLOCKS_PER_VIEWER` whole-block data frames
    carrying genuine :func:`block_pattern` fingerprints.  Message ids
    are assigned sequentially from 1 — nothing here depends on process
    state, so the same ``(viewers, seed)`` always yields byte-identical
    frames.
    """
    trace = open_loop_trace(
        viewers=viewers,
        num_files=MIX_NUM_FILES,
        start=1.0,
        end=30.0,
        seed=seed,
        mode="zipf",
    )
    messages: List[Message] = []
    msg_id = 1

    def emit(src: str, dst: str, payload: Any, size: int, kind: str) -> None:
        nonlocal msg_id
        messages.append(Message(src, dst, payload, size, kind, msg_id))
        msg_id += 1

    for arrival in trace:
        client = f"client:{arrival.client_index}"
        viewer_id = f"{client}#{arrival.client_index}"
        instance = arrival.client_index + 1
        cub = f"cub:{arrival.client_index % MIX_CUBS}"
        next_cub = f"cub:{(arrival.client_index + 1) % MIX_CUBS}"
        emit(
            client, "controller",
            ClientStart(viewer_id, instance, arrival.file_index),
            64, KIND_CONTROL,
        )
        emit(
            "controller", client, StartAck(instance, "controller"),
            32, KIND_CONTROL,
        )
        states = tuple(
            ViewerState(
                viewer_id=viewer_id,
                instance=instance,
                slot=arrival.client_index % 128,
                file_id=arrival.file_index,
                block_index=hop,
                disk_id=hop % 16,
                due_time=arrival.time + hop,
                play_seqno=hop,
            )
            for hop in range(MIX_STATES_PER_BATCH)
        )
        emit(cub, next_cub, ViewerStateBatch(states=states), 256, KIND_CONTROL)
        for seqno in range(MIX_BLOCKS_PER_VIEWER):
            emit(
                cub, client,
                BlockData(
                    viewer_id=viewer_id,
                    instance=instance,
                    file_id=arrival.file_index,
                    block_index=seqno,
                    play_seqno=seqno,
                    pattern=block_pattern(arrival.file_index, seqno),
                ),
                65536, KIND_DATA,
            )
    return messages


def measure_codec(
    messages: List[Message], codec: str, repeats: int = 1
) -> Dict[str, Any]:
    """Encode + decode the whole mix; best-of-``repeats`` rate."""
    total_bytes = 0
    best_wall = float("inf")
    for _ in range(max(1, repeats)):
        start = perf_counter()
        blob = b"".join(encode_message(m, codec) for m in messages)
        decoded = FrameDecoder().feed_parsed(blob)
        wall = perf_counter() - start
        if len(decoded) != len(messages):
            raise RuntimeError(
                f"codec {codec}: decoded {len(decoded)} of "
                f"{len(messages)} frames"
            )
        total_bytes = len(blob)
        best_wall = min(best_wall, wall)
    frames_per_sec = len(messages) / best_wall if best_wall > 0 else 0.0
    return {
        "codec": codec,
        "frames": len(messages),
        "bytes": total_bytes,
        "wall_s": round(best_wall, 4),
        "frames_per_sec": round(frames_per_sec, 1),
        "mean_frame_bytes": round(total_bytes / len(messages), 1)
        if messages else 0.0,
    }


def run_live_load():
    messages = build_frame_mix(MIX_VIEWERS, SEED)
    json_row = measure_codec(messages, CODEC_JSON, MIX_TIMING_REPEATS)
    binary_row = measure_codec(messages, CODEC_BINARY, MIX_TIMING_REPEATS)

    scenario = ClusterScenario(
        cubs=CLUSTER_CUBS,
        duration=CLUSTER_DURATION_S,
        streams=CLUSTER_VIEWERS,
        seed=SEED,
        codec=CODEC_BINARY,
        arrivals="zipf",
    )
    report = run_cluster(scenario)
    merged = report.merged
    cluster = {
        "passed": report.passed,
        "violations": snapshot_total(merged, "invariant.violations"),
        "blocks": snapshot_total(merged, "live.client_blocks_received"),
        "admitted": snapshot_total(merged, "cub.inserts_performed"),
        "wire_frames_binary": snapshot_total(
            merged, "live.wire_frames", codec=CODEC_BINARY
        ),
        "lateness_p99": snapshot_total(merged, "live.block_lateness_p99"),
    }
    return json_row, binary_row, cluster


@pytest.mark.benchmark(group="live_load")
def test_live_load(benchmark):
    json_row, binary_row, cluster = benchmark.pedantic(
        run_live_load, rounds=1, iterations=1
    )

    speedup = binary_row["frames_per_sec"] / json_row["frames_per_sec"]
    # The committed file keeps only what a rerun reproduces; the
    # wall-clock figures are printed.
    lines = [
        "live backend — open-loop load over real sockets "
        f"({CLUSTER_CUBS} cub processes, "
        f"{CLUSTER_VIEWERS} viewers, zipf arrivals, seed {SEED})",
        "",
        "codec microbench (encode+decode, deterministic frame mix):",
        f"{'codec':>8} {'frames':>8} {'bytes/frame':>12}",
    ]
    for row in (json_row, binary_row):
        lines.append(
            f"{row['codec']:>8} {row['frames']:>8} "
            f"{row['mean_frame_bytes']:>12.1f}"
        )
        print(f"{row['codec']}: {row['frames_per_sec']:.0f} frames/sec")
    print(f"binary speedup over json: {speedup:.2f}x")
    lines.append("")
    lines.append("cluster run (binary codec, real sockets):")
    lines.append(
        f"  report passed={cluster['passed']}  "
        f"invariant violations={cluster['violations']:g}"
    )
    print(
        f"viewers admitted={cluster['admitted']:g}  "
        f"blocks at clients={cluster['blocks']:g}  "
        f"binary wire frames={cluster['wire_frames_binary']:g}  "
        f"block lateness p99={cluster['lateness_p99']:.3f}s"
    )
    lines.append("")
    lines.append(
        "shape: binary frames are smaller and encode+decode faster than "
        "json; the live run streams real blocks with zero violations"
    )
    write_result("live_load", lines)

    # Codec shape claims.
    assert binary_row["mean_frame_bytes"] < json_row["mean_frame_bytes"]
    assert speedup >= 1.5
    # Live-run health claims.
    assert cluster["passed"]
    assert cluster["violations"] == 0
    assert cluster["blocks"] > 0
    assert cluster["wire_frames_binary"] > 0
