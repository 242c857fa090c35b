"""Assemble EXPERIMENTS.md from the benchmark result tables.

Each benchmark writes its rows to ``benchmarks/results/<name>.txt``.
This module stitches them together with the paper's reported numbers
so the paper-vs-measured record stays mechanically in sync with the last
benchmark run; ``python -m repro report [--results DIR] [--output
FILE]`` writes the document.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

#: What the paper reports, per experiment, independent of our runs.
PAPER_CLAIMS = {
    "fig8_unfailed_loads": (
        "Figure 8 — loads with no cubs failed",
        "Cub CPU rises linearly with stream count; controller CPU flat and "
        "independent of load; disk duty linear; control traffic from one "
        "cub under 21 KB/s at 602 streams.",
    ),
    "fig9_failed_loads": (
        "Figure 9 — loads with one cub failed",
        "All 602 streams still delivered; mirroring cubs' disks above 95% "
        "duty cycle at full load; cub CPU at most ~85%; control traffic "
        "from a mirroring cub roughly double the unfailed level.",
    ),
    "fig10_startup_latency": (
        "Figure 10 — stream startup latency (4050 starts)",
        "~1.8 s floor below 50% load (1 s block transmission + ~800 ms "
        "latency and scheduling lead); mean under 5 s at 95% load; a "
        "reasonable number of >20 s outliers; some insertions took about "
        "as long as the whole 56 s schedule.",
    ),
    "table_block_loss": (
        "In-text loss table",
        "Unfailed: 15 server + 8 client losses / 4.1 M blocks "
        "(~1:180,000). Failed ramp: 46 / 3.6 M (~1:78,000). Failed steady "
        "full load: 54 / 2.1 M (~1:40,000). All server losses were late "
        "disk reads.",
    ),
    "reconfiguration_window": (
        "Reconfiguration measurement",
        "Power cut to one cub at 50% load: about 8 seconds between the "
        "earliest and latest lost block in the clients' logs.",
    ),
    "table_scalability": (
        "§3.3 scalability analysis",
        "A central controller would need 3-4 MB/s of control sends at "
        "40,000 streams / 1,000 cubs — beyond the era's PCs; distributed "
        "per-cub control traffic stays constant regardless of scale.",
    ),
    "netschedule_fragmentation": (
        "§3.2 network-schedule fragmentation",
        "Arbitrary start times fragment the 2-D schedule badly; starting "
        "viewers at multiples of block_play_time/decluster keeps "
        "fragmentation acceptable.",
    ),
    "table_restripe": (
        "§2.2 restriping",
        "Restripe time does not depend on the size of the system, only on "
        "the size and speed of the cubs and their disks.",
    ),
    "ablation_decluster": (
        "§2.3 decluster tradeoff (ablation)",
        "Decluster 4 reserves 1/5 of bandwidth but a second failure on any "
        "of 8 machines loses data; decluster 2 reserves 1/3 and survives "
        "failures more than two cubs apart.",
    ),
    "ablation_forwarding": (
        "§4.1.1 double-forwarding design choice (ablation)",
        "Single forwarding would halve viewer-state traffic, but any cub "
        "failure loses the schedule information in flight to it, plus the "
        "blocks of subsequent cubs that never received the states.",
    ),
    "ablation_leads": (
        "§4.1.1 lead-window design choice (ablation)",
        "minVStateLead tolerates latency variation and lets disks read "
        "early; bounding maxVStateLead keeps per-cub state independent of "
        "system size; the gap enables batching (typical: 4 s / 9 s).",
    ),
    "ablation_admission": (
        "§5 admission guard (ablation)",
        "Tiger contains code to prevent schedule insertions beyond a "
        "certain level, disabled for the paper's tests; without it, "
        "near-100% insertions can wait about the whole 56 s schedule, "
        "hence the recommendation to run below 90% load.",
    ),
    "ablation_deadman": (
        "deadman timeout sensitivity (ablation)",
        "The ~8 s reconfiguration window is the failure-detection "
        "latency; the ablation sweeps the deadman timeout and shows the "
        "lost-block count and window scale with it.",
    ),
    "mbr_bottleneck_crossover": (
        "§3.2 multi-bitrate bottleneck (extension)",
        "Small blocks use proportionally more disk than network (seek "
        "overhead), so whether the network or the disk limits a "
        "multiple-bitrate Tiger depends on the current set of playing "
        "files; the paper's own OC-3/4-disk cubs were always "
        "disk-limited.  Every admitted mix fits each drive over one "
        "rotation (`num_disks` block play times), the argument the "
        "pooled disk budget rests on; revolution by revolution the "
        "0.5M+8M mix does not: two drives each draw six 1 MB reads, "
        "1.23 s of expected service, in a 1 s revolution, so a server "
        "must read ahead of the network to carry the surplus.",
    ),
    "live_load": (
        "§5 testbed methodology — live socket backend (extension)",
        "The paper measured Tiger on real machines streaming over a "
        "switched ATM network.  Our live backend replays the identical "
        "protocol over localhost sockets — one process per cub, binary "
        "wire frames, open-loop Zipf arrivals — and its counters must "
        "agree with the simulator's for the same seeded arrival trace.",
    ),
    "hot_premiere": (
        "Extension — hot-premiere offload (helper tier)",
        "§2.2 motivates striping with skewed demand: a popular file's "
        "load spreads over every disk, but each viewer still costs the "
        "cub schedule one slot.  With an edge-cache helper tier in "
        "front, repeat demand for the premiere is served from cache — "
        "cub block services drop well below the no-helper baseline at "
        "zero block loss, with no schedule slot claimed for any "
        "cache-served viewer.",
    ),
    "flash_crowd": (
        "Extension — flash-crowd offload (helper tier)",
        "A flash crowd (near-simultaneous arrivals on one title) is the "
        "worst case for slot-per-viewer scheduling.  The helper tier "
        "must at least halve the cub schedule's block load (>= 2x "
        "cub-block reduction) at zero loss; arrivals landing while the "
        "first cache fill is still in flight join the in-flight warm "
        "fill instead of stampeding the origin.",
    ),
    "helper_offload": (
        "Extension — offload vs helper cache size",
        "Offload as a function of per-helper cache capacity is concave "
        "and saturating: capacity 0 is provably inert (bit-identical to "
        "no helpers), small caches capture the hot head, and past the "
        "hot set the curve flattens at the interval-caching bound — no "
        "cache can offload more than the re-read fraction of the "
        "trace.  No row misses a block, but small caches deliver "
        "blocks late: at 16 blocks the flash crowd gets 655 of its "
        "1,440 blocks past their deadline (the `late=` column).",
    ),
    "online_restripe": (
        "Extension — online restriping under live traffic",
        "§2.2 bounds restripe time by disk and network bandwidth on "
        "dedicated hardware.  The online restriper executes a "
        "mixed-generation (heterogeneous-capacity) plan while viewers "
        "stream: copies are throttled off the slot schedule, every move "
        "is journaled for crash-resume, and dual presence keeps each "
        "block readable at its source until its commit — so the online "
        "run can never beat the dedicated estimate, and finishes with "
        "zero viewer-visible loss.",
    ),
    "chaos_soak": (
        "§4–§5 correctness under faults (chaos soak)",
        "The schedule protocol's claims — single ownership of every "
        "slot visit, no orphaned viewers, convergent failure beliefs, "
        "every block accounted for — are argued to hold under message "
        "loss, disk failure, and machine failure; the paper validates "
        "them by killing a cub mid-run.  The soak re-checks all of them "
        "every simulated second while mixed faults are injected, and "
        "replays bit-identically from a seed.",
    ),
}

#: Presentation order.
EXPERIMENT_ORDER = [
    "fig8_unfailed_loads",
    "fig9_failed_loads",
    "fig10_startup_latency",
    "table_block_loss",
    "reconfiguration_window",
    "table_scalability",
    "netschedule_fragmentation",
    "table_restripe",
    "ablation_decluster",
    "ablation_forwarding",
    "ablation_leads",
    "ablation_admission",
    "ablation_deadman",
    "mbr_bottleneck_crossover",
    "live_load",
    "hot_premiere",
    "flash_crowd",
    "helper_offload",
    "online_restripe",
    "chaos_soak",
]

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure in the paper's evaluation (plus the analyses its
text makes qualitatively), reproduced by the benchmarks in
`benchmarks/`.  Measured sections below are the literal output of the
last `pytest benchmarks/ --benchmark-only` run (regenerate this file
with `python -m repro report`).

Reading guide: our substrate is a calibrated simulation, so absolute
numbers differ from the 1997 testbed; the reproduction target is the
**shape** of each result — which curves are linear, which are flat, who
wins by what factor, where the knees fall.  Each benchmark asserts its
shape claims, so a green benchmark run *is* the reproduction check.
"""


@dataclass
class Section:
    name: str
    title: str
    paper: str
    measured: Optional[str]


def load_sections(results_dir: str) -> List[Section]:
    sections = []
    for name in EXPERIMENT_ORDER:
        title, paper = PAPER_CLAIMS[name]
        path = os.path.join(results_dir, f"{name}.txt")
        measured = None
        if os.path.exists(path):
            with open(path) as handle:
                measured = handle.read().rstrip()
        sections.append(Section(name, title, paper, measured))
    return sections


def render(sections: List[Section]) -> str:
    parts = [HEADER]
    for section in sections:
        parts.append(f"\n## {section.title}\n")
        parts.append(f"**Paper:** {section.paper}\n")
        if section.measured is None:
            parts.append(
                "**Measured:** _not yet run — execute "
                f"`pytest benchmarks/ --benchmark-only` to generate "
                f"`benchmarks/results/{section.name}.txt`_\n"
            )
        else:
            parts.append("**Measured:**\n")
            parts.append("```text")
            parts.append(section.measured)
            parts.append("```\n")
    return "\n".join(parts)

