"""What a live node process imports, per role.

A node is started as ``python -S -m repro.live.node``: its import graph
is the standard library plus ``repro``, and only the classes of its own
role.  Each case runs a fresh ``python -S`` that does what a node of
that role does — build its :class:`~repro.live.node.LiveNode` from a
spec (role classes, world, content), then, as ``_start`` would, bind a
runtime and build the component — and reports ``sys.modules``.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: No role loads the simulated deployment, the chaos harness, the
#: fault installer, the viewer client, workloads, analysis or MBR.
FORBIDDEN = (
    "repro.core.tiger",
    "repro.faults.harness",
    "repro.faults.injectors",
    "repro.core.client",
)
FORBIDDEN_PACKAGES = ("repro.workloads", "repro.analysis", "repro.mbr")
#: Nor does a controller or its backup load an optional tier or the
#: fault machinery: the tiers plug into cubs and clients only.
CONTROLLER_FORBIDDEN = ("repro.helpers", "repro.storage.rebalance", "repro.faults")

PROBE = """
import json, sys, time
from repro.live.node import LiveNode, build_component
from repro.live.runtime import LiveRuntime

spec = json.loads(sys.argv[1])
node = LiveNode(spec)
joined = sorted(sys.modules)
node.world.bind(LiveRuntime(time.time()), None)
build_component(spec, node.world)
print(json.dumps({
    "joined": joined,
    "started": sorted(sys.modules),
    "files": sorted(
        getattr(module, "__file__", None) or ""
        for module in list(sys.modules.values())
    ),
}))
"""

#: role -> (address, node id, the module its component's class is in)
ROLES = {
    "cub": ("cub:1", 1, "repro.core.cub"),
    "controller": ("controller", 0, "repro.core.controller"),
    "backup": ("controller-backup", 0, "repro.core.failover"),
    "helper": ("helper:0", 0, "repro.helpers.node"),
}


@functools.lru_cache(maxsize=None)
def _probe(role):
    address, node_id, _home = ROLES[role]
    spec = {
        "role": role, "node_id": node_id, "address": address,
        "namespace": 1, "port": 1, "backup_enabled": True,
        "config": {
            "num_cubs": 3, "disks_per_cub": 2, "decluster": 2,
            "helpers": 1, "helper_capacity": 4,
        },
        "content": {"num_files": 2, "duration_s": 10.0},
    }
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, json.dumps(spec)],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("role", sorted(ROLES))
def test_a_node_imports_only_its_role(role):
    report = _probe(role)
    loaded = set(report["started"])
    assert not loaded & set(FORBIDDEN), sorted(loaded & set(FORBIDDEN))
    assert not [
        name for name in loaded if name.startswith(FORBIDDEN_PACKAGES)
    ]
    assert ROLES[role][2] in loaded
    if role in ("controller", "backup"):
        assert "repro.core.cub" not in loaded
        assert not [
            name for name in loaded if name.startswith(CONTROLLER_FORBIDDEN)
        ]
    assert not [
        path for path in report["files"]
        if "site-packages" in path or "dist-packages" in path
    ]


@pytest.mark.parametrize("role", sorted(ROLES))
def test_start_imports_nothing_the_node_did_not_load_before_hello(role):
    report = _probe(role)
    assert sorted(set(report["started"]) - set(report["joined"])) == []
