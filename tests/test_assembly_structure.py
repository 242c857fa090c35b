"""One place each: the assembly is the only construction site.

Both backends run "the unmodified protocol classes"; this keeps them
*wired* by the same code too.  An AST walk over ``src/repro`` asserts
that every protocol class, every substrate piece and the rebalance
planning step is called at exactly one site, and that the names of the
per-backend copies this replaced stay gone.

The same walk keeps ``core/cub.py`` the paper's §4 and nothing else:
the restripe and helper tiers' cub-side services live beside the other
half of their protocols and reach the cub only through its dispatch
table, attached by the host that builds the cub.

And it keeps the optional tiers outside the protocol: nothing the
protocol is built on imports a helper, MBR, restripe, live or faults
module (the DES deployment, ``core/tiger.py``, builds every tier and is
exempt), neither the cub nor the viewer client names a tier, and
``World`` builds the four protocol classes only.

And it keeps a deschedule searching nothing: the stop, pause and cancel
handlers may walk no table of the cub or of its admission state but the
one play's index entry.

And it keeps the admission core off every backend: ``core/owner.py``
imports no simulator, network, live or runtime module and holds no such
object, and the cub holds none of the tables it moved there.  The owner
decides every chain: the cub asks its deadman for no belief.

And it keeps expiry working from the due-time indexes: a prune may walk
none of the stores it expires, and the histogram sorts, never inserts.

And it keeps the DES on one event kernel (DESIGN.md §8): one class with
a ``run`` loop under ``repro/sim``, a fabric that hands deliveries to
``call_at`` and probes the simulator for nothing else, and no ``shards``
option on the system or the chaos harness.

And it keeps protocol code on the backend contract (``runtime.py``): no
module under ``core/``, ``helpers/`` or ``storage/`` reads a private
attribute of its simulator, runtime or network, and nothing but the
kernel writes the simulator's clock.

And it keeps one command line: one verb per drill, and one parser per
executable (``repro`` and a live node).

And it keeps the judge out of the cub: ``core/cub.py`` and
``core/owner.py`` name no oracle, strict mode or slot audit, and
``World.make_cub`` takes neither.

And it keeps the optional tiers declared once: the helper tier's shape
is ``TigerConfig``'s, read where it is used and threaded through no
signature, and the restripe's cross-cub copy path and the multi-hub
listener knob stay deleted.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: callee -> the one file allowed to call it.
SINGLE_SITES = {
    # The four protocol classes and the substrate: the assembly.
    "Cub": "core/world.py",
    "Controller": "core/world.py",
    "BackupController": "core/world.py",
    "ViewerClient": "core/world.py",
    "MirrorScheme": "core/world.py",
    "SlotClock": "core/world.py",
    # The optional tiers' nodes: each tier's make_* function.
    "HelperNode": "helpers/node.py",
    "OnlineRestriper": "storage/rebalance.py",
    # Their services on a cub or a client: each tier's attach function.
    "CubRestripeService": "storage/rebalance.py",
    "HelperFetchService": "helpers/__init__.py",
    "HelperClient": "helpers/__init__.py",
    # weights -> plan -> journal -> attach -> start: arm_rebalance.
    "plan_rebalance": "storage/rebalance.py",
    "MoveJournal.load": "storage/rebalance.py",
}

#: Per-backend copies of the above, and two modules nothing could reach.
RETIRED_NAMES = {
    "NodeWorld", "kill_cub_plan", "kill_helper_plan",
    "build_restripe_plan", "FailurePlan", "MultiZoneGeometry",
    "RestripeExecutor",
    # One fault installer: a plan arms each host's own fault verbs.
    "DiskFaultInjector", "ProcessFaultInjector", "RestripeFaultInjector",
    "_NetworkTopologyInjector", "InstalledFaults", "LiveFaultInjector",
    "LiveFaultError", "LIVE_SUPPORTED_KINDS", "PROCESS_KINDS",
    "install_faults", "network_events", "disk_events", "process_events",
    "restripe_events",
    # One block server (the cub) and one way a read completes (polled).
    "MbrCubSimulation", "StreamServiceStats", "EdfDiskQueue",
    "CompletionCallback", "ErrorCallback",
}

#: Tier payloads the cub serves without ever naming them.
TIER_PAYLOADS = {
    "HelperFetch", "HelperFetchReply",
    "RestripeCopy", "RestripeAck", "RestripeCommit",
}


#: The handlers every stop, pause and cancel runs through, by class ...
STOP_PATH = {
    ("core/cub.py", "Cub"): {"_on_deschedule", "_on_cancel_start"},
    ("core/owner.py", "ScheduleOwner"): {
        "cancel_start", "deschedule", "_forget_start", "_remove_queued",
        "_release",
    },
}
#: ... the one table they may iterate, and only one play's entry of it ...
PLAY_INDEX = "self._redundant_index"
#: ... and the builtins that walk their argument as a loop would.
WALKERS = {
    "all", "any", "deque", "dict", "frozenset", "list", "max", "min",
    "set", "sorted", "sum", "tuple",
}


def _calls(tree: ast.AST, name: str):
    """Calls to ``name``, however qualified (``Cub(`` or ``mod.Cub(``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = ast.unparse(node.func)
            if dotted == name or dotted.endswith("." + name):
                yield node


def _walk_sources():
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        yield path.relative_to(SRC).as_posix(), tree


def test_each_constructor_is_called_at_exactly_one_site():
    sites = defaultdict(list)
    for relative, tree in _walk_sources():
        for name in SINGLE_SITES:
            sites[name] += [
                f"{relative}:{node.lineno}" for node in _calls(tree, name)
            ]
    for name, home in SINGLE_SITES.items():
        assert len(sites[name]) == 1, (name, sites[name])
        assert sites[name][0].startswith(home + ":"), (name, sites[name])


def test_retired_names_are_defined_nowhere():
    defined = defaultdict(list)
    for relative, tree in _walk_sources():
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                defined[node.name].append(relative)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                defined[node.id].append(relative)
    assert not {
        name: defined[name] for name in RETIRED_NAMES if name in defined
    }


def test_the_assembly_does_not_know_its_backend():
    """Backends differ only in the runtime/transport objects handed in:
    no mode argument, no isinstance() on what it was given."""
    tree = ast.parse((SRC / "core/world.py").read_text(encoding="utf-8"))
    (world,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "World"
    ]
    (init,) = [
        node for node in world.body
        if isinstance(node, ast.FunctionDef) and node.name == "__init__"
    ]
    assert [arg.arg for arg in init.args.args] == [
        "self", "config", "runtime", "network", "registry", "tracer", "rngs",
    ]
    assert not list(_calls(world, "isinstance"))
    imported = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert not any(
        module.startswith(("repro.sim", "repro.live", "repro.net.switch"))
        for module in imported
    )


def test_the_cub_names_no_optional_tier():
    tree = ast.parse((SRC / "core/cub.py").read_text(encoding="utf-8"))
    named = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    } | {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    } | {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert not named & TIER_PAYLOADS
    imported = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    } | {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
    }
    assert not any(
        module.startswith(("repro.helpers", "repro.storage.rebalance"))
        for module in imported
    )


#: The judge's names: the slot audit books the schedule off the fabric,
#: so the cub and its owner neither keep its books nor know it exists.
JUDGE_NAMES = (
    "oracle", "strict", "GlobalSchedule", "SlotAudit", "SlotConflictError",
    "DISCARDED",
)


def test_the_cub_and_its_owner_know_no_judge():
    for relative in ("core/cub.py", "core/owner.py"):
        text = (SRC / relative).read_text(encoding="utf-8")
        named = re.findall(rf"\b({'|'.join(JUDGE_NAMES)})\b", text)
        assert not named, (relative, sorted(set(named)))
    world = ast.parse((SRC / "core/world.py").read_text(encoding="utf-8"))
    (make_cub,) = [
        node for node in ast.walk(world)
        if isinstance(node, ast.FunctionDef) and node.name == "make_cub"
    ]
    assert {arg.arg for arg in make_cub.args.args} == {
        "self", "cub_id", "forward_copies",
    }


def test_the_cub_has_one_dispatch_path():
    """A payload-type table, not a type-test chain a tier must join."""
    tree = ast.parse((SRC / "core/cub.py").read_text(encoding="utf-8"))
    (cub,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Cub"
    ]
    (dispatch,) = [
        node for node in cub.body
        if isinstance(node, ast.FunctionDef)
        and node.name == "handle_message"
    ]
    assert not list(_calls(dispatch, "isinstance"))


def _tables_walked(function: ast.FunctionDef):
    """``self._x`` tables a loop, comprehension or walking builtin in
    ``function`` goes through — directly or under a local name — other
    than one keyed entry of :data:`PLAY_INDEX`."""
    aliases = {
        node.targets[0].id: node.value
        for node in ast.walk(function)
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
    }
    walked = []
    for node in ast.walk(function):
        if isinstance(node, (ast.For, ast.comprehension)):
            walked.append(node.iter)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in WALKERS
            and len(node.args) == 1  # max(a, b) compares, max(t) walks
        ):
            walked += node.args
    found = set()
    for source in walked:
        nodes = list(ast.walk(source))
        for node in list(nodes):
            if isinstance(node, ast.Name) and node.id in aliases:
                nodes += ast.walk(aliases[node.id])
        own_entry = set()
        for node in nodes:
            keyed = None
            if isinstance(node, ast.Subscript):
                keyed = node.value
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "pop")
            ):
                keyed = node.func.value
            if keyed is not None and ast.unparse(keyed) == PLAY_INDEX:
                own_entry.add(id(keyed))
        found |= {
            ast.unparse(node)
            for node in nodes
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_")
            and id(node) not in own_entry
        }
    return found


def _cub_methods(source: str, class_name: str = "Cub"):
    (cub,) = [
        node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    return {
        node.name: node for node in cub.body
        if isinstance(node, ast.FunctionDef)
    }


def test_a_deschedule_walks_no_table_of_the_cub():
    """Stop, pause and cancel cost the play's own records (DESIGN.md
    §5.1), so the scan they replaced cannot quietly come back."""
    for (relative, class_name), names in STOP_PATH.items():
        methods = _cub_methods(
            (SRC / relative).read_text(encoding="utf-8"), class_name
        )
        assert names <= set(methods)
        for name in sorted(names):
            assert not _tables_walked(methods[name]), (class_name, name)


#: Packages a backend is made of; the schedule owner imports none.
BACKEND_PACKAGES = ("repro.sim", "repro.net", "repro.live", "repro.runtime")
#: Objects it may not hold, and the tables it holds in the cub's stead.
BACKEND_HANDLES = {"sim", "runtime", "network", "tracer", "registry"}
OWNER_TABLES = {
    "_wait_queues", "_queued_requests", "_cancelled_instances",
    "_seen_start_instances", "_first_considered", "redundant_requests",
    "_redundant_states", "_redundant_index", "_redundant_expiry",
    "forward_queue", "mirror_forward_queue",
}
#: The cub's old names for tables the owner now holds, and the pending
#: table's shadow copies, gone for good.
RETIRED_CUB_TABLES = {
    "_placement", "_redundant_requests", "_forward_queue",
    "_mirror_forward_queue", "_pending_service", "_aborted_service",
}


def _imports(tree: ast.AST):
    return {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    } | {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.Import) for alias in node.names
    }


def _self_attributes(tree: ast.AST):
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def test_the_schedule_owner_runs_on_no_backend():
    """§4.1's per-play records are kept with plain inputs and no
    simulator: the owner imports no backend package and holds no backend
    object, and the cub keeps none of the tables the owner holds."""
    owner = ast.parse((SRC / "core/owner.py").read_text(encoding="utf-8"))
    imported = _imports(owner)
    assert "repro.core.view" in imported
    assert not [
        module for module in imported
        if module.startswith(tuple(p + "." for p in BACKEND_PACKAGES))
        or module in BACKEND_PACKAGES
    ]
    assert not _self_attributes(owner) & BACKEND_HANDLES
    assert OWNER_TABLES <= _self_attributes(owner)
    cub = ast.parse((SRC / "core/cub.py").read_text(encoding="utf-8"))
    assert not _self_attributes(cub) & (OWNER_TABLES | RETIRED_CUB_TABLES)


#: The deadman beliefs behind a chain decision: the owner's to ask.
OWNER_BELIEFS = {
    "adopts", "believes_failed", "recently_resurrected", "next_living_cub",
}


def _belief_queries(source: str):
    """Every use of a name in :data:`OWNER_BELIEFS` in ``source``, called
    or not (an alias is called later), however qualified."""
    return sorted(
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in OWNER_BELIEFS
        or isinstance(node, ast.Name) and node.id in OWNER_BELIEFS
    )


def test_the_cub_asks_its_deadman_no_belief():
    """Serve, hold, bridge or relay, and what a death adopts, are the
    owner's answers; the cub hears verdicts and carries records out."""
    cub = (SRC / "core/cub.py").read_text(encoding="utf-8")
    assert not _belief_queries(cub)
    owner = (SRC / "core/owner.py").read_text(encoding="utf-8")
    assert {query.rsplit(".", 1)[-1] for query in _belief_queries(owner)} == {
        "adopts", "believes_failed", "recently_resurrected",
    }


def test_the_belief_check_sees_the_queries_it_replaced():
    assert _belief_queries(
        "class Cub:\n"
        "    def _on_viewer_state(self, state):\n"
        "        owner = self.layout.cub_of_disk(state.disk_id)\n"
        "        if self.deadman.adopts(owner):\n"
        "            self._bridge_state(state)\n"
        "        elif self.deadman.recently_resurrected(owner, self.sim.now):\n"
        "            self._relay_to_owner(owner, state)\n"
        "    def _advance_chain(self, state):\n"
        "        dead = self.deadman.believes_failed\n"
        "        return dead(1) or next_living_cub(2)\n"
    ) == [
        "next_living_cub", "self.deadman.adopts",
        "self.deadman.believes_failed", "self.deadman.recently_resurrected",
    ]


def test_the_walk_check_sees_the_scans_it_replaced():
    scans = _cub_methods(
        "class Cub:\n"
        "    def a(self):\n"
        "        for key in list(self._redundant_states): pass\n"
        "    def b(self):\n"
        "        self._q = [s for s in self._forward_queue if s]\n"
        "    def c(self):\n"
        "        return max(self._service_buckets, default=0.0)\n"
        "    def d(self):\n"
        "        queues = self._wait_queues\n"
        "        for disk, queue in queues.items(): pass\n"
        "    def e(self, request):\n"
        "        for n in self._redundant_index.get(request.instance, ()):\n"
        "            self._release((request.instance, n))\n"
        "        for peer in self.deadman.living_successors(self.copies): pass\n"
    )
    assert _tables_walked(scans["a"]) == {"self._redundant_states"}
    assert _tables_walked(scans["b"]) == {"self._forward_queue"}
    assert _tables_walked(scans["c"]) == {"self._service_buckets"}
    assert _tables_walked(scans["d"]) == {"self._wait_queues"}
    assert not _tables_walked(scans["e"])


#: The stores that expire by due time; their pruning works from an
#: :class:`ExpiryIndex`, never from a walk of the store.
EXPIRING_STORES = {"self._seen", "self._slot_states", "self._redundant_states"}


def test_a_prune_walks_no_store_it_expires():
    """Expiry costs what expired (DESIGN.md §5.1), so the per-prune
    rebuilds cannot quietly come back."""
    view = _cub_methods(
        (SRC / "core/view.py").read_text(encoding="utf-8"), "ScheduleView"
    )
    owner = _cub_methods(
        (SRC / "core/owner.py").read_text(encoding="utf-8"), "ScheduleOwner"
    )
    for prune in (view["prune"], owner["prune"]):
        assert not _tables_walked(prune) & EXPIRING_STORES, prune.name
    rebuilds = _cub_methods(
        "class Cub:\n"
        "    def prune(self):\n"
        "        self._seen = {k: d for k, d in self._seen.items() if d}\n"
        "        states = self._slot_states\n"
        "        for slot in list(states): pass\n"
    )
    assert _tables_walked(rebuilds["prune"]) == {
        "self._seen", "self._slot_states",
    }


def test_the_histogram_never_inserts_in_order():
    """A sample is appended and sorted on the next read; a sorted insert
    per sample is quadratic in the run."""
    tree = ast.parse((SRC / "sim/stats.py").read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    assert "bisect_right" in imported and "insort" not in imported
    assert not list(_calls(tree, "insort"))


# ----------------------------------------------------------------------
# One event kernel (DESIGN.md §8)
# ----------------------------------------------------------------------
def _classes_with_a_run_method():
    return [
        f"{relative}:{node.name}"
        for relative, tree in _walk_sources()
        if relative.startswith("sim/")
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "run"
            for item in node.body
        )
    ]


def _fabric_kernel_forks(source: str):
    """What in the fabric's source would make it serve two kernels:
    probing the simulator with ``getattr``, or handing ``_deliver`` to
    anything but ``self.sim.post``."""
    tree = ast.parse(source)
    found = [
        ast.unparse(node) for node in _calls(tree, "getattr")
        if node.args and ast.unparse(node.args[0]) in {"sim", "self.sim"}
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(
            ast.unparse(arg) == "self._deliver" for arg in node.args
        ):
            if ast.unparse(node.func) != "self.sim.post":
                found.append(ast.unparse(node))
    return found


def _init_parameters(relative: str, class_name: str):
    tree = ast.parse((SRC / relative).read_text(encoding="utf-8"))
    (init,) = [
        item
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == class_name
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    ]
    args = init.args
    return {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}


def test_the_des_has_one_event_kernel():
    assert _classes_with_a_run_method() == ["sim/core.py:Simulator"]
    switch = (SRC / "net/switch.py").read_text(encoding="utf-8")
    # One kernel entry point: every delivery is posted, and the fabric
    # builds no cancellable Event.
    assert "self.sim.post(" in switch
    assert "call_at" not in switch and "call_after" not in switch
    assert not _fabric_kernel_forks(switch)
    assert "shards" not in _init_parameters("core/tiger.py", "TigerSystem")
    assert "shards" not in _init_parameters("faults/harness.py", "ChaosHarness")


#: Packages written against the backend contract (``runtime.py``) ...
CONTRACT_PACKAGES = ("core/", "helpers/", "storage/")
#: ... and the backend objects they hold, of which they may use only
#: ``now``, ``call_at`` / ``call_after`` and ``send`` / ``send_paced``.
BACKEND_OBJECTS = {"self.sim", "self.runtime", "self.network"}


def _private_backend_reads(source: str):
    """``self.sim._x``-style reads: a private attribute of a backend
    object, which the other backend need not have."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and ast.unparse(node.value) in BACKEND_OBJECTS
    ]


def test_protocol_code_reads_only_the_runtime_contract():
    """A protocol class runs on the simulator and on ``LiveRuntime``;
    a read of ``self.sim._now`` works on the first and raises on the
    second, only once a live node reaches that line."""
    found = {
        relative: _private_backend_reads(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
        for relative in [path.relative_to(SRC).as_posix()]
        if relative.startswith(CONTRACT_PACKAGES)
    }
    assert not {relative: reads for relative, reads in found.items() if reads}


def test_the_contract_check_sees_a_private_clock_read():
    assert _private_backend_reads(
        "class Cub:\n"
        "    def handle_message(self, message):\n"
        "        self.deadman.note_heartbeat(message.payload.cub_id,"
        " self.sim._now)\n"
        "        self.runtime.call_at(self.sim.now, self.network._deliver)\n"
    ) == ["self.sim._now", "self.network._deliver"]


def _clock_writes(tree: ast.AST):
    """Assignments to an attribute named ``now``, however spelled."""
    found = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "now"
        and isinstance(node.ctx, (ast.Store, ast.Del))
    ]
    found += [
        ast.unparse(node) for name in ("setattr", "delattr")
        for node in _calls(tree, name)
        if len(node.args) > 1 and ast.unparse(node.args[1]) in ("'now'", '"now"')
    ]
    return found


def test_only_the_kernel_writes_the_clock():
    """``Simulator.now`` is a plain attribute (read on every hop of
    every block) that the dispatch loop writes; a write anywhere else
    would move simulated time behind the kernel's back."""
    from repro.sim.core import Simulator

    writers = {
        relative: _clock_writes(tree)
        for relative, tree in _walk_sources()
        if relative != "sim/core.py"
    }
    assert not {relative: found for relative, found in writers.items() if found}
    assert "now" not in vars(Simulator)
    assert _clock_writes(ast.parse((SRC / "sim/core.py").read_text("utf-8")))


def test_the_clock_write_check_sees_a_write():
    assert _clock_writes(ast.parse(
        "def tick(self, sim):\n"
        "    now = sim.now\n"
        "    self.sim.now = now + 1.0\n"
        "    sim.now += 1.0\n"
        "    setattr(sim, 'now', 0.0)\n"
    )) == ["self.sim.now", "sim.now", "setattr(sim, 'now', 0.0)"]


def test_the_kernel_fork_check_sees_the_fork_it_replaced():
    forked = (
        "class SwitchedNetwork:\n"
        "    def __init__(self, sim):\n"
        "        self.sim = sim\n"
        "        self._call_on_lane = getattr(sim, 'call_on_lane', None)\n"
        "    def _schedule_delivery(self, message, arrival):\n"
        "        if self._call_on_lane is None:\n"
        "            self.sim.post(arrival, self._deliver, message)\n"
        "        else:\n"
        "            self._call_on_lane(\n"
        "                message.dst, arrival, self._deliver, message)\n"
    )
    assert _fabric_kernel_forks(forked) == [
        "getattr(sim, 'call_on_lane', None)",
        "self._call_on_lane(message.dst, arrival, self._deliver, message)",
    ]
    # A delivery handed back to the cancellable entry is a fork too.
    assert _fabric_kernel_forks(
        "def send(self, message, arrival):\n"
        "    self.sim.call_at(arrival, self._deliver, message)\n"
    ) == ["self.sim.call_at(arrival, self._deliver, message)"]


# ----------------------------------------------------------------------
# One command line
# ----------------------------------------------------------------------
#: ``repro``'s verbs; the failover and loaded-system drills are reached
#: through ``failover`` and ``demo`` only.
VERBS = {"demo", "failover", "capacity", "chaos", "report", "cluster"}


def test_one_verb_per_drill_and_one_parser_per_executable():
    cli = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert {
        node.args[0].value for node in _calls(cli, "add_parser")
    } == VERBS
    importers = {
        relative
        for relative, tree in _walk_sources()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "argparse" in [getattr(node, "module", None)]
        + [alias.name for alias in node.names]
    }
    assert importers == {"cli.py", "live/node.py"}


# ----------------------------------------------------------------------
# The optional tiers, declared once
# ----------------------------------------------------------------------
#: Parameters the helper tier's shape used to travel through; it is the
#: config's ``helpers`` / ``helper_capacity`` / ``helper_policy`` now.
TIER_SHAPE_PARAMETERS = {
    "helper_capacity", "helper_policy", "capacity_blocks", "helper_directory",
}
#: The cross-cub restripe copy path and the multi-hub listener knob.
DELETED_NAMES = ("RestripeBlock", "moves_staged", "hub_of")


def test_the_tier_shape_is_declared_once():
    threaded = [
        f"{relative}:{node.name}({arg.arg})"
        for relative, tree in _walk_sources()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg in TIER_SHAPE_PARAMETERS
    ]
    assert not threaded
    assert "helpers" not in _init_parameters("core/tiger.py", "TigerSystem")
    assert "helpers" not in _init_parameters("faults/harness.py", "ChaosHarness")
    named = [
        f"{path.relative_to(SRC).as_posix()}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for name in DELETED_NAMES
        if name in path.read_text(encoding="utf-8")
    ]
    assert not named


# ----------------------------------------------------------------------
# The optional tiers plug in from outside
# ----------------------------------------------------------------------
#: What the protocol and its substrate are made of ...
BELOW_THE_TIERS = (
    "core/", "sim/", "net/", "disk/", "obs/", "storage/",
    "config.py", "runtime.py", "placement.py",
)
#: ... the packages none of it may import ...
TIER_PACKAGES = (
    "repro.helpers", "repro.mbr", "repro.storage.rebalance", "repro.live",
    "repro.faults",
)
#: ... but a tier's own module and the DES deployment, which builds all.
TIER_IMPORTERS = {"storage/rebalance.py", "core/tiger.py"}
#: What ``World`` builds: §4's protocol, no tier.
WORLD_MAKERS = {"make_cub", "make_controller", "make_backup_controller", "make_client"}


def _imported_modules(tree: ast.AST):
    """``(line, module)`` for every module an import anywhere in ``tree``
    may load, function-level and ``TYPE_CHECKING`` ones included; a
    relative import keeps its leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _tier_imports(tree: ast.AST):
    return [
        f"{line} {module}" for line, module in _imported_modules(tree)
        if module.startswith(".")
        or any(module == p or module.startswith(p + ".") for p in TIER_PACKAGES)
    ]


def _identifiers(tree: ast.AST):
    """Every name ``tree`` defines, binds, reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_the_protocol_imports_no_optional_tier():
    """A tier goes in one ``git rm``: the hosts that build a node attach
    the tiers to it, and nothing below them imports one."""
    found = [
        f"{relative}:{found}"
        for relative, tree in _walk_sources()
        if relative.startswith(BELOW_THE_TIERS)
        and relative not in TIER_IMPORTERS
        for found in _tier_imports(tree)
    ]
    assert not found


def test_neither_the_client_nor_the_cub_names_a_tier():
    client = ast.parse((SRC / "core/client.py").read_text(encoding="utf-8"))
    assert not [
        name for name in _identifiers(client) if "helper" in name.lower()
    ]
    cub = ast.parse((SRC / "core/cub.py").read_text(encoding="utf-8"))
    assert not [
        name for name in _identifiers(cub) if "migrat" in name.lower()
    ]
    world = ast.parse((SRC / "core/world.py").read_text(encoding="utf-8"))
    (assembly,) = [
        node for node in world.body
        if isinstance(node, ast.ClassDef) and node.name == "World"
    ]
    assert {
        node.name for node in assembly.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("make_")
    } == WORLD_MAKERS


def test_the_tier_check_sees_the_imports_it_replaced():
    assert _tier_imports(ast.parse(
        "from typing import TYPE_CHECKING\n"
        "from repro.helpers.directory import HelperDirectory\n"
        "if TYPE_CHECKING:\n"
        "    from repro.storage.rebalance import OnlineRestriper\n"
        "def make_cub(self):\n"
        "    import repro.live.node\n"
        "    from repro import faults\n"
        "    from .rebalance import CubRestripeService\n"
        "    from repro.storage.restripe import plan_restripe\n"
    )) == [
        "2 repro.helpers.directory",
        "2 repro.helpers.directory.HelperDirectory",
        "4 repro.storage.rebalance",
        "4 repro.storage.rebalance.OnlineRestriper",
        "6 repro.live.node",
        "7 repro.faults",
        "8 .rebalance",
        "8 .rebalance.CubRestripeService",
    ]
