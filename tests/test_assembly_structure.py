"""One place each: the assembly is the only construction site.

Both backends run "the unmodified protocol classes"; this keeps them
*wired* by the same code too.  An AST walk over ``src/repro`` asserts
that every protocol class, every substrate piece and the rebalance
planning step is called at exactly one site, and that the names of the
per-backend copies this replaced stay gone.

The same walk keeps ``core/cub.py`` the paper's §4 and nothing else:
the restripe and helper tiers' cub-side services live beside the other
half of their protocols and reach the cub only through its dispatch
table, attached by the assembly.
"""

import ast
from collections import defaultdict
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: callee -> the one file allowed to call it.
SINGLE_SITES = {
    # The six protocol classes and the substrate: the assembly.
    "Cub": "core/world.py",
    "Controller": "core/world.py",
    "BackupController": "core/world.py",
    "HelperNode": "core/world.py",
    "ViewerClient": "core/world.py",
    "OnlineRestriper": "core/world.py",
    "MirrorScheme": "core/world.py",
    "SlotClock": "core/world.py",
    # The optional tiers' cub-side services: attached by the assembly.
    "CubRestripeService": "core/world.py",
    "HelperFetchService": "core/world.py",
    # weights -> plan -> journal -> attach -> start: arm_rebalance.
    "plan_rebalance": "storage/rebalance.py",
    "MoveJournal.load": "storage/rebalance.py",
}

#: Per-backend copies of the above, and two modules nothing could reach.
RETIRED_NAMES = {
    "NodeWorld", "kill_cub_plan", "kill_helper_plan",
    "build_restripe_plan", "FailurePlan", "MultiZoneGeometry",
    "RestripeExecutor",
}

#: Tier payloads the cub serves without ever naming them.
TIER_PAYLOADS = {
    "HelperFetch", "HelperFetchReply",
    "RestripeCopy", "RestripeBlock", "RestripeAck", "RestripeCommit",
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
