"""Every public function and method in ``src/`` has a caller outside tests,
every name a ``src/`` module imports is read there, and no ``src/`` module
imports another's ``_``-prefixed name.

A name-based AST check: each public top-level function and public method
defined under ``src/`` must be *used* — named as an identifier, an
attribute or an exact string — somewhere in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/``.  Definitions, imports and ``__all__``
entries do not count: a re-export is not a caller.  What only tests reach
either leaves ``src`` or is listed below with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
USERS = ("src", "bench", "benchmarks", "examples")

KEPT = {
    # Oracles the differential suites check the fast paths against.
    "PhysicalInterferenceModel.sense_mask": "carrier-sense reference of the packet medium",
    "schedule_is_feasible": "scalar feasibility oracle of the rate-path suites",
    "schedule_rates": "scalar rate oracle of the rate-path suites",
    "LinkQueues.serve_slot": "one-slot oracle of the serve differential",
    "scream_reach_exactly": "closed-form oracle of the SCREAM flood",
    # Test seams: the only handle a property suite has on a path.
    "SlotArena.n_members": "arena ≡ SlotState after every step",
    "ControlPlaneModel.is_free": "zero-price ≡ free-engine differentials",
    "RateTable.is_degenerate": "degenerate table ≡ β-threshold differentials",
    "SparsePowerMatrix.neighbors": "stored-row checks of the sparse builder",
    # The paper's constructions, reproduced for their own sake.
    "run_arbitrary_link_set": "paper construction: arbitrary link sets",
    "ArbitraryResult.n_waves": "paper construction: arbitrary link sets",
    "scream_exact": "paper construction: the exact SCREAM semantics",
    "segment_augmentation": "paper construction: Theorem 2's lattice",
    "lattice_path_hop_length": "paper construction: Theorem 2's lattice",
    "is_square_grid_convex": "paper construction: Theorem 2's lattice",
    # Read accessors of state the engines write.
    "MetricsRegistry.counter_value": "registry accessor",
    "MetricsRegistry.gauge_value": "registry accessor",
    "MetricsRegistry.n_series": "registry accessor",
    "FlowWorkload.sessions_admitted": "session-ledger accessor",
    "FlowWorkload.mean_rate": "TrafficGenerator interface",
    "TrafficGenerator.mean_rate": "TrafficGenerator interface",
    # Library API exported from ``repro`` / ``repro.phy`` for users.
    "patch_schedule": "the patch path's public entry point (README)",
    "corner_gateways": "gateway placement API",
    "mw_to_dbm": "unit conversion API",
    "db_to_linear": "unit conversion API",
    "linear_to_db": "unit conversion API",
}


def _public_definitions():
    """``qualified name -> bare name`` of every public top-level function
    and public method under ``src/``."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[node.name] = node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith(
                        "_"
                    ):
                        found[f"{node.name}.{member.name}"] = member.name
    return found


def _used_names():
    """Identifiers, attributes and exact string constants used outside
    ``tests/`` (``__all__`` lists excluded)."""
    used = set()
    for folder in USERS:
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text())
            exported = {
                id(leaf)
                for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for leaf in ast.walk(node.value)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in exported
                ):
                    used.add(node.value)
    return used


def test_every_public_entry_point_has_a_non_test_caller():
    used = _used_names()
    unreached = sorted(
        qualified
        for qualified, name in _public_definitions().items()
        if name not in used and qualified not in KEPT
    )
    assert not unreached, f"only tests reach: {unreached}"


def test_every_kept_entry_is_still_defined_and_still_unreached():
    """A stale allowlist entry hides nothing, but it lies: drop it."""
    definitions = _public_definitions()
    used = _used_names()
    stale = sorted(
        qualified
        for qualified in KEPT
        if qualified not in definitions or definitions[qualified] in used
    )
    assert not stale, f"allowlisted but defined nowhere or reached: {stale}"


def test_every_imported_name_is_read():
    """An import nothing in its module reads is dead weight: drop it.  A
    package ``__init__`` re-exports through ``__all__``, which counts."""
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                read |= {leaf.value for leaf in ast.walk(node.value) if isinstance(leaf, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [
                f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                for name in names
                if name not in read
            ]
    assert not unread, f"imported but never read: {unread}"


def test_no_module_imports_a_private_name_of_another():
    """A name another module needs is part of its owner's surface: make it
    public there, or move it to where both can reach it."""
    reached = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                reached += [
                    f"{path.relative_to(ROOT)}:{node.lineno} {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not reached, f"private names imported across modules: {reached}"
