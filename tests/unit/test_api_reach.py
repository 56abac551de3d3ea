"""Every public function and method in ``src/`` has a caller outside tests
or a stated reason to stay, every name a ``src/`` module imports is read
there, and no ``src/`` module imports another's ``_``-prefixed name.

A name-based AST check: each public top-level function and public method
defined under ``src/`` must be *used* — named as an identifier, an
attribute or an exact string — somewhere in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/``.  Definitions, imports and ``__all__``
entries do not count: a re-export is not a caller.  What only tests reach
either leaves ``src`` or has an entry in ``tools/reach_allow.txt``, the one
allow-list of code no entry point runs and of knobs every entry point binds
to one value, which ``tools/reach.py --functions --knobs`` enforces by
trace; the entries themselves are linted here.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
USERS = ("src", "bench", "benchmarks", "examples")

spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)
ALLOWED = reach.allow_list()


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
    allowed = {name for _file, name in ALLOWED}
    unreached = sorted(
        qualified
        for qualified, name in _public_definitions().items()
        if name not in used and qualified not in allowed
    )
    assert not unreached, f"only tests reach: {unreached}"


def test_every_allow_list_entry_names_a_function_under_src():
    """A stale entry hides nothing, but it lies: drop it."""
    missing = sorted(
        f"{file}::{name}"
        for file, name in ALLOWED
        if not reach.is_knob(name)
        and (
            not file.startswith("src/")
            or not (ROOT / file).is_file()
            or name not in {defined for defined, *_ in reach.functions(ROOT / file)}
        )
    )
    assert not missing, f"allow-listed but defined nowhere under src/: {missing}"


def test_every_knob_entry_names_a_defaulted_parameter_or_field_under_src():
    """A knob entry names ``QUALIFIED_NAME(PARAMETER=)``: a defaulted
    parameter of a function, or a defaulted init field of a dataclass,
    defined in its file; a knob that became a constant leaves the list."""
    missing = sorted(
        f"{file}::{name}"
        for file, name in ALLOWED
        if reach.is_knob(name)
        and (
            not file.startswith("src/")
            or not (ROOT / file).is_file()
            or name not in {knob for _key, knob, *_ in reach.defaulted(ROOT / file)}
        )
    )
    assert not missing, f"knobs allow-listed but defined nowhere under src/: {missing}"


def test_every_reason_is_one_kind_and_names_its_target():
    """An oracle names a test file, a gate a bench file; both must exist."""
    folders = {"oracle": ("tests/",), "gated": ("bench/", "benchmarks/")}
    wrong = []
    for (file, name), (kind, target) in sorted(ALLOWED.items()):
        path = target.split()[0].split("::")[0]
        if kind not in reach.KINDS or (
            kind in folders
            and not (path.startswith(folders[kind]) and (ROOT / path).is_file())
        ):
            wrong.append(f"{file}::{name}  {kind}: {target}")
    assert not wrong, f"reasons of an unknown kind or naming no file: {wrong}"


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
