"""``tools/reach.py``'s census, on a fixture source and without tracing:
qualified names, spans, nesting, declarations and the allow-list check."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)

SOURCE = '''\
import functools


def plain():
    return 1


@functools.lru_cache
@functools.wraps(plain)
def decorated():
    return 2


class Outer:
    def method(self):
        def inner():
            return 3

        return inner

    class Nested:
        def deep(self):
            return 4

    def documented(self):
        """Only a docstring."""

    def ellipsis(self): ...

    def passes(self):
        pass

    def abstract(self):
        """Declared, not implemented."""
        raise NotImplementedError

    def abstract_call(self):
        raise NotImplementedError("subclasses")

    def raises_other(self):
        raise ValueError("code, not a declaration")
'''

FUNCTIONS = [
    ("plain", 4, 5),
    ("decorated", 8, 11),  # from the first decorator's line
    ("Outer.method", 15, 19),
    ("Outer.method.<locals>.inner", 16, 17),
    ("Outer.Nested.deep", 22, 23),
    ("Outer.raises_other", 40, 41),
]


@pytest.fixture
def clone(tmp_path):
    module = tmp_path / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(SOURCE)
    return tmp_path


def test_functions_are_qualified_spanned_and_declarations_skipped(clone):
    assert reach.functions(clone / "src" / "repro" / "mod.py") == FUNCTIONS


@pytest.mark.parametrize(
    "body, declares",
    [
        ('"""Only a docstring."""', True),
        ("...", True),
        ("pass", True),
        ('"""Doc."""\n    raise NotImplementedError', True),
        ('raise NotImplementedError("subclasses")', True),
        ("return None", False),
        ('raise ValueError("bad input")', False),
        ('"""Doc."""\n    return 1', False),
    ],
)
def test_only_an_interface_declaration_is_not_code(body, declares):
    function = ast.parse(f"def f():\n    {body}\n").body[0]
    assert reach.declares(function) is declares


def test_a_function_nested_in_a_listed_one_is_not_listed_again(clone):
    path = clone / "src" / "repro" / "mod.py"
    listed = [name for _file, name, *_ in reach.census(clone, set())]
    assert listed == [name for name, *_ in FUNCTIONS if "<locals>" not in name]
    # Once its enclosing function is called, the nested one is listed.
    called = {(str(path), 15)}
    listed = [name for _file, name, *_ in reach.census(clone, called)]
    assert "Outer.method" not in listed and "Outer.method.<locals>.inner" in listed
    assert {file for file, *_ in reach.census(clone, set())} == {"src/repro/mod.py"}


def test_check_counts_unlisted_functions_and_stale_entries(clone, capsys):
    found = reach.census(clone, set())
    allowed = {
        ("src/repro/mod.py", "plain"): ("paper", "Section II"),
        ("src/repro/mod.py", "gone"): ("oracle", "tests/unit/test_mod.py"),
    }
    assert reach.check(found, allowed) == (len(found) - 1) + 1
    out = capsys.readouterr().out
    assert "src/repro/mod.py:4-5  plain  [paper: Section II]" in out
    assert "decorated  [UNLISTED" in out
    assert "src/repro/mod.py::gone  [STALE" in out
    everything = {(file, name): ("paper", "x") for file, name, *_ in found}
    assert reach.check(found, everything) == 0


def test_allow_list_parses_entries_and_rejects_a_line_without_a_reason(tmp_path):
    listing = tmp_path / "allow.txt"
    listing.write_text(
        "# comment\n\nsrc/repro/mod.py::Outer.method  oracle: tests/a.py checks it\n"
    )
    assert reach.allow_list(listing) == {
        ("src/repro/mod.py", "Outer.method"): ("oracle", "tests/a.py checks it")
    }
    listing.write_text("src/repro/mod.py::plain\n")
    with pytest.raises(ValueError, match="allow.txt:1"):
        reach.allow_list(listing)
