"""``tools/reach.py``'s censuses on fixture sources: the function census
without tracing (qualified names, spans, nesting, declarations and the
allow-list check), and the knob census through the real tracer on a
fixture module run in a subprocess."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
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


KNOB_SOURCE = '''\
import dataclasses

import numpy as np


def once(x, mode="fast"):
    return x


def twice(x, scale=1.0):
    return x * scale


@dataclasses.dataclass(frozen=True)
class Settings:
    size: int
    depth: int = 3
    tags: tuple = ()
    derived: int = dataclasses.field(default=0, init=False)


def summed(values=None, seed=0):
    return float(np.sum(values))


class Base:
    def __init__(self, table=None):
        self.table = table


class Sub(Base):
    def __init__(self):
        super().__init__(table=(1, 2.5))
'''

#: Every knob binds one value but ``twice(scale=)`` (two), ``Settings(tags=)``
#: (two tuples), ``summed(values=)`` (only arrays: an input) and
#: ``Base.__init__(table=)`` (``None``, and the tuple its subclass passes).
KNOB_DRIVER = """
import numpy as np
from repro.mod import Base, Settings, Sub, once, summed, twice
once(1); once(2, mode="fast")
twice(1); twice(1, scale=2.0)
Settings(1, tags=()); Settings(2, depth=3, tags=("a", 1))
summed(np.arange(3)); summed(np.ones(2), seed=np.int64(4))
Base(); Sub()
"""


@pytest.fixture
def knob_clone(tmp_path):
    module = tmp_path / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(KNOB_SOURCE)
    return tmp_path


def test_defaulted_lists_parameters_and_init_fields_but_no_seeds(knob_clone):
    knobs = [knob for _key, knob, *_ in reach.defaulted(knob_clone / "src" / "repro" / "mod.py")]
    assert knobs == [
        "once(mode=)",
        "twice(scale=)",
        "Settings(depth=)",
        "Settings(tags=)",
        "summed(values=)",
        "Base.__init__(table=)",
    ]


def test_knob_census_reports_what_every_run_binds_to_one_setting(knob_clone, tmp_path):
    hits = tmp_path / "hits"
    hits.mkdir()
    settings = {"lines": False, "knobs": reach.watched(knob_clone)}
    (hits / "trace.json").write_text(json.dumps(settings))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(reach.TRACER), str(knob_clone / "src")]),
        TRACE_ROOT=str(knob_clone / "src" / "repro"),
        TRACE_OUT=str(hits),
    )
    subprocess.run([sys.executable, "-c", KNOB_DRIVER], env=env, check=True)
    bound = reach.bound_values(hits)
    mod = knob_clone / "src" / "repro" / "mod.py"
    values = {knob: bound[str(mod), str(key), param] for key, knob, param, _ in reach.defaulted(mod)}
    assert values["Settings(tags=)"] == {"()", "('a', 1)"}
    assert values["summed(values=)"] == {"<ndarray>"}
    # Booked to Base.__init__, whose code binds it, not to the class Sub.
    assert values["Base.__init__(table=)"] == {"None", "(1, 2.5)"}
    found = reach.knob_census(knob_clone, bound)
    assert [(file, knob, value) for file, knob, _line, value in found] == [
        ("src/repro/mod.py", "once(mode=)", "'fast'"),
        ("src/repro/mod.py", "Settings(depth=)", "3"),
    ]


def test_check_knobs_counts_unlisted_knobs_and_stale_entries(capsys):
    found = [
        ("src/repro/mod.py", "once(mode=)", 6, "'fast'"),
        ("src/repro/mod.py", "Settings(depth=)", 16, "3"),
    ]
    allowed = {
        ("src/repro/mod.py", "once(mode=)"): ("oracle", "tests/a.py sets it"),
        ("src/repro/mod.py", "twice(scale=)"): ("paper", "Section II"),
        ("src/repro/mod.py", "plain"): ("paper", "a function entry, not a knob"),
    }
    assert reach.check_knobs(found, allowed) == 1 + 1
    out = capsys.readouterr().out
    assert "src/repro/mod.py:6  once(mode=) = 'fast'  [oracle: tests/a.py sets it]" in out
    assert "Settings(depth=) = 3  [UNLISTED" in out
    assert "src/repro/mod.py::twice(scale=)  [STALE" in out
    assert "plain" not in out
    listed = dict.fromkeys(((file, knob) for file, knob, *_ in found), ("paper", "x"))
    assert reach.check_knobs(found, listed) == 0
