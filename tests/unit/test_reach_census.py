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


LINE_SOURCE = '''\
def used(x):
    if x is None:
        raise ValueError(
            "x is required"
        )
    if x < 0:
        return -x
    return x


def listed():
    return 1


def outer(flag):
    def never():
        return 2

    if flag:
        return never
    return None
'''

LINE_CALLS = "from repro.mod import outer, used\nused(1); outer(False)\n"


def _trace_lines(clone, hits):
    """``(executed, called)`` of ``LINE_CALLS`` run on ``clone`` through the
    real tracer, lines on."""
    hits.mkdir()
    (hits / "trace.json").write_text(json.dumps({"lines": True, "knobs": {}}))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(reach.TRACER), str(clone / "src")]),
        TRACE_ROOT=str(clone / "src" / "repro"),
        TRACE_OUT=str(hits),
    )
    subprocess.run([sys.executable, "-c", LINE_CALLS], env=env, check=True)
    return tuple({(name, int(line)) for name, line in reach._rows(hits, kind)} for kind in ("hits", "calls"))


@pytest.fixture
def line_clone(tmp_path):
    module = tmp_path / "clone" / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(LINE_SOURCE)
    return tmp_path / "clone"


def test_line_census_skips_raise_statements(line_clone, tmp_path):
    found = reach.line_census(line_clone, *_trace_lines(line_clone, tmp_path / "hits"))
    used = {name: lines for _file, name, _first, lines in found}["used"]
    # Lines 3-5 are one unexecuted raise statement; only the other branch counts.
    assert used == [7]


def test_line_census_leaves_uncalled_functions_to_the_function_census(line_clone, tmp_path):
    found = reach.line_census(line_clone, *_trace_lines(line_clone, tmp_path / "hits"))
    assert [(name, first, lines) for _file, name, first, lines in found] == [
        ("used", 1, [7]),
        ("outer", 15, [20]),  # the nested never()'s own line 17 is not outer's
    ]
    # listed() and outer.<locals>.never are the function census's, listed or not.
    assert "listed" in {name for _file, name, *_ in reach.census(line_clone, set())}


def test_check_lines_counts_unlisted_blocks_and_stale_entries(line_clone, tmp_path, capsys):
    found = reach.line_census(line_clone, *_trace_lines(line_clone, tmp_path / "hits"))
    allowed = {
        ("src/repro/mod.py", "used[lines=1]"): ("guard", "tests/unit/test_mod.py"),
        ("src/repro/mod.py", "listed[lines=1]"): ("oracle", "tests/unit/test_mod.py"),
        ("src/repro/mod.py", "listed"): ("paper", "a function entry, not a block"),
    }
    assert reach.check_lines(found, allowed) == 1 + 1
    out = capsys.readouterr().out
    assert "src/repro/mod.py:1  used  lines 7  [guard: tests/unit/test_mod.py]" in out
    assert "src/repro/mod.py:15  outer  lines 20  [UNLISTED" in out
    assert "src/repro/mod.py::listed[lines=1]  [STALE" in out
    assert "2 called functions with 2 lines" in out


def test_a_lines_entry_survives_an_edit_that_shifts_the_file(line_clone, tmp_path):
    allowed = {
        ("src/repro/mod.py", "used[lines=1]"): ("guard", "tests/unit/test_mod.py"),
        ("src/repro/mod.py", "outer[lines=1]"): ("guard", "tests/unit/test_mod.py"),
    }
    found = reach.line_census(line_clone, *_trace_lines(line_clone, tmp_path / "before"))
    assert reach.check_lines(found, allowed) == 0
    module = line_clone / "src" / "repro" / "mod.py"
    module.write_text('"""A docstring added above."""\n\nimport math\n\n' + LINE_SOURCE)
    shifted = reach.line_census(line_clone, *_trace_lines(line_clone, tmp_path / "after"))
    assert [lines for *_, lines in shifted] == [[11], [24]]
    assert reach.check_lines(shifted, allowed) == 0


def test_a_branch_added_to_a_listed_function_fails_its_entry(line_clone, tmp_path, capsys):
    allowed = {
        ("src/repro/mod.py", "used[lines=1]"): ("guard", "tests/unit/test_mod.py"),
        ("src/repro/mod.py", "outer[lines=1]"): ("guard", "tests/unit/test_mod.py"),
    }
    module = line_clone / "src" / "repro" / "mod.py"
    module.write_text(LINE_SOURCE.replace("    return x\n", "    if x == 99:\n        return 0\n    return x\n", 1))
    found = reach.line_census(line_clone, *_trace_lines(line_clone, tmp_path / "hits"))
    assert [(name, lines) for _file, name, _first, lines in found][0] == ("used", [7, 9])
    # The function's count is not its entry's: the one is unlisted, the other stale.
    assert reach.check_lines(found, allowed) == 1 + 1
    out = capsys.readouterr().out
    assert "used  lines 7 9  [MISCOUNTED: listed as used[lines=1]]" in out
    assert "src/repro/mod.py::used[lines=1]  [STALE" in out


def test_allow_list_reads_a_lines_count_and_rejects_a_function_listed_twice(tmp_path):
    listing = tmp_path / "allow.txt"
    entry = "src/repro/mod.py::used[lines=2]  guard: tests/a.py reaches it"
    listing.write_text(entry + "\n")
    assert reach.allow_list(listing) == {
        ("src/repro/mod.py", "used[lines=2]"): ("guard", "tests/a.py reaches it")
    }
    assert reach.is_lines("used[lines=2]") and not reach.is_lines("used")
    listing.write_text(entry + "\n" + entry.replace("=2", "=3") + "\n")
    with pytest.raises(ValueError, match="allow.txt:2: .* is listed twice"):
        reach.allow_list(listing)


def test_main_names_a_census_or_runs_nothing(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        reach.main([str(tmp_path)])
    assert exited.value.code == 2
    assert "name a census: --functions, --knobs or --lines" in capsys.readouterr().err
