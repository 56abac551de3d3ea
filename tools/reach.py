"""Find the code of ``src/repro`` that only tests reach, below function level.

``tests/unit/test_api_reach.py`` works per name: it cannot see a branch
inside a used function that only tests take.  This script runs the
project's own entry points in a checkout under a line tracer — every
``examples/*.py``, ``python -m repro.experiments all --profile quick``, one
``--obs-jsonl`` experiment run with ``python -m repro.obs validate`` and
``summarize`` on the files it writes, and the ``--smoke`` perf ledger of
each benchmark workload — and prints, per module, the lines of its
functions that no run executed::

    python tools/reach.py CLONE [--out DIR] [--functions] [--knobs]

With ``--functions`` it prints instead every whole function that no run
called, one a line with its qualified name, line span (first decorator to
last line; a function nested in one listed is not listed again) and the
reason ``tools/reach_allow.txt`` gives it to stay, then their count and
summed span.  A function whose body only declares an interface (a
docstring, ``...``, ``pass`` or ``raise NotImplementedError``) is not
counted.  The exit status is 1 when a listed function has no entry in the
allow-list, or an entry names a function some run called: what stays
uncalled has a stated reason, and the list names nothing else.

Run it on a ``git clone`` of the tree under study: the perf ledger rewrites
``bench/out`` in the tree it runs from.  The tracer is
``tools/reach_tracer/sitecustomize.py``; spawned children (E13's per-point
processes) import it again through ``PYTHONPATH``.  Traced, the entry
points take about 1.5 min on 2 vCPUs with the line trace; the censuses
trace calls only and take under 1 min.

With ``--knobs`` it prints instead every *knob* that every run binds to one
value: a defaulted parameter of a function, or a defaulted init field of a
dataclass, of ``src/repro`` whose calls all bound the same setting (``None``,
a bool, an int, a float, a str, or a tuple of these), with the reason
``tools/reach_allow.txt`` gives it to stay.  A parameter that is ever bound
to anything else (an array, a model, a callable) is an input, not a knob;
seeds and RNGs (``seed``, ``rng``, ``seed_index``) are inputs by name.  A
value is booked to the code object that binds it, so a subclass that passes
its own value through ``super().__init__`` counts for its base's keyword.
The exit status is 1 when such a knob has no entry, or an entry names a knob
that is not one: a knob no experiment turns is a constant, or has a stated
reason to stay.  ``--functions --knobs`` takes both censuses from one traced
run.

A line trace cannot see a capability whose lines run while it never
engages.  The sharded engine once wrapped every shard's scheduler for
caching and merged the shards' cache decisions each epoch: every one of
those lines executed on every run, yet no entry point passed a policy but
``"always"``, so the wrapper handed each scheduler back unchanged and no
decision was ever made.  The knob census is the check for that: it reports
the configurations the callers actually pass.  What it cannot see is a
value that only a non-smoke run or the full profile passes (``FULL``'s
``ExperimentProfile`` fields, the timed perf ledger's workloads); an entry
for such a knob names where its second value is set.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

TRACER = Path(__file__).resolve().parent / "reach_tracer"
ROOT = Path(__file__).resolve().parents[1]
ALLOW_LIST = ROOT / "tools" / "reach_allow.txt"
#: Why an uncalled function stays, each naming its target: the test that
#: needs it, the paper section it reproduces, the fault or input it guards,
#: or the bench file that reads it.
KINDS = ("oracle", "paper", "validation", "gated")
WORKLOADS = ("fdd_8x8", "sessions_patch_8x8", "sharded_24x24", "sparse_10k")
OBS_RUN = ("controlplane", "sharded")
#: Parameter names that carry a run's randomness: inputs, never knobs.
SEEDS = ("seed", "rng", "seed_index")


def entry_points(clone: Path, out: Path):
    """The commands whose reach counts: examples, experiments, smoke ledgers."""
    for example in sorted((clone / "examples").glob("*.py")):
        yield [sys.executable, str(example)]
    tables = ["--profile", "quick", "--out", str(out / "tables")]
    yield [sys.executable, "-m", "repro.experiments", "all", *tables]
    runs = out / "obs"
    obs = ["--profile", "quick", "--obs-jsonl", str(runs)]
    yield [sys.executable, "-m", "repro.experiments", *OBS_RUN, *obs]
    files = [str(runs / f"{name}.jsonl") for name in OBS_RUN]
    for command in ("validate", "summarize"):
        yield [sys.executable, "-m", "repro.obs", command, *files]
    for workload in WORKLOADS:
        ledger = str(out / f"{workload}.json")
        smoke = ["--smoke", "--workload", workload, "--seed", "7", "--out", ledger]
        yield [sys.executable, "bench/run.py", *smoke]


def _rows(hits: Path, kind: str) -> set[tuple[str, ...]]:
    return {
        tuple(row.split("\t"))
        for tsv in hits.glob(f"{kind}-*.tsv")
        for row in tsv.read_text().splitlines()
    }


def trace(clone: Path, out: Path, lines: bool = True, knobs: bool = False):
    """``(file, line)`` of every line the entry points executed in
    ``src/repro`` (only the call lines unless ``lines``), ``(file, first
    line)`` of every code object they called, and, with ``knobs``, the
    ``(file, key, parameter) -> values`` each call bound to a knob."""
    hits = out / "hits"
    shutil.rmtree(hits, ignore_errors=True)  # a reused --out must not count old runs
    hits.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(TRACER), str(clone / "src")]),
        TRACE_ROOT=str(clone / "src" / "repro"),
        TRACE_OUT=str(hits),
    )
    settings = {"lines": lines, "knobs": watched(clone) if knobs else {}}
    (hits / "trace.json").write_text(json.dumps(settings))
    for command in entry_points(clone, out):
        print("$", " ".join(command[1:]), file=sys.stderr, flush=True)
        subprocess.run(command, cwd=clone, env=env, stdout=subprocess.DEVNULL, check=True)
    executed, called = (
        {(name, int(line)) for name, line in _rows(hits, kind)} for kind in ("hits", "calls")
    )
    return executed, called, bound_values(hits)


def watched(clone: Path) -> dict[str, dict[str, list[str]]]:
    """The knobs the tracer watches: ``{file: {key: [parameter, ...]}}`` of
    every knob of ``src/repro`` (see :func:`defaulted`)."""
    found: dict[str, dict[str, list[str]]] = {}
    for path in sorted((clone / "src" / "repro").rglob("*.py")):
        for key, _knob, param, _line in defaulted(path):
            found.setdefault(str(path), {}).setdefault(str(key), []).append(param)
    return found


def bound_values(hits: Path) -> dict[tuple[str, str, str], set[str]]:
    """``(file, key, parameter) -> values`` the traced runs bound."""
    bound: dict[tuple[str, str, str], set[str]] = {}
    for file, key, param, value in _rows(hits, "knobs"):
        bound.setdefault((file, key, param), set()).add(value)
    return bound


def function_lines(path: Path) -> set[int]:
    """Every line of every function (and class body) defined in ``path``."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, CodeType):
                lines |= {line for *_, line in const.co_lines() if line is not None}
                stack.append(const)
    return lines


def declares(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether ``function`` only declares an interface: its body is a
    docstring, ``...``, ``pass`` or ``raise NotImplementedError``."""
    for statement in function.body:
        value = getattr(statement, "value", None)
        exc = getattr(statement, "exc", None)
        if not (
            isinstance(statement, ast.Pass)
            or isinstance(statement, ast.Expr)
            and isinstance(value, ast.Constant)
            and (value.value is Ellipsis or isinstance(value.value, str))
            or isinstance(statement, ast.Raise)
            and getattr(getattr(exc, "func", exc), "id", None) == "NotImplementedError"
        ):
            return False
    return True


def functions(path: Path) -> list[tuple[str, int, int]]:
    """``(qualified name, first line, last line)`` of every function defined
    in ``path``, each before those nested in it; the first line is the first
    decorator's (a code object's ``co_firstlineno``, where its call event
    is booked).  A function that only declares an interface is not code
    and is left out."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if declares(child):
                    continue
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, first, child.end_lineno))
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                inner = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
                visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def census(clone: Path, called: set[tuple[str, int]]) -> list[tuple[str, str, int, int]]:
    """``(file, qualified name, first line, last line)`` of every whole
    function of ``src/repro`` no traced run called, ``file`` relative to
    ``clone``; a function nested in one listed is not listed again."""
    found = []
    for path in sorted((clone / "src" / "repro").rglob("*.py")):
        listed: list[tuple[int, int]] = []
        for name, first, last in functions(path):
            if (str(path), first) in called or any(a <= first <= b for a, b in listed):
                continue
            listed.append((first, last))
            found.append((path.relative_to(clone).as_posix(), name, first, last))
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_default(field: ast.AnnAssign) -> bool:
    """Whether a dataclass field takes a default in the generated ``__init__``."""
    if field.value is None or "ClassVar" in ast.unparse(field.annotation):
        return False
    value = field.value
    func = value.func if isinstance(value, ast.Call) else None
    if getattr(func, "id", getattr(func, "attr", None)) == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False
        return "default" in keywords or "default_factory" in keywords
    return True


def defaulted(path: Path) -> list[tuple[int | str, str, str, int]]:
    """``(key, knob, parameter, line)`` of every defaulted parameter and
    every defaulted dataclass init field defined in ``path``.  ``key`` is
    what the tracer books a binding to: the function's first line (its
    first decorator's), or the dataclass's qualified name; ``knob`` reads
    ``QUALIFIED_NAME(parameter=)``.  Seeds and RNGs are left out."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults) :] + [
                    arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
                ]
                found.extend(
                    (first, f"{prefix}{child.name}({arg.arg}=)", arg.arg, arg.lineno)
                    for arg in named
                    if arg.arg not in SEEDS
                )
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                qualified = prefix + child.name
                if _is_dataclass(child):
                    found.extend(
                        (qualified, f"{qualified}({field.target.id}=)", field.target.id, field.lineno)
                        for field in child.body
                        if isinstance(field, ast.AnnAssign)
                        and isinstance(field.target, ast.Name)
                        and field.target.id not in SEEDS
                        and _init_default(field)
                    )
                visit(child, f"{qualified}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def knob_census(clone: Path, bound) -> list[tuple[str, str, int, str]]:
    """``(file, knob, line, value)`` of every knob of ``src/repro`` that the
    traced runs bound, always to the same setting; ``file`` relative to
    ``clone``.  A knob no run bound belongs to a function no run called."""
    found = []
    for path in sorted((clone / "src" / "repro").rglob("*.py")):
        for key, knob, param, line in defaulted(path):
            values = bound.get((str(path), str(key), param), set())
            if len(values) == 1 and not next(iter(values)).startswith("<"):
                found.append((path.relative_to(clone).as_posix(), knob, line, *values))
    return found


def is_knob(name: str) -> bool:
    """Whether an allow-list name is a knob, ``QUALIFIED_NAME(parameter=)``."""
    return name.endswith("=)")


def allow_list(path: Path = ALLOW_LIST) -> dict[tuple[str, str], tuple[str, str]]:
    """``(file, qualified name) -> (kind, target)`` of every entry of the
    allow-list: one a line, ``FILE::NAME  KIND: TARGET``; ``#`` comments."""
    entries = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        where, _, reason = line.strip().partition(" ")
        file, _, name = where.partition("::")
        kind, _, target = reason.strip().partition(":")
        if not (file and name and kind and target.strip()):
            raise ValueError(f"{path}:{number}: expected FILE::NAME  KIND: TARGET")
        entries[file, name] = (kind, target.strip())
    return entries


def check(found: list[tuple[str, str, int, int]], allowed) -> int:
    """Print ``found`` with each function's reason to stay; return how many
    functions have none plus how many entries name no listed function."""
    for file, name, first, last in found:
        print(f"{file}:{first}-{last}  {name}  [{_reason(allowed, file, name)}]")
    span = sum(last - first + 1 for *_, first, last in found)
    return _tally(
        [(file, name) for file, name, *_ in found],
        {where for where in allowed if not is_knob(where[1])},
        f"{len(found)} functions spanning {span} source lines no entry point executed",
        "an entry point calls it, or it is gone",
    )


def check_knobs(found: list[tuple[str, str, int, str]], allowed) -> int:
    """Print ``found`` with each knob's one value and reason to stay; return
    how many knobs have no entry plus how many entries name no listed knob."""
    for file, knob, line, value in found:
        print(f"{file}:{line}  {knob} = {value}  [{_reason(allowed, file, knob)}]")
    return _tally(
        [(file, knob) for file, knob, *_ in found],
        {where for where in allowed if is_knob(where[1])},
        f"{len(found)} knobs every entry point binds to one value",
        "a run binds it to a second value, or it is gone",
    )


def _reason(allowed, file: str, name: str) -> str:
    kind, target = allowed.get((file, name), ("UNLISTED", "no reason to stay"))
    return f"{kind}: {target}"


def _tally(listed: list[tuple[str, str]], entries: set, summary: str, why_stale: str) -> int:
    unlisted = sum(where not in entries for where in listed)
    stale = sorted(entries - set(listed))
    for file, name in stale:
        print(f"{file}::{name}  [STALE: {why_stale}]")
    print(f"{summary}; {unlisted} not allow-listed, {len(stale)} stale entries")
    return unlisted + len(stale)


def spans(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` as ``"3-5 9"``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return " ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("clone", type=Path, help="checkout to trace (a git clone)")
    parser.add_argument("--out", type=Path, help="scratch directory (default: temporary)")
    parser.add_argument(
        "--functions",
        action="store_true",
        help="list the whole functions no run called; fail on any not allow-listed",
    )
    parser.add_argument(
        "--knobs",
        action="store_true",
        help="list the knobs every run binds to one value; fail on any not allow-listed",
    )
    args = parser.parse_args(argv)
    clone = args.clone.resolve()
    out = (args.out or Path(tempfile.mkdtemp(prefix="reach-"))).resolve()
    census_only = args.functions or args.knobs
    allowed = allow_list(clone / ALLOW_LIST.relative_to(ROOT)) if census_only else {}
    executed, called, bound = trace(clone, out, lines=not census_only, knobs=args.knobs)
    if census_only:
        failures = 0
        if args.functions:
            failures += check(census(clone, called), allowed)
        if args.knobs:
            failures += check_knobs(knob_census(clone, bound), allowed)
        return 1 if failures else 0
    total = 0
    for path in sorted((clone / "src" / "repro").rglob("*.py")):
        missed = sorted(
            line for line in function_lines(path) if (str(path), line) not in executed
        )
        if missed:
            total += len(missed)
            print(f"{len(missed):5d}  {path.relative_to(clone)}: {spans(missed)}")
    print(f"{total:5d}  function lines no entry point executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
