"""Find the code of ``src/repro`` that only tests reach, below function level.

``tests/unit/test_api_reach.py`` works per name: it cannot see a branch
inside a used function that only tests take.  This script runs the
project's own entry points in a checkout under a line tracer — every
``examples/*.py``, ``python -m repro.experiments all --profile quick`` and
the ``--smoke`` perf ledger of each benchmark workload — and prints, per
module, the lines of its functions that no run executed::

    python tools/reach.py CLONE [--out DIR] [--functions]

With ``--functions`` it prints instead every whole function that no run
called, one a line with its qualified name and line span (first decorator
to last line; a function nested in one listed is not listed again), and
their count and summed span last: the census of what only tests call.

Run it on a ``git clone`` of the tree under study: the perf ledger rewrites
``bench/out`` in the tree it runs from.  The tracer is
``tools/reach_tracer/sitecustomize.py``; spawned children (E13's per-point
processes) import it again through ``PYTHONPATH``.  Traced, the entry
points take about 1.5 min on 2 vCPUs.  What remains is reached only by
tests or not at all; ROADMAP "Smaller follow-ups" lists the sizeable
branches that stay and why (gated, input validation, or a kept oracle).

A line trace cannot see a capability whose lines run while it never
engages.  The sharded engine once wrapped every shard's scheduler for
caching and merged the shards' cache decisions each epoch: every one of
those lines executed on every run, yet no entry point passed a policy but
``"always"``, so the wrapper handed each scheduler back unchanged and no
decision was ever made.  Before calling a configurable path used, take a
census of the configurations the callers pass (for the engines:
``reschedule_policy`` and ``rate_table`` of each ``EpochConfig`` handed to
``run_epochs`` / ``run_epochs_sharded``).
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

TRACER = Path(__file__).resolve().parent / "reach_tracer"
WORKLOADS = ("fdd_8x8", "sessions_patch_8x8", "sharded_24x24", "sparse_10k")


def entry_points(clone: Path, out: Path):
    """The commands whose reach counts: examples, experiments, smoke ledgers."""
    for example in sorted((clone / "examples").glob("*.py")):
        yield [sys.executable, str(example)]
    tables = ["--profile", "quick", "--out", str(out / "tables")]
    yield [sys.executable, "-m", "repro.experiments", "all", *tables]
    for workload in WORKLOADS:
        ledger = str(out / f"{workload}.json")
        smoke = ["--smoke", "--workload", workload, "--seed", "7", "--out", ledger]
        yield [sys.executable, "bench/run.py", *smoke]


def _rows(hits: Path, kind: str) -> set[tuple[str, int]]:
    rows = set()
    for tsv in hits.glob(f"{kind}-*.tsv"):
        for row in tsv.read_text().splitlines():
            name, line = row.rsplit("\t", 1)
            rows.add((name, int(line)))
    return rows


def trace(clone: Path, out: Path) -> tuple[set[tuple[str, int]], set[tuple[str, int]]]:
    """``(file, line)`` of every line the entry points executed in
    ``src/repro``, and ``(file, first line)`` of every code object they called."""
    hits = out / "hits"
    hits.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(TRACER), str(clone / "src")]),
        TRACE_ROOT=str(clone / "src" / "repro"),
        TRACE_OUT=str(hits),
    )
    for command in entry_points(clone, out):
        print("$", " ".join(command[1:]), file=sys.stderr, flush=True)
        subprocess.run(command, cwd=clone, env=env, stdout=subprocess.DEVNULL, check=True)
    return _rows(hits, "hits"), _rows(hits, "calls")


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


def functions(path: Path) -> list[tuple[str, int, int]]:
    """``(qualified name, first line, last line)`` of every function defined
    in ``path``, each before those nested in it; the first line is the first
    decorator's (a code object's ``co_firstlineno``, where its call event
    is booked)."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, first, child.end_lineno))
                visit(child, f"{prefix}{child.name}.<locals>.")
            else:
                inner = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
                visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def uncalled(clone: Path, called: set[tuple[str, int]]) -> None:
    """Print every whole function of ``src/repro`` no traced run called."""
    count = total = 0
    for path in sorted((clone / "src" / "repro").rglob("*.py")):
        listed: list[tuple[int, int]] = []
        for name, first, last in functions(path):
            if (str(path), first) in called or any(a <= first <= b for a, b in listed):
                continue
            listed.append((first, last))
            count, total = count + 1, total + last - first + 1
            print(f"{path.relative_to(clone)}:{first}-{last}  {name}")
    print(f"{count} functions spanning {total} source lines no entry point executed")


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
        "--functions", action="store_true", help="list the whole functions no run called"
    )
    args = parser.parse_args(argv)
    clone = args.clone.resolve()
    out = (args.out or Path(tempfile.mkdtemp(prefix="reach-"))).resolve()
    executed, called = trace(clone, out)
    if args.functions:
        uncalled(clone, called)
        return 0
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
