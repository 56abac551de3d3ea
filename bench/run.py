"""Perf ledger v1: run the north-star workloads and report every metric.

Two ways in:

* one measurement, the form the benchmark driver calls (``BENCHMARK.json``)::

      python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

  prints one JSON object as the last line of stdout: the end-to-end metrics
  (``--trace 0``) or the per-layer metrics (``--trace 1``) of that workload;

* the ledger: every workload, ``--repeats`` untraced measurements plus one
  traced, pooled, printed by name with unit, direction and bound, checked,
  and written with a host fingerprint to ``--out`` for ``compare.py``::

      python3 bench/run.py [--seed N] [--repeats R] [--workload W] [--out F] [--smoke]

Every measurement runs in fresh interpreters (``child.py``); this process
only starts them and does arithmetic on what they print.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20080617  # repro.util.rng.DEFAULT_SEED
THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
#: Fresh-process set-ups per measurement; setup_s is their median.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def spec() -> dict:
    """The benchmark's contract file: workloads, metrics, measuring window."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(**job) -> dict:
    """Run one ``child.py`` process to completion and return what it printed."""
    job["t_spawn"] = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        env={**os.environ, **THREAD_PINS},
    )
    if done.returncode != 0:
        raise RuntimeError(f"{job['workload']} process failed:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool, setups: int) -> dict:
    """One measurement: ``setups - 1`` set-up-only processes, then the one
    that also runs, audits and checks the workload."""
    job = dict(workload=workload, seed=seed, smoke=smoke, seconds=seconds, trace=trace)
    done = [spawn(mode="setup", **job) for _ in range(setups - 1)]
    done.append(spawn(mode="measure", **job))
    # Set-up wall in reference seconds (see calibrate.py), one per process.
    return {"run": done[-1], "setup_s": [d["setup_s"] / d["setup_slowdown"] for d in done]}


def driver_line(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The driver's contract: one workload, one JSON object."""
    got = measure(workload, seed, seconds, trace, smoke=False, setups=1 if trace else SETUP_SAMPLES)
    run = got["run"]
    if trace:
        values, table = metrics.per_layer([run]), metrics.PER_LAYER
    else:
        values, table = metrics.end_to_end([run], got["setup_s"]), metrics.END_TO_END
    for problem in run["problems"]:
        print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
    # Operations at this level are engine epochs: one fails if the engine
    # stopped before running it.  Undecodable transmissions are not failed
    # operations here — they are what decodable_share / decodable_tx_per_s
    # and the per-layer truth_violation_rate measure.
    expected = run["n_epochs"] * len(run["repeats"])
    completed = sum(rep["epochs_run"] for rep in run["repeats"])
    return {
        "correct": not run["problems"],
        "attempted": expected,
        "failed": expected - completed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    }


def _steal_ticks() -> int:
    try:
        return int(Path("/proc/stat").read_text().splitlines()[0].split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_head": head.stdout.strip() if head.returncode == 0 else "unknown",
        "thread_pins": THREAD_PINS,
    }


def ledger(
    whys: dict[str, str], seed: int, repeats: int, seconds: float, smoke: bool
) -> dict:
    """Measure the workloads named in ``whys`` and pool each one's measurements."""
    steal0, started = _steal_ticks(), time.time()
    out = {}
    for name in whys:
        if smoke:  # one process per workload: an untraced and a traced repeat
            got = [measure(name, seed, 0, 1, True, setups=1)]
        else:
            got = [measure(name, seed, seconds, 0, False, SETUP_SAMPLES) for _ in range(repeats)]
            got.append(measure(name, seed, seconds, 1, False, setups=1))
        runs = [g["run"] for g in got]
        untraced = got if smoke else got[:-1]
        pooled = metrics.end_to_end(
            [g["run"] for g in untraced], [s for g in untraced for s in g["setup_s"]]
        )
        each = [metrics.end_to_end([g["run"]], g["setup_s"]) for g in untraced]
        problems = [p for run in runs for p in run["problems"]]
        prints = {rep["fingerprint"] for run in runs for rep in run["repeats"]}
        if len(prints) != 1:
            problems.append(f"sim_fingerprint differs across measurements: {sorted(prints)}")
        layers = metrics.per_layer(runs)
        out[name] = {
            "why": whys[name],
            "sim_fingerprint": runs[0]["repeats"][0]["fingerprint"],
            "audited": runs[0]["audited"],
            "tx_attempted": layers["tx_attempted"],
            "tx_failed": layers["tx_failed"],
            "end_to_end": {
                m.name: {
                    "value": pooled[m.name],
                    "unit": m.unit,
                    "better": m.better,
                    "bound": m.bound,
                    "runs": [e[m.name] for e in each],
                }
                for m in metrics.END_TO_END
            },
            "per_layer": {
                m.name: {"value": layers[m.name], "unit": m.unit} for m in metrics.PER_LAYER
            },
            "problems": problems,
        }
        report(name, out[name])
    return {
        "schema": "perf-ledger-v1",
        "host": {
            **host_fingerprint(),
            "steal_ticks": _steal_ticks() - steal0,
            "wall_s": time.time() - started,
        },
        "seed": seed,
        "repeats": repeats,
        "seconds": seconds,
        "smoke": smoke,
        "workloads": out,
    }


def report(name: str, entry: dict) -> None:
    """Print every metric of one workload by name, with unit (and, for the
    end-to-end ones, direction and regression bound)."""
    print(f"\n== {name}  sim_fingerprint={entry['sim_fingerprint']}  audited={entry['audited']}")
    for metric, cell in entry["end_to_end"].items():
        print(
            f"  {metric:<34}{cell['value']:>16.6g} {cell['unit']:<6} "
            f"{cell['better']} is better, bound {cell['bound']:.0%}"
        )
    for metric, cell in entry["per_layer"].items():
        print(f"  {metric:<34}{cell['value']:>16.6g} {cell['unit']}")
    for problem in entry["problems"]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    contract = spec()
    whys = {w["name"]: w["why"] for w in contract["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(whys), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="measuring window of one measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: print one JSON line for --workload")
    parser.add_argument("--repeats", type=int, default=3, help="untraced measurements per workload")
    parser.add_argument("--out", type=Path, default=HERE / "out" / "ledger.json")
    parser.add_argument("--smoke", action="store_true", help="shrunk sizes, one process per workload")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        print(json.dumps(driver_line(args.workload, args.seed, args.seconds, args.trace)))
        return 0

    if args.workload:
        whys = {args.workload: whys[args.workload]}
    result = ledger(whys, args.seed, args.repeats, args.seconds, args.smoke)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1))
    print(f"\nwrote {args.out}")
    return 1 if any(w["problems"] for w in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
