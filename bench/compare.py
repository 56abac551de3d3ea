"""Compare two ledger files: ``python3 bench/compare.py A.json B.json``.

A is the parent, B the change.  For every workload and end-to-end metric
the metric's own direction and bound decide ``improved`` / ``unchanged`` /
``regressed``; where either file's measurements spread wider than the bound
the verdict is ``unresolved`` — unless every measurement of B reads better
than every measurement of A.  Counts and ``sim_fingerprint``s that changed
are listed.  Exits non-zero on any regression, or when a larger share of
transmissions fails the exact audit.
"""

from __future__ import annotations

import json
import statistics
import sys


def _spread(runs: list[float]) -> float:
    middle = statistics.median(runs)
    return (max(runs) - min(runs)) / middle if middle else 0.0


def verdict(a: dict, b: dict) -> tuple[str, float]:
    """Status of one end-to-end metric and B's relative change (+ = better)."""
    higher = a["better"] == "higher"
    gain = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    gain = gain if higher else -gain
    bound = a["bound"]
    if max(_spread(a["runs"]), _spread(b["runs"])) > bound:
        if higher:
            all_better = min(b["runs"]) > max(a["runs"])
        else:
            all_better = max(b["runs"]) < min(a["runs"])
        return ("improved" if all_better else "unresolved"), gain
    if gain < -bound:
        return "regressed", gain
    return ("improved" if gain > bound else "unchanged"), gain


def _failed_share(entry: dict) -> float:
    return entry["tx_failed"] / entry["tx_attempted"] if entry["tx_attempted"] else 0.0


def compare(a: dict, b: dict) -> int:
    bad = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name}: missing from B")
            bad += 1
            continue
        same = wa["sim_fingerprint"] == wb["sim_fingerprint"]
        print(
            f"== {name}  sim_fingerprint {wa['sim_fingerprint']} -> {wb['sim_fingerprint']}"
            f"  ({'identical' if same else 'CHANGED'})"
        )
        for metric, cell in wa["end_to_end"].items():
            status, gain = verdict(cell, wb["end_to_end"][metric])
            bad += status == "regressed"
            print(
                f"  {metric:<22}{cell['value']:>14.6g} -> {wb['end_to_end'][metric]['value']:<14.6g}"
                f"{cell['unit']:<6} {gain:+8.1%}  bound {cell['bound']:.0%}  {status}"
            )
        share_a, share_b = _failed_share(wa), _failed_share(wb)
        grew = share_b > share_a
        bad += grew
        print(
            f"  failed transmissions  {wa['tx_failed']}/{wa['tx_attempted']} -> "
            f"{wb['tx_failed']}/{wb['tx_attempted']}"
            f"  ({'LARGER SHARE FAILS' if grew else 'no larger share fails'})"
        )
        for metric, cell in wa["per_layer"].items():
            other = wb["per_layer"].get(metric)
            if cell["unit"] == "count" and other is not None and other["value"] != cell["value"]:
                print(f"  count changed: {metric} {cell['value']} -> {other['value']}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as fa, open(sys.argv[2]) as fb:
        sys.exit(compare(json.load(fa), json.load(fb)))
