"""Span tree, self times and covered wall of one traced repeat.

A span's self time is its duration minus its direct children's.  The tree
is rebuilt per thread from ``Span.seq`` (open order) and ``Span.depth``:
the parent of a depth-d span is the latest earlier span of depth d-1 on
the same thread.  Spans carry an ``epoch`` label or inherit their parent's.
"""

from __future__ import annotations

from collections import defaultdict


def analyse(rows, n_epochs: int) -> dict:
    """``rows`` are ``TimelineRecorder.rows`` of one repeat.

    Returns per-epoch series: ``self_s[name][epoch]`` (summed self time of
    the spans of that name) and ``covered_s[epoch]`` (length of the union
    of all span intervals, any thread — wall the named spans account for),
    plus the flat ``spans`` rows for the trace file.
    """
    by_thread: dict[int, list] = defaultdict(list)
    for span, closed_at, thread in rows:
        by_thread[thread].append((span, closed_at))

    self_s: dict[str, list[float]] = defaultdict(lambda: [0.0] * n_epochs)
    intervals: list[list[tuple[float, float]]] = [[] for _ in range(n_epochs)]
    flat = []
    for thread, entries in by_thread.items():
        entries.sort(key=lambda entry: entry[0].seq)
        latest_at_depth: dict[int, dict] = {}
        nodes = []
        for span, closed_at in entries:
            parent = latest_at_depth.get(span.depth - 1) if span.depth else None
            epoch = span.labels.get("epoch")
            if epoch is None and parent is not None:
                epoch = parent["epoch"]
            node = {
                "span": span,
                "parent": parent,
                "epoch": epoch,
                "end": closed_at,
                "children_s": 0.0,
            }
            if parent is not None:
                parent["children_s"] += span.wall_s
            latest_at_depth[span.depth] = node
            nodes.append(node)
        for node in nodes:
            span, epoch = node["span"], node["epoch"]
            own = span.wall_s - node["children_s"]
            row = span.row()
            row.update(thread=thread, end=node["end"], self_s=own, epoch=epoch)
            flat.append(row)
            if epoch is None or not 0 <= epoch < n_epochs:
                continue  # set-up spans belong to no epoch
            self_s[span.name][epoch] += own
            if node["parent"] is None:
                intervals[epoch].append((node["end"] - span.wall_s, node["end"]))
    return {
        "self_s": dict(self_s),
        "covered_s": [_union_length(spans) for spans in intervals],
        "spans": flat,
    }


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
