"""Pure helpers for the benchmark: latency tails, failure shares and span
arithmetic (self time, coverage).  Nothing here imports numpy or sparselab,
so the helpers can be tested on their own."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

TAIL_MARGIN = 10


def tail_rank(count: int) -> tuple[int, float] | None:
    """Zero-based index into the sorted sample of the highest percentile
    with at least ``TAIL_MARGIN`` items beyond it, and that percentile.

    None when the sample is too small to have such a percentile.
    """
    rank = count - TAIL_MARGIN  # one-based: exactly TAIL_MARGIN items rank above it
    if rank < 1:
        return None
    return rank - 1, 100.0 * rank / count


def latency_summary(latencies_ms: Sequence[float]) -> dict:
    """Median and tail of a latency sample, with the tail's percentile."""
    ordered = sorted(latencies_ms)
    chosen = tail_rank(len(ordered))
    if chosen is None:
        raise ValueError(
            f"{len(ordered)} items cannot give a tail with {TAIL_MARGIN} items beyond it"
        )
    index, percentile = chosen
    return {
        "p50_ms": statistics.median(ordered),
        "tail_ms": ordered[index],
        "tail_percentile": percentile,
        "count": len(ordered),
    }


def grid_counts(planned: int, records: Iterable[dict]) -> tuple[int, int]:
    """(attempted, failed) for one harness grid.

    Every planned record counts as attempted.  A record that was written
    with a non-ok status failed, and so did every planned record the grid
    never wrote because it aborted partway.
    """
    written = list(records)
    if len(written) > planned:
        raise ValueError(f"grid wrote {len(written)} records but planned {planned}")
    failed_written = sum(1 for record in written if record["status"] != "ok")
    return planned, failed_written + planned - len(written)


def failed_share(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no items attempted")
    return failed / attempted


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, disjoint intervals covering the same points as the input."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    return sum(end - start for start, end in merge_intervals(intervals))


def self_times(spans: Sequence[tuple[str, float, float, int | None]]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover.

    A span is (name, start, end, parent index or None).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(i, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - union_length(clipped))
    return out


def covered_share(
    spans: Iterable[tuple[float, float]], windows: Sequence[tuple[float, float]]
) -> float:
    """Share of the windows' total length that the spans cover."""
    windows = merge_intervals(windows)
    total = sum(end - start for start, end in windows)
    if total <= 0:
        raise ValueError("windows have no length")
    covered = 0.0
    merged = merge_intervals(spans)
    j = 0
    for w_start, w_end in windows:
        while j < len(merged) and merged[j][1] <= w_start:
            j += 1
        k = j
        while k < len(merged) and merged[k][0] < w_end:
            covered += min(merged[k][1], w_end) - max(merged[k][0], w_start)
            k += 1
    return covered / total
