"""Tests for the benchmark's pure helpers: tail percentile choice, self time
of nested spans, and failure shares of harness grids."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import (  # noqa: E402
    covered_share,
    failed_share,
    grid_counts,
    latency_summary,
    self_times,
    tail_rank,
)


@pytest.mark.parametrize(
    "count, index, percentile",
    [
        (11, 0, 100 / 11),
        (12, 1, 100 * 2 / 12),
        (24, 13, 100 * 14 / 24),
        (100, 89, 90.0),
        (1000, 989, 99.0),
    ],
)
def test_tail_rank_leaves_exactly_ten_items_beyond(count, index, percentile):
    assert tail_rank(count) == (index, pytest.approx(percentile))
    assert count - (index + 1) == 10


@pytest.mark.parametrize("count", [0, 1, 10])
def test_tail_rank_needs_more_than_ten_items(count):
    assert tail_rank(count) is None
    if count:
        with pytest.raises(ValueError):
            latency_summary([1.0] * count)


def test_latency_summary_picks_the_ranked_item():
    values = [float(v) for v in range(1, 101)]
    summary = latency_summary(list(reversed(values)))
    assert summary["p50_ms"] == 50.5
    assert summary["tail_ms"] == 90.0
    assert summary["tail_percentile"] == 90.0
    assert sum(v > summary["tail_ms"] for v in values) == 10


def test_self_time_subtracts_nested_children():
    spans = [
        ("runner", 0.0, 10.0, None),
        ("generate", 1.0, 4.0, 0),
        ("render", 2.0, 3.0, 1),  # grandchild: counted by its parent only
        ("score", 5.0, 6.0, 0),
        ("render", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("outer", 0.0, 10.0, None),
        ("a", 2.0, 6.0, 0),
        ("b", 4.0, 8.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)


def test_covered_share_only_counts_time_inside_windows():
    windows = [(0.0, 10.0), (20.0, 30.0)]
    spans = [(1.0, 3.0), (2.0, 4.0), (15.0, 25.0), (29.0, 31.0)]
    # 3 s in the first window, 5 + 1 s in the second
    assert covered_share(spans, windows) == pytest.approx(9.0 / 20.0)


def _records(statuses):
    return [{"status": status} for status in statuses]


def test_failed_share_of_a_grid_that_aborts_partway():
    planned = 18
    # the first sample's nine records were written, one of them failed at
    # the adapter; the grid then aborted before the second sample
    written = _records(["ok"] * 8 + ["failed: timeout"])
    attempted, failed = grid_counts(planned, written)
    assert (attempted, failed) == (18, 10)
    assert failed_share(attempted, failed) == pytest.approx(10 / 18)


def test_failed_share_across_grids():
    complete = grid_counts(18, _records(["ok"] * 18))
    aborted = grid_counts(18, [])
    attempted = complete[0] + aborted[0]
    failed = complete[1] + aborted[1]
    assert failed_share(attempted, failed) == 0.5


def test_grid_counts_rejects_more_records_than_planned():
    with pytest.raises(ValueError):
        grid_counts(2, _records(["ok"] * 3))
