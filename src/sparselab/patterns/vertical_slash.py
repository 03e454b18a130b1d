"""Vertical-slash pattern builders: fixed-budget selection and the
coverage-driven adaptive variant.

Both score candidates with exact attention from the last
``attention.APPROX_WINDOW`` query rows (all rows of a shorter sequence) onto
all keys.  That estimation is ``window_stats``, the window's O(n)
reductions, kept once per input by ``AttentionInputs.cached`` and read by
the eviction builders too.  A "vertical" keeps one key column for every
later query; a "slash" keeps one causal diagonal (offset o covers cells
(i, i-o)).  The first ``FORCED_PREFIX`` columns and the ``FORCED_LOCAL``
smallest offsets (all of them in a shorter sequence) are always selected
and count toward the budgets.  A build is a threshold on its cached stage,
an ``accounting.rank`` order (``unit_rank``, ``coverage_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..attention import APPROX_WINDOW, AttentionInputs, offset_sums, window_weights_head
from .accounting import rank
from .plans import VerticalSlashPlan

__all__ = [
    "FORCED_PREFIX",
    "FORCED_LOCAL",
    "FlexPrefillConfig",
    "WindowStats",
    "build_vertical_slash",
    "build_flexprefill",
    "coverage_rank",
    "unit_rank",
    "window_stats",
]

FORCED_PREFIX = 4
FORCED_LOCAL = 64


class WindowStats(NamedTuple):
    """O(n) reductions of ``window_weights_head`` for every query head.

    column_sum: [num_q_heads, seq_len] window mass of each key column.
    column_max: [num_q_heads, seq_len] largest window weight of each key column.
    slash_mass: [num_q_heads, seq_len] window mass of each diagonal offset o,
        the cells (i, i - o).
    total:      [num_q_heads] the window's total mass.
    """

    column_sum: np.ndarray
    column_max: np.ndarray
    slash_mass: np.ndarray
    total: np.ndarray


def window_stats(inputs: AttentionInputs) -> WindowStats:
    """Score each head's window once and keep only its reductions, the
    window-scored builders' cached stage; the [window, n] weights of one
    head are freed before the next is scored, its diagonals summed by
    ``attention.offset_sums`` as ``accounting.dense_mass`` sums its tiles'."""
    n, heads = inputs.seq_len, inputs.num_q_heads
    column_sum = np.empty((heads, n))
    column_max = np.empty((heads, n))
    slash_mass = np.zeros((heads, n))
    total = np.empty(heads)
    for head in range(heads):
        weights = window_weights_head(inputs, head)
        column_sum[head] = weights.sum(axis=0)
        column_max[head] = weights.max(axis=0)
        offset_sums(weights, slash_mass[head])
        total[head] = weights.sum()
        del weights  # free this head's window before the next is scored
    return WindowStats(column_sum, column_max, slash_mass, total)


def unit_rank(inputs: AttentionInputs) -> np.ndarray:
    """``build_vertical_slash``'s cached stage: [2, num_q_heads, seq_len]
    ``accounting.rank`` places of each head's key columns by window mass,
    then of its offsets by per-cell mean window mass (length-normalized so
    long diagonals are not favored)."""
    n = inputs.seq_len
    stats = inputs.cached(window_stats)
    ids = np.arange(n)
    # offset o intersects window rows i >= max(n - window, o): min(window, n - o) cells
    slash_cells = np.minimum(min(APPROX_WINDOW, n), n - ids)
    return rank(
        np.stack([stats.column_sum, stats.slash_mass / slash_cells]),
        np.stack([ids < FORCED_PREFIX, ids < FORCED_LOCAL])[:, None],
    )


def build_vertical_slash(
    inputs: AttentionInputs, num_verticals: int, num_slashes: int
) -> VerticalSlashPlan:
    """Uniform-budget selection: per head, the first ``num_verticals`` key
    columns and ``num_slashes`` offsets of ``unit_rank``."""
    n = inputs.seq_len
    if num_verticals < min(FORCED_PREFIX, n):
        raise ValueError(f"num_verticals must be >= {min(FORCED_PREFIX, n)} at seq_len {n}")
    if num_slashes < min(FORCED_LOCAL, n):
        raise ValueError(f"num_slashes must be >= {min(FORCED_LOCAL, n)} at seq_len {n}")
    if num_verticals > n or num_slashes > n:
        raise ValueError("budgets cannot exceed seq_len")

    columns, offsets = inputs.cached(unit_rank)
    return VerticalSlashPlan(
        verticals=tuple(np.flatnonzero(places < num_verticals) for places in columns),
        slashes=tuple(np.flatnonzero(places < num_slashes) for places in offsets),
        seq_len=n,
    )


@dataclass(frozen=True)
class FlexPrefillConfig:
    """Coverage-driven budgets: per head, select the smallest score-ranked
    prefix of candidate units (one vertical or one slash each) whose summed
    window mass reaches ``alpha`` of the total, then pad to ``min_budget``
    units.  ``alpha=0`` reverts to the uniform builder with ``min_budget``
    verticals and ``min_budget`` slashes, lifted to the forced units that
    every ``alpha > 0`` build keeps; ``alpha=1`` selects every candidate
    unit."""

    alpha: float
    min_budget: int = 512

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.min_budget < 1:
            raise ValueError("min_budget must be positive")

    def uniform_counts(self, n: int) -> tuple[int, int]:
        """(verticals, slashes) of the ``alpha=0`` build at length n."""
        k = self.min_budget
        return min(max(k, FORCED_PREFIX), n), min(max(k, FORCED_LOCAL), n)


def coverage_rank(inputs: AttentionInputs) -> tuple[np.ndarray, np.ndarray]:
    """``build_flexprefill``'s cached stage: each head's ``accounting.rank``
    places of its units [columns, offsets] by window mass, a vertical first
    on equal mass, and the mass that the forced units, then the first
    forced + 1, forced + 2, ... units cover."""
    stats = inputs.cached(window_stats)
    ids = np.arange(inputs.seq_len)
    forced = np.concatenate([ids < FORCED_PREFIX, ids < FORCED_LOCAL])
    masses = np.concatenate([stats.column_sum, stats.slash_mass], axis=1)
    places = rank(masses, forced)
    # the greedy walk adds the other units to the forced mass one at a time
    # in rank order, so its running sum is a cumsum of the masses in that order
    ranked = np.empty_like(masses)
    np.put_along_axis(ranked, places, masses, axis=1)
    last = np.count_nonzero(forced) - 1  # the last forced unit's slot holds all the forced mass
    ranked[:, last] = stats.column_sum[:, :FORCED_PREFIX].sum(axis=1)
    ranked[:, last] += stats.slash_mass[:, :FORCED_LOCAL].sum(axis=1)
    return places, np.cumsum(ranked[:, last:], axis=1)


def build_flexprefill(
    inputs: AttentionInputs, config: FlexPrefillConfig
) -> VerticalSlashPlan:
    n = inputs.seq_len
    if config.alpha == 0.0:
        return build_vertical_slash(inputs, *config.uniform_counts(n))

    places, covered = inputs.cached(coverage_rank)
    counts = 2 * n
    if config.alpha < 1.0:
        # units kept after each step of the walk: the forced ones, then one more each
        count = np.arange(2 * n + 1 - covered.shape[1], 2 * n + 1)
        total = inputs.cached(window_stats).total
        done = (covered >= config.alpha * total[:, None]) & (count >= config.min_budget)
        counts = np.where(done.any(axis=1), count[done.argmax(axis=1)], count[-1])[:, None]
    keep = places < counts
    return VerticalSlashPlan(
        verticals=tuple(np.flatnonzero(k[:n]) for k in keep),
        slashes=tuple(np.flatnonzero(k[n:]) for k in keep),
        seq_len=n,
    )
