"""Vertical-slash pattern builders: fixed-budget selection and the
coverage-driven adaptive variant.

Both score candidates with exact attention from the last ``approx_window``
query rows onto all keys.  A "vertical" keeps one key column for every later
query; a "slash" keeps one causal diagonal (offset o covers cells (i, i-o)).
The first ``FORCED_PREFIX`` columns and the ``FORCED_LOCAL`` smallest offsets
are always selected and count toward the configured budgets; candidates are
ranked by ``accounting.ranked_keep``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention import AttentionInputs, window_weights_head
from .accounting import CalibrationSearch, _smallest_budget, plan_sparsity, ranked_keep
from .plans import VerticalSlashPlan

__all__ = [
    "FORCED_PREFIX",
    "FORCED_LOCAL",
    "FlexPrefillConfig",
    "build_vertical_slash",
    "build_flexprefill",
    "densest_vertical_slash_plan",
    "calibrate_vertical_slash",
]

FORCED_PREFIX = 4
FORCED_LOCAL = 64


def _column_and_diagonal_mass(
    weights: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum window attention mass per key column and per diagonal offset.

    Returns (column_mass[n], slash_mass[n], slash_cells[n]) where
    slash_cells[o] counts the window cells lying on offset o.
    """
    window = weights.shape[0]
    start = n - window
    column_mass = weights.sum(axis=0)
    slash_mass = np.zeros(n)
    for r in range(window):
        i = start + r
        row = weights[r, : i + 1]
        # cell (i, j) sits on offset i - j; reversing the row aligns offsets 0..i
        slash_mass[: i + 1] += row[::-1]
    # offset o intersects window rows i >= max(start, o): min(window, n - o) cells
    slash_cells = np.minimum(window, n - np.arange(n)).astype(np.float64)
    return column_mass, slash_mass, slash_cells


def build_vertical_slash(
    inputs: AttentionInputs,
    num_verticals: int,
    num_slashes: int,
    approx_window: int = 256,
) -> VerticalSlashPlan:
    """Uniform-budget selection: per head, the top ``num_verticals`` key
    columns by window mass and top ``num_slashes`` offsets by per-cell mean
    window mass (length-normalized so long diagonals are not favored)."""
    n = inputs.seq_len
    if approx_window > n:
        raise ValueError(f"approx_window {approx_window} exceeds seq_len {n}")
    if num_verticals < FORCED_PREFIX:
        raise ValueError(f"num_verticals must be >= {FORCED_PREFIX}")
    if num_slashes < FORCED_LOCAL:
        raise ValueError(f"num_slashes must be >= {FORCED_LOCAL}")
    if num_verticals > n or num_slashes > n:
        raise ValueError("budgets cannot exceed seq_len")

    col_mass, slash_score = [], []
    for head in range(inputs.num_q_heads):
        w = window_weights_head(inputs, head, approx_window)
        cols, slash_mass, slash_cells = _column_and_diagonal_mass(w, n)
        col_mass.append(cols)
        slash_score.append(slash_mass / slash_cells)
    ids = np.arange(n)
    verticals = ranked_keep(np.stack(col_mass), num_verticals, ids < FORCED_PREFIX)
    slashes = ranked_keep(np.stack(slash_score), num_slashes, ids < FORCED_LOCAL)
    return VerticalSlashPlan(
        verticals=tuple(np.flatnonzero(v) for v in verticals),
        slashes=tuple(np.flatnonzero(s) for s in slashes),
        seq_len=n,
        approx_window=approx_window,
    )


@dataclass(frozen=True)
class FlexPrefillConfig:
    """Coverage-driven budgets: per head, select the smallest score-ranked
    prefix of candidate units (one vertical or one slash each) whose summed
    window mass reaches ``alpha`` of the total, then pad to ``min_budget``
    units.  ``alpha=0`` reverts to the uniform builder with
    ``fallback_counts``; ``alpha=1`` selects every candidate unit."""

    alpha: float
    min_budget: int = 512
    approx_window: int = 256
    fallback_counts: tuple[int, int] = (512, 512)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.min_budget < 1:
            raise ValueError("min_budget must be positive")


def build_flexprefill(
    inputs: AttentionInputs, config: FlexPrefillConfig
) -> VerticalSlashPlan:
    n = inputs.seq_len
    if config.approx_window > n:
        raise ValueError(f"approx_window {config.approx_window} exceeds seq_len {n}")
    if config.alpha == 0.0:
        kv, ks = config.fallback_counts
        return build_vertical_slash(inputs, kv, ks, config.approx_window)

    ids = np.arange(n)
    forced = np.concatenate([ids < FORCED_PREFIX, ids < FORCED_LOCAL])
    masses, counts = [], []
    for head in range(inputs.num_q_heads):
        w = window_weights_head(inputs, head, config.approx_window)
        col_mass, slash_mass, _ = _column_and_diagonal_mass(w, n)
        # one ranking over [columns, offsets]: on equal mass a vertical goes first
        mass = np.concatenate([col_mass, slash_mass])
        masses.append(mass)
        if config.alpha >= 1.0:
            counts.append(2 * n)
            continue
        # the greedy walk adds the other units to the forced mass one at a
        # time in rank order, so its running sum is a cumsum in that order
        forced_mass = col_mass[:FORCED_PREFIX].sum() + slash_mass[:FORCED_LOCAL].sum()
        covered = np.cumsum(np.concatenate([[forced_mass], np.sort(mass[~forced])[::-1]]))
        count = np.count_nonzero(forced) + np.arange(covered.size)
        done = (covered >= config.alpha * float(w.sum())) & (count >= config.min_budget)
        counts.append(int(count[done.argmax()] if done.any() else count[-1]))
    keep = ranked_keep(np.stack(masses), np.array(counts), forced)
    return VerticalSlashPlan(
        verticals=tuple(np.flatnonzero(k[:n]) for k in keep),
        slashes=tuple(np.flatnonzero(k[n:]) for k in keep),
        seq_len=n,
        approx_window=config.approx_window,
    )


def densest_vertical_slash_plan(
    num_heads: int, seq_len: int, num_verticals: int, num_slashes: int
) -> VerticalSlashPlan:
    """The geometric upper bound on coverage for a (k_v, k_s) budget: all
    units at their longest, i.e. columns 0..k_v-1 and offsets 0..k_s-1.

    Whenever k_v + k_s <= n (true for every bundled calibration budget),
    no selection computes more cells than this plan: moving a unit outward
    loses at least as many cells as the vertical/slash overlap it avoids.
    That makes it the right probe for budget-to-sparsity calibration checks.
    """
    if num_verticals < 1 or num_slashes < 1:
        raise ValueError("budgets must be positive")
    if num_verticals > seq_len or num_slashes > seq_len:
        raise ValueError("budgets cannot exceed seq_len")
    v = np.arange(num_verticals, dtype=np.int64)
    s = np.arange(num_slashes, dtype=np.int64)
    return VerticalSlashPlan(
        verticals=tuple(v.copy() for _ in range(num_heads)),
        slashes=tuple(s.copy() for _ in range(num_heads)),
        seq_len=seq_len,
        approx_window=0,
    )


def calibrate_vertical_slash(
    inputs: AttentionInputs,
    target_sparsity: float,
    approx_window: int = 256,
) -> CalibrationSearch:
    """Smallest equal budget k = k_v = k_s whose built plan achieves sparsity
    at or below the target (binary search; achieved sparsity is non-increasing
    in k because selections are nested)."""

    def sparsity(k: int) -> float:
        plan = build_vertical_slash(inputs, k, k, approx_window)
        return plan_sparsity(plan).achieved_sparsity

    return _smallest_budget(
        max(FORCED_PREFIX, FORCED_LOCAL), inputs.seq_len, sparsity, target_sparsity
    )
