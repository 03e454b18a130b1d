"""Vertical-slash pattern builders: fixed-budget selection and the
coverage-driven adaptive variant.

Both score candidates with exact attention from the last ``approx_window``
query rows onto all keys.  A "vertical" keeps one key column for every later
query; a "slash" keeps one causal diagonal (offset o covers cells (i, i-o)).
The first ``forced_prefix`` columns and the ``forced_local`` smallest offsets
are always selected and count toward the configured budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..attention import AttentionInputs, window_weights_head
from .accounting import CalibrationSearch, _smallest_budget, plan_sparsity
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


def _top_k_with_forced(
    scores: np.ndarray, k: int, forced: np.ndarray
) -> np.ndarray:
    """Top-k indices by score with forced members included in the count.

    Ties break toward the lower index.
    """
    n = scores.shape[0]
    if k > n:
        raise ValueError(f"budget {k} exceeds the {n} available candidates")
    if k < forced.size:
        raise ValueError(f"budget {k} cannot cover the {forced.size} forced members")
    order = np.lexsort((np.arange(n), -scores))
    picked = list(forced)
    forced_set = set(forced.tolist())
    for idx in order:
        if len(picked) >= k:
            break
        if int(idx) not in forced_set:
            picked.append(int(idx))
    return np.array(sorted(picked), dtype=np.int64)


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

    forced_cols = np.arange(min(FORCED_PREFIX, n), dtype=np.int64)
    forced_offs = np.arange(min(FORCED_LOCAL, n), dtype=np.int64)
    verticals = []
    slashes = []
    for head in range(inputs.num_q_heads):
        w = window_weights_head(inputs, head, approx_window)
        col_mass, slash_mass, slash_cells = _column_and_diagonal_mass(w, n)
        slash_score = slash_mass / slash_cells
        verticals.append(_top_k_with_forced(col_mass, num_verticals, forced_cols))
        slashes.append(_top_k_with_forced(slash_score, num_slashes, forced_offs))
    return VerticalSlashPlan(
        verticals=tuple(verticals),
        slashes=tuple(slashes),
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

    forced_cols = np.arange(min(FORCED_PREFIX, n), dtype=np.int64)
    forced_offs = np.arange(min(FORCED_LOCAL, n), dtype=np.int64)
    verticals = []
    slashes = []
    for head in range(inputs.num_q_heads):
        w = window_weights_head(inputs, head, config.approx_window)
        col_mass, slash_mass, _ = _column_and_diagonal_mass(w, n)
        total = float(w.sum())

        sel_cols = set(forced_cols.tolist())
        sel_offs = set(forced_offs.tolist())
        if config.alpha >= 1.0:
            sel_cols = set(range(n))
            sel_offs = set(range(n))
        else:
            # candidate units ranked by raw window mass; verticals win ties,
            # then the lower index
            kinds = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
            ids = np.concatenate([np.arange(n), np.arange(n)])
            mass = np.concatenate([col_mass, slash_mass])
            order = np.lexsort((ids, kinds, -mass))
            covered = float(col_mass[forced_cols].sum() + slash_mass[forced_offs].sum())
            target = config.alpha * total
            count = len(sel_cols) + len(sel_offs)
            for u in order:
                kind, idx = int(kinds[u]), int(ids[u])
                chosen = sel_cols if kind == 0 else sel_offs
                if idx in chosen:
                    continue
                if covered >= target and count >= config.min_budget:
                    break
                chosen.add(idx)
                covered += float(mass[u])
                count += 1
        verticals.append(np.array(sorted(sel_cols), dtype=np.int64))
        slashes.append(np.array(sorted(sel_offs), dtype=np.int64))
    return VerticalSlashPlan(
        verticals=tuple(verticals),
        slashes=tuple(slashes),
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
