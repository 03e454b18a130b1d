"""Exact coverage accounting and recall measurement for sparse plans.

Sparsity is always 1 - computed_cells / causal_cells with both counts exact.
For prefill plans the denominator is the causal triangle per query head; for
eviction and page plans it is the cached-token count per kv head at the
decode step.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..attention import (
    AttentionInputs,
    CellMask,
    Tile,
    block_tiles,
    column_tiles,
    row_logsumexp,
)
from .plans import (
    BLOCK_SIZE,
    PAGE_SIZE,
    BlockPlan,
    EvictionPlan,
    PagePlan,
    SparsePlan,
    SparsityReport,
    VerticalSlashPlan,
    span_lengths,
)

__all__ = [
    "CalibrationSearch",
    "plan_sparsity",
    "attention_recall",
    "to_cell_mask",
    "plan_tiles",
    "page_plan_rows",
    "vertical_slash_cells",
    "block_plan_cells",
    "block_budget_cells",
    "ranked_keep",
]

ORACLE_LIMIT = 2048


def vertical_slash_cells(verticals: np.ndarray, slashes: np.ndarray, n: int) -> int:
    """|union of cells| for one head: verticals contribute n - j cells each,
    slashes n - o each, minus the overlap pairs {(j, o): j + o <= n - 1}."""
    v = np.asarray(verticals, dtype=np.int64)
    s = np.asarray(slashes, dtype=np.int64)
    col_cells = int((n - v).sum())
    slash_cells = int((n - s).sum())
    # cell (j + o, j) belongs to vertical j and slash o when j + o < n
    overlap = int(np.searchsorted(s, n - v, side="left").sum())
    return col_cells + slash_cells - overlap


def block_plan_cells(plan: BlockPlan) -> int:
    """Exact cell count.  Only the last block can be short, and it is only
    ever a diagonal, so every off-diagonal key block is full width: query
    block b with r_b rows reads r_b * BLOCK_SIZE cells per off-diagonal key
    block and r_b (r_b + 1) / 2 in its diagonal one."""
    rows = span_lengths(np.arange(plan.num_query_blocks), plan.seq_len)
    diag = np.diagonal(plan.selections, axis1=1, axis2=2)
    off_diag = np.count_nonzero(plan.selections, axis=2) - diag
    return int((rows * BLOCK_SIZE * off_diag + diag * (rows * (rows + 1) // 2)).sum())


def block_budget_cells(seq_len: int, top_k_blocks: int) -> int:
    """Cells computed per head at a given block budget, independent of which
    blocks score highest: query block b always selects min(k, b+1) blocks,
    one of them diagonal, and every off-diagonal key block is full width."""
    if top_k_blocks < 2:
        raise ValueError("top_k_blocks must be at least 2")
    ids = np.arange(-(-seq_len // BLOCK_SIZE))
    rows = span_lengths(ids, seq_len)
    off_diag = np.minimum(top_k_blocks, ids + 1) - 1
    return int((rows * (rows + 1) // 2 + off_diag * rows * BLOCK_SIZE).sum())


def plan_sparsity(plan: SparsePlan, target_sparsity: float | None = None) -> SparsityReport:
    if isinstance(plan, VerticalSlashPlan):
        n = plan.seq_len
        computed = sum(
            vertical_slash_cells(v, s, n) for v, s in zip(plan.verticals, plan.slashes)
        )
        causal = plan.num_heads * n * (n + 1) // 2
    elif isinstance(plan, BlockPlan):
        n = plan.seq_len
        computed = block_plan_cells(plan)
        causal = plan.num_heads * n * (n + 1) // 2
    elif isinstance(plan, EvictionPlan):
        computed = sum(plan.kept_counts)
        causal = plan.num_heads * plan.seq_len
    elif isinstance(plan, PagePlan):
        # selected pages never start past the current token
        cached = plan.position + 1
        computed = sum(int(span_lengths(pages, cached).sum()) for pages in plan.selected)
        causal = plan.num_heads * cached
    else:
        raise TypeError(f"unsupported plan type {type(plan).__name__}")
    achieved = 1.0 - computed / causal
    return SparsityReport(
        achieved_sparsity=achieved,
        computed_cells=int(computed),
        causal_cells=int(causal),
        target_sparsity=target_sparsity,
    )


def _plan_mask_matrix(plan: SparsePlan, head: int, causal: np.ndarray, out: np.ndarray) -> None:
    """Write the boolean [n, n] cells of one head of a prefill-style plan
    (a query head; a kv head for an eviction plan) into ``out``, given the
    causal lower triangle."""
    n = plan.seq_len
    if isinstance(plan, BlockPlan):
        # the key columns of each query block, copied to its rows: whole
        # blocks as a [blocks, BLOCK_SIZE, n] view, then the short last one
        chosen = plan.selections[head].repeat(BLOCK_SIZE, axis=1)[:, :n]
        full = n // BLOCK_SIZE
        out[: full * BLOCK_SIZE].reshape(full, BLOCK_SIZE, n)[...] = chosen[:full, None]
        out[full * BLOCK_SIZE :] = chosen[full : full + 1]
        out &= causal
        return
    # vertical lines and kept tokens are whole key columns
    columns = np.zeros(n, dtype=bool)
    columns[plan.verticals[head] if isinstance(plan, VerticalSlashPlan) else plan.kept[head]] = True
    np.logical_and(causal, columns, out=out)
    if isinstance(plan, VerticalSlashPlan):
        slashes = np.zeros(n, dtype=bool)
        slashes[plan.slashes[head]] = True
        out |= _lower_toeplitz(slashes)


def _lower_toeplitz(diagonals: np.ndarray) -> np.ndarray:
    """Read-only boolean [n, n] view whose cell (i, j) is diagonals[i - j]
    for j <= i and false above the diagonal; nothing n x n is allocated."""
    n = diagonals.size
    line = np.zeros(2 * n - 1, dtype=bool)
    line[:n] = diagonals[::-1]
    return as_strided(line[n - 1 :], shape=(n, n), strides=(-1, 1), writeable=False)


def plan_tiles(
    plan: SparsePlan, group_map: tuple[int, ...], inputs: AttentionInputs, head: int
) -> Iterator[Tile]:
    """One query head's attention tiles, read straight from the plan's
    fields: a vertical-slash plan's verticals as columns and its slashes as
    diagonals, an eviction plan's kept tokens (of the head's kv head under
    ``group_map``) as columns, a block plan's chosen key blocks."""
    if isinstance(plan, VerticalSlashPlan):
        return column_tiles(inputs, head, plan.verticals[head], plan.slashes[head])
    if isinstance(plan, EvictionPlan):
        return column_tiles(inputs, head, plan.kept[group_map[head]])
    if isinstance(plan, BlockPlan):
        return block_tiles(inputs, head, plan.selections[head])
    raise TypeError(f"no prefill tiles for {type(plan).__name__}")


def to_cell_mask(plan: SparsePlan, group_map: tuple[int, ...]) -> CellMask:
    """Write each query head's cells into one bitmap mask, which also
    remembers the plan: the kernel runs the plan's tiles on it.

    Vertical-slash and block plans are per query head already; eviction plans
    are per kv head, expanded once per kv head and copied to its query heads
    through ``group_map``.  Page plans constrain a single decode row only, so
    they have no full-mask view (use page_plan_rows).
    """
    if isinstance(plan, PagePlan):
        raise TypeError("page plans constrain one decode row; use page_plan_rows")
    n = plan.seq_len
    causal = _lower_toeplitz(np.ones(n, dtype=bool))
    if isinstance(plan, EvictionPlan):
        cells = np.empty((len(group_map), n, n), dtype=bool)
        for g in sorted(set(group_map)):
            first, *rest = [h for h, kv in enumerate(group_map) if kv == g]
            _plan_mask_matrix(plan, g, causal, cells[first])
            cells[rest] = cells[first]
    else:
        cells = np.empty((plan.num_heads, n, n), dtype=bool)
        for h in range(plan.num_heads):
            _plan_mask_matrix(plan, h, causal, cells[h])
    return CellMask(cells, tiles=partial(plan_tiles, plan, group_map))


def page_plan_rows(plan: PagePlan, group_map: tuple[int, ...]) -> list[np.ndarray]:
    """Per query-head permitted token indices for the plan's decode step."""
    offsets = np.arange(PAGE_SIZE)
    per_kv = []
    for pages in plan.selected:
        tokens = (pages[:, None] * PAGE_SIZE + offsets).ravel()
        per_kv.append(tokens[tokens <= plan.position])
    return [per_kv[g] for g in group_map]


def attention_recall(plan: SparsePlan, inputs: AttentionInputs) -> float:
    """Fraction of dense attention probability mass covered by the plan's
    cells, averaged over the rows the plan constrains and over heads.

    A cell (i, j) holds exp(logit_ij - lse_i) of row i, with lse_i the
    log-sum-exp of row i's causal logits.  A page plan constrains its decode
    row, whose covered mass is that sum over the selected tokens, with the
    row's lse computed from the row alone in O(n * head_dim).  A
    prefill-style plan's row covers exp(masked_lse - causal_lse), with the
    masked log-sum-exp taken over the plan's tiles (``plan_tiles``) and
    the causal one read from ``AttentionInputs.causal_lse``; only these
    O(n^2 * head_dim) plans are limited to n <= ORACLE_LIMIT."""
    heads, group_map = inputs.num_q_heads, inputs.group_map
    if isinstance(plan, PagePlan):
        pos = plan.position
        scale = 1.0 / np.sqrt(inputs.head_dim)
        total = 0.0
        for h, tokens in enumerate(page_plan_rows(plan, group_map)):
            logits = (inputs.keys[group_map[h]][: pos + 1] @ inputs.queries[h][pos]) * scale
            peak = logits.max()
            dense = peak + np.log(np.exp(logits - peak).sum())
            total += float(np.exp(logits[tokens] - dense).sum())
        return total / heads

    n = inputs.seq_len
    if n > ORACLE_LIMIT:
        raise ValueError(f"recall oracle limited to n <= {ORACLE_LIMIT}, got {n}")
    masked = np.stack(
        [row_logsumexp(inputs, plan_tiles(plan, group_map, inputs, h)) for h in range(heads)]
    )
    return float(np.exp(masked - inputs.causal_lse).mean())


def ranked_keep(scores: np.ndarray, k: int | np.ndarray, forced: np.ndarray) -> np.ndarray:
    """Boolean keep-mask of the first ``k`` ranked members of each row.

    This is the one selection rule every builder uses.  Along the last axis
    of ``scores``, members marked in ``forced`` rank first, then the rest by
    descending score; ties, forced members included, go to the lower index.
    Forced members count toward ``k``, which is a scalar or one count per row
    (shape ``scores.shape[:-1]``).  Scores must be finite or -inf; -inf
    members rank last.
    """
    scores = np.asarray(scores, dtype=np.float64)
    m = scores.shape[-1]
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), scores.shape[:-1])
    forced = np.broadcast_to(forced, scores.shape)
    if (k < 0).any():
        raise ValueError(f"budget {int(k.min())} is negative")
    if (k > m).any():
        raise ValueError(f"budget {int(k.max())} exceeds the {m} available candidates")
    if (k < forced.sum(axis=-1)).any():
        raise ValueError("budget cannot cover the forced members")
    # ascending key order is rank order; forced members sort below every score
    key = np.where(forced, -np.inf, -scores).reshape(k.size, m)
    k = k.reshape(-1)
    keep = np.zeros(key.shape, dtype=bool)
    budgets = np.unique(k).tolist()
    for budget in budgets:
        rows = slice(None) if len(budgets) == 1 else np.flatnonzero(k == budget)
        if budget > 0:
            keep[rows] = _first_k(key[rows], budget)
    return keep.reshape(scores.shape)


def _first_k(key: np.ndarray, k: int) -> np.ndarray:
    """Per row of ``key``, the k smallest members, equal keys to the lower
    index: every member below the row's k-th smallest key, then the lowest
    indexed members equal to it until k are kept."""
    threshold = np.partition(key, k - 1, axis=-1)[:, k - 1 : k]
    keep = key < threshold
    tied = key == threshold
    room = k - np.count_nonzero(keep, axis=-1)
    crowded = np.flatnonzero(np.count_nonzero(tied, axis=-1) > room)
    if crowded.size:
        rank = np.cumsum(tied[crowded], axis=-1)
        tied[crowded] &= rank <= room[crowded, None]
    return keep | tied


class CalibrationSearch(NamedTuple):
    count: int
    target_reachable: bool


def _smallest_budget(
    lo: int, hi: int, sparsity_of_k: Callable[[int], float], target: float
) -> CalibrationSearch:
    """Smallest k in [lo, hi] whose achieved sparsity is at or below the
    target, by binary search over a sparsity non-increasing in k.  When even
    k = lo sits below the target, the target is unreachable and lo is
    returned flagged."""
    if not 0.0 <= target < 1.0:
        raise ValueError("target_sparsity must lie in [0, 1)")
    if sparsity_of_k(lo) < target:
        return CalibrationSearch(lo, False)
    while lo < hi:
        mid = (lo + hi) // 2
        if sparsity_of_k(mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return CalibrationSearch(lo, True)
