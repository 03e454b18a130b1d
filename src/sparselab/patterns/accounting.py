"""Exact coverage accounting and recall measurement for sparse plans.

Sparsity is always 1 - computed_cells / causal_cells with both counts exact.
For prefill plans the denominator is the causal triangle per query head; for
eviction and page plans it is the cached-token count per kv head at the
decode step.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..attention import AttentionInputs, CellMask, _stable_softmax, row_logsumexp
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


def _plan_mask_matrix(plan: SparsePlan, head: int, group_map: tuple[int, ...]) -> np.ndarray:
    """Boolean cell matrix of one query head's plan (prefill-style plans)."""
    if not isinstance(plan, (VerticalSlashPlan, BlockPlan, EvictionPlan)):
        raise TypeError(f"no full-mask view for {type(plan).__name__}")
    n = plan.seq_len
    if isinstance(plan, BlockPlan):
        chosen = plan.selections[head]
        full = chosen.repeat(BLOCK_SIZE, axis=0).repeat(BLOCK_SIZE, axis=1)[:n, :n]
    else:
        # vertical lines and kept tokens are whole key columns
        if isinstance(plan, VerticalSlashPlan):
            columns = plan.verticals[head]
        else:
            columns = plan.kept[group_map[head]]
        full = np.zeros((1, n), dtype=bool)
        full[0, columns] = True
    # the lower triangle, as np.tril(full) but without its full-size where()
    m = full & np.tri(n, dtype=bool)
    if isinstance(plan, VerticalSlashPlan):
        flat = m.reshape(-1)
        for o in plan.slashes[head].tolist():
            # cells (o, 0), (o + 1, 1), ... lie n + 1 apart in the flat array
            flat[o * n :: n + 1] = True
    return m


def to_cell_mask(plan: SparsePlan, group_map: tuple[int, ...] | None = None) -> CellMask:
    """Stack each query head's cell matrix into one bitmap mask.

    Vertical-slash and block plans are per query head already; eviction plans
    are per kv head and need a group_map to fan out to query heads.  Page
    plans constrain a single decode row only, so they have no full-mask view
    (use page_plan_rows).
    """
    if isinstance(plan, PagePlan):
        raise TypeError("page plans constrain one decode row; use page_plan_rows")
    if group_map is None:
        group_map = tuple(range(plan.num_heads))
    heads = len(group_map) if isinstance(plan, EvictionPlan) else plan.num_heads
    return CellMask(np.stack([_plan_mask_matrix(plan, h, group_map) for h in range(heads)]))


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

    For prefill-style plans a row's covered mass is exp(masked_lse -
    causal_lse): the log-sum-exp of its logits over the plan's cells against
    the cached one over the whole causal row."""
    n = inputs.seq_len
    if n > ORACLE_LIMIT:
        raise ValueError(f"recall oracle limited to n <= {ORACLE_LIMIT}, got {n}")
    heads = inputs.num_q_heads
    if isinstance(plan, PagePlan):
        rows = page_plan_rows(plan, inputs.group_map)
        pos = plan.position
        scale = 1.0 / np.sqrt(inputs.head_dim)
        total = 0.0
        for h in range(heads):
            g = inputs.group_map[h]
            logits = (inputs.keys[g][: pos + 1] @ inputs.queries[h][pos]) * scale
            w = _stable_softmax(logits)
            total += float(w[rows[h]].sum())
        return total / heads

    masked = np.stack(
        [
            row_logsumexp(inputs, h, _plan_mask_matrix(plan, h, inputs.group_map))
            for h in range(heads)
        ]
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
    if (k > m).any():
        raise ValueError(f"budget {int(k.max())} exceeds the {m} available candidates")
    if (k < forced.sum(axis=-1)).any():
        raise ValueError("budget cannot cover the forced members")
    # a stable sort keeps equal keys in index order
    order = np.argsort(np.where(forced, -np.inf, -scores), axis=-1, kind="stable")
    keep = np.empty(scores.shape, dtype=bool)
    np.put_along_axis(keep, order, np.arange(m) < k[..., None], axis=-1)
    return keep


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
