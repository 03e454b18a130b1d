"""Exact coverage accounting and recall measurement for sparse plans.

Sparsity is always 1 - computed_cells / causal_cells with both counts exact.
For prefill plans the denominator is the causal triangle per query head; for
eviction and page plans it is the cached-token count per kv head at the
decode step.  Each function is one call on the plan's own geometry
(``plans``); only a ``PagePlan``, one decode row, is told apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from ..attention import AttentionInputs, Tile, column_tiles, row_logsumexp
from .plans import PAGE_SIZE, PagePlan, SparsePlan, SparsityReport

__all__ = [
    "CellMask",
    "plan_sparsity",
    "attention_recall",
    "to_cell_mask",
    "page_plan_rows",
    "ranked_keep",
]

ORACLE_LIMIT = 2048


def plan_sparsity(plan: SparsePlan, target_sparsity: float | None = None) -> SparsityReport:
    return SparsityReport(*plan.cell_counts(), target_sparsity)


@dataclass(frozen=True)
class CellMask:
    """The cells of a prefill-style plan, as ``to_cell_mask`` returns them:
    the kernel reads ``num_heads``, ``seq_len`` and each head's ``tiles``.
    ``cells[h, i, j]``, true where query row i of head h reads key j, is
    expanded from the plan head by head when first read and cached read-only."""

    plan: SparsePlan  # any but a PagePlan
    group_map: tuple[int, ...]

    @property
    def num_heads(self) -> int:
        return len(self.group_map)

    @property
    def seq_len(self) -> int:
        return self.plan.seq_len

    def tiles(self, inputs: AttentionInputs, head: int) -> Iterator[Tile]:
        return self.plan.tiles(inputs, self.group_map, head)

    @cached_property
    def cells(self) -> np.ndarray:
        n = self.seq_len
        cells = np.empty((self.num_heads, n, n), dtype=bool)
        for h in range(self.num_heads):
            self.plan.write_cells(self.group_map, h, cells[h])
        cells.flags.writeable = False
        return cells

    def row(self, head: int, i: int) -> np.ndarray:
        return np.flatnonzero(self.cells[head, i])

    def num_cells(self) -> int:
        return int(np.count_nonzero(self.cells))


def to_cell_mask(plan: SparsePlan, group_map: tuple[int, ...]) -> CellMask:
    """The plan's mask; no cell is written until ``cells`` is read.

    Raises ValueError if the plan's heads do not fit ``group_map``, or
    naming the first query head whose row 0 reads no key, which would leave
    rows empty.  Page plans constrain a single decode row, so they have no
    full-mask view (use page_plan_rows).
    """
    if isinstance(plan, PagePlan):
        raise TypeError("page plans constrain one decode row; use page_plan_rows")
    plan.check_fits(group_map)
    for h in range(len(group_map)):
        if not plan.reads_first_key(group_map, h):
            raise ValueError(f"head {h} row 0 selects no key")
    return CellMask(plan, tuple(group_map))


def page_plan_rows(plan: PagePlan, group_map: tuple[int, ...]) -> list[np.ndarray]:
    """Per query-head permitted token indices for the plan's decode step."""
    plan.check_fits(group_map)
    offsets = np.arange(PAGE_SIZE)
    per_kv = []
    for pages in plan.selected:
        tokens = (pages[:, None] * PAGE_SIZE + offsets).ravel()
        per_kv.append(tokens[tokens <= plan.position])
    return [per_kv[g] for g in group_map]


def attention_recall(plan: SparsePlan, inputs: AttentionInputs) -> float:
    """Fraction of dense attention probability mass covered by the plan's
    cells, averaged over the rows the plan constrains and over heads; a
    ValueError if the plan does not fit the inputs' shape (``check_fits``).

    A cell (i, j) holds exp(logit_ij - lse_i) of row i, with lse_i the
    log-sum-exp of row i's causal logits.  A page plan constrains its decode
    row, whose covered mass is that sum over the selected tokens, with the
    row's lse computed from the row alone in O(n * head_dim).  A
    prefill-style plan's row covers exp(masked_lse - causal_lse), with the
    masked log-sum-exp taken over the plan's tiles (``tiles``) and the
    causal one read from the inputs' cached ``causal_lse``; only these
    O(n^2 * head_dim) plans are limited to n <= ORACLE_LIMIT."""
    heads, group_map = inputs.num_q_heads, inputs.group_map
    plan.check_fits(group_map, inputs.seq_len)
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
        [row_logsumexp(inputs, plan.tiles(inputs, group_map, h)) for h in range(heads)]
    )
    return float(np.exp(masked - inputs.cached(causal_lse)).mean())


def causal_lse(inputs: AttentionInputs) -> np.ndarray:
    """[num_q_heads, seq_len] log-sum-exp of each row's causal logits, read
    from the tiles ``dense_prefill`` runs; the recall oracle's cached stage."""
    every = np.arange(inputs.seq_len)
    return np.stack(
        [row_logsumexp(inputs, column_tiles(inputs, h, every)) for h in range(inputs.num_q_heads)]
    )


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
