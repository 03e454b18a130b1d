"""Page-granular KV selection for decoding.

The cache is split into fixed 16-token pages; each page is summarized by the
elementwise min and max of its key vectors.  A decode query scores a page with
an upper bound on any dot product against its keys, and only the highest
scoring pages are read, the page holding the current token always among them.
Pages are ranked by ``accounting.ranked_keep``.  ``quest_plan`` reads the
keys' page index through ``AttentionInputs.cached``, so each input is
indexed once whatever the budgets it is read at.
"""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .accounting import ranked_keep
from .plans import PAGE_SIZE, PageIndex, PagePlan

__all__ = ["PAGE_SIZE", "quest_index", "quest_select", "quest_plan"]


def quest_index(keys: np.ndarray) -> PageIndex:
    """Build per-page min/max key representatives for every kv head.

    keys: [num_kv_heads, seq_len, head_dim].  The final page may be partial.
    """
    if keys.ndim != 3:
        raise ValueError("keys must be [num_kv_heads, seq_len, head_dim]")
    n = keys.shape[1]
    if n < 1:
        raise ValueError("at least one key required")
    keys = np.asarray(keys, dtype=np.float64)
    pages = -(-n // PAGE_SIZE)
    pad = pages * PAGE_SIZE - n
    if pad:
        # repeating the last key leaves the partial page's min and max exact
        keys = np.concatenate([keys, np.repeat(keys[:, -1:], pad, axis=1)], axis=1)
    paged = keys.reshape(keys.shape[0], pages, PAGE_SIZE, keys.shape[2])
    return PageIndex(mins=paged.min(axis=2), maxs=paged.max(axis=2), seq_len=n)


def page_upper_bounds(query_row: np.ndarray, mins: np.ndarray, maxs: np.ndarray) -> np.ndarray:
    """Score[page] = sum_d max(q_d * min_d, q_d * max_d).

    For any key k in the page, q . k <= score: each coordinate of q_d * k_d is
    bounded by the larger of q_d * min_d and q_d * max_d regardless of sign.
    """
    lo = mins * query_row[None, :]
    hi = maxs * query_row[None, :]
    return np.maximum(lo, hi).sum(axis=1)


def quest_select(
    index: PageIndex,
    query_rows: np.ndarray,
    token_budget: int,
    *,
    position: int,
    group_map: tuple[int, ...],
) -> PagePlan:
    """Select the highest scoring pages for the decode step at ``position``.

    query_rows: [num_q_heads, head_dim], the current step's query for every
    query head.  Page scores are max-aggregated over each kv head's query
    group, ``group_map`` naming each query head's kv head.
    floor(token_budget / PAGE_SIZE) pages are kept per kv head, the current
    token's page forced; a budget covering every cached token keeps all
    pages even when the final page is partial.
    """
    if token_budget < PAGE_SIZE:
        raise ValueError(
            f"token_budget must be at least one page ({PAGE_SIZE}), got {token_budget}"
        )
    if query_rows.ndim != 2:
        raise ValueError("query_rows must be [num_q_heads, head_dim]")
    if not 0 <= position < index.seq_len:
        raise ValueError(f"position {position} outside cache of length {index.seq_len}")
    if len(group_map) != query_rows.shape[0]:
        raise ValueError("group_map must assign every query head")

    current = position // PAGE_SIZE
    valid = current + 1  # pages whose first token is cached at this step
    num_pick = min(valid, token_budget // PAGE_SIZE)
    if token_budget >= position + 1:
        num_pick = valid

    scores = np.full((index.num_heads, valid), -np.inf)
    for h, g in enumerate(group_map):
        bounds = page_upper_bounds(
            np.asarray(query_rows[h], dtype=np.float64),
            index.mins[g][:valid],
            index.maxs[g][:valid],
        )
        scores[g] = np.maximum(scores[g], bounds)
    keep = ranked_keep(scores, num_pick, np.arange(valid) == current)
    selected = tuple(np.flatnonzero(k) for k in keep)
    return PagePlan(index=index, selected=selected, position=position)


def _page_index(inputs: AttentionInputs) -> PageIndex:
    """The keys' read-only page index, the stage ``quest_plan`` caches."""
    index = quest_index(inputs.keys)
    index.mins.flags.writeable = index.maxs.flags.writeable = False
    return index


def quest_plan(inputs: AttentionInputs, token_budget: int) -> PagePlan:
    """Select pages of the cached page index for the query at the last row."""
    position = inputs.seq_len - 1
    index = inputs.cached(_page_index)
    rows = inputs.queries[:, position, :]
    return quest_select(index, rows, token_budget, position=position, group_map=inputs.group_map)
