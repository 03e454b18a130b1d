"""Page-granular KV selection for decoding.

The cache is split into fixed 16-token pages; each page is summarized by the
elementwise min and max of its key vectors.  A decode query scores a page with
an upper bound on any dot product against its keys, and only the highest
scoring pages are read, the page holding the current token always among them.
``quest_plan``'s decode query is the inputs' last row, so its estimation is
two ``AttentionInputs.cached`` stages: the keys' page index and
``page_order``, that row's ``accounting.rank`` of the pages with the current
page forced.  A build at any budget is one threshold on the order.
``quest_select`` scores pages for any step's query and keeps the same rule.
"""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .accounting import rank
from .plans import PAGE_SIZE, PageIndex, PagePlan

__all__ = ["PAGE_SIZE", "quest_index", "quest_select", "quest_plan", "page_order"]


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


def _num_pick(token_budget: int, position: int) -> int:
    """Pages kept per kv head at ``position``: floor(token_budget /
    PAGE_SIZE) of the pages cached so far, or every one of them once the
    budget covers every cached token (the final page may be partial)."""
    if token_budget < PAGE_SIZE:
        raise ValueError(
            f"token_budget must be at least one page ({PAGE_SIZE}), got {token_budget}"
        )
    valid = position // PAGE_SIZE + 1  # pages whose first token is cached at this step
    return valid if token_budget >= position + 1 else min(valid, token_budget // PAGE_SIZE)


def _page_rank(
    index: PageIndex, query_rows: np.ndarray, position: int, group_map: tuple[int, ...]
) -> np.ndarray:
    """[num_kv_heads, pages cached at ``position``] ``accounting.rank`` of
    the pages by upper bound, max-aggregated over each kv head's query
    group, the current page forced."""
    current = position // PAGE_SIZE
    scores = np.full((index.num_heads, current + 1), -np.inf)
    for h, g in enumerate(group_map):
        bounds = page_upper_bounds(
            np.asarray(query_rows[h], dtype=np.float64),
            index.mins[g][: current + 1],
            index.maxs[g][: current + 1],
        )
        scores[g] = np.maximum(scores[g], bounds)
    return rank(scores, np.arange(current + 1) == current)


def _plan(index: PageIndex, order: np.ndarray, num_pick: int, position: int) -> PagePlan:
    """The plan keeping each kv head's first ``num_pick`` pages of ``order``."""
    keep = order < num_pick
    return PagePlan(index=index, selected=tuple(np.flatnonzero(k) for k in keep), position=position)


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
    num_pick = _num_pick(token_budget, position)
    if query_rows.ndim != 2:
        raise ValueError("query_rows must be [num_q_heads, head_dim]")
    if not 0 <= position < index.seq_len:
        raise ValueError(f"position {position} outside cache of length {index.seq_len}")
    if len(group_map) != query_rows.shape[0]:
        raise ValueError("group_map must assign every query head")
    return _plan(index, _page_rank(index, query_rows, position, group_map), num_pick, position)


def _page_index(inputs: AttentionInputs) -> PageIndex:
    """The keys' read-only page index: the stage ``page_order`` scores and
    every ``quest_plan`` holds."""
    index = quest_index(inputs.keys)
    index.mins.flags.writeable = index.maxs.flags.writeable = False
    return index


def page_order(inputs: AttentionInputs) -> np.ndarray:
    """The stage ``quest_plan`` thresholds: ``_page_rank`` of every page for
    the query at the inputs' last row."""
    position = inputs.seq_len - 1
    index = inputs.cached(_page_index)
    return _page_rank(index, inputs.queries[:, position, :], position, inputs.group_map)


def quest_plan(inputs: AttentionInputs, token_budget: int) -> PagePlan:
    """Select ``quest_select``'s pages for the query at the last row, as
    ``rank < pages kept`` of the inputs' cached ``page_order``."""
    position = inputs.seq_len - 1
    num_pick = _num_pick(token_budget, position)
    return _plan(inputs.cached(_page_index), inputs.cached(page_order), num_pick, position)
