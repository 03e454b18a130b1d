"""KV-cache eviction after prefill: uniform per-head budgets and the
adaptive variant that pools the budget across heads.

Both score tokens with exact attention from the last ``APPROX_WINDOW`` query
rows, reduce over the query heads and window rows of each kv group (mean for
the uniform variant, max for the adaptive one) from the column masses and
maxima of the input's cached ``vertical_slash.window_stats``, then smooth
the per-token scores with a zero-padded ``KERNEL_SIZE``-wide average pool.
The first 4 and most recent 128 tokens are always kept and count toward the
capacity.  Each reduction's ``accounting.rank`` orders are one cached stage
(``RANKS``), so a build at any capacity is a threshold on them.  Uniform
allocation is the pooled rule with every head's floor at its full capacity.
"""

from __future__ import annotations

from functools import partial
from typing import Literal

import numpy as np

# no src/ module calls window_weights_head; perfbench/tracing.py wraps it here
from ..attention import APPROX_WINDOW, AttentionInputs, window_weights_head  # noqa: F401
from .accounting import rank
from .plans import EvictionPlan
from .vertical_slash import window_stats

__all__ = [
    "APPROX_WINDOW",
    "FORCED_FIRST",
    "FORCED_RECENT",
    "KERNEL_SIZE",
    "snapkv_compress",
    "ada_snapkv_compress",
    "smoothed_scores",
]

FORCED_FIRST = 4
FORCED_RECENT = 128
KERNEL_SIZE = 21


def _avg_pool_1d(scores: np.ndarray) -> np.ndarray:
    """Zero-padded centred moving average dividing by the full kernel size,
    one value per score even when the row is shorter than the kernel."""
    kernel = np.ones(KERNEL_SIZE) / KERNEL_SIZE
    start = (KERNEL_SIZE - 1) // 2
    return np.convolve(scores, kernel, mode="full")[start : start + scores.size]


def smoothed_scores(
    inputs: AttentionInputs, kv_head: int, reduce: Literal["mean", "max"]
) -> np.ndarray:
    """Per-token window attention of one kv head's query group, reduced over
    the group's heads and window rows (the mean from the cached per-head
    column sums, the max from the cached per-head column maxima), then
    smoothed."""
    stats = inputs.cached(window_stats)
    group = [h for h, g in enumerate(inputs.group_map) if g == kv_head]
    if reduce == "mean":
        window = min(APPROX_WINDOW, inputs.seq_len)
        scores = stats.columns[group].sum(axis=0) / (len(group) * window)
    elif reduce == "max":
        scores = stats.column_max[group].max(axis=0)
    else:
        raise ValueError(f"reduce must be 'mean' or 'max', got {reduce!r}")
    return _avg_pool_1d(scores)


def _eviction_rank(inputs: AttentionInputs, reduce: Literal["mean", "max"]):
    """One reduction's cached stage: the [num_kv_heads, seq_len]
    ``accounting.rank`` places of each token in its kv head by smoothed
    score, forced tokens first, and the pooled order, the flat ids
    (kv_head * seq_len + token) of every head's tokens by one rank over
    them all, where equal scores go to the lower kv head."""
    n, num_kv = inputs.seq_len, inputs.num_kv_heads
    ids = np.arange(n)
    scores = np.stack([smoothed_scores(inputs, kv, reduce) for kv in range(num_kv)])
    places = rank(scores, (ids < FORCED_FIRST) | (ids >= n - FORCED_RECENT))
    pooled = rank(scores.reshape(-1), False)
    order = np.empty_like(pooled)
    order[pooled] = np.arange(pooled.size, dtype=pooled.dtype)
    return places, order


# the cached stage of each reduction
RANKS = {reduce: partial(_eviction_rank, reduce=reduce) for reduce in ("mean", "max")}


def _compress(
    inputs: AttentionInputs,
    token_capacity: int,
    floor_fraction: float,
    reduce: Literal["mean", "max"],
) -> EvictionPlan:
    """Each kv head keeps its first tokens up to a floor of
    ceil(floor_fraction * capacity), its forced tokens at least; one pool of
    num_kv_heads * capacity slots then takes the other tokens in the pooled
    order, so equal scores go to the lower kv head and then the lower token.
    A capacity at or above the cache length keeps every token.  When the
    floors fill the pool (uniform allocation, or a floor fraction of 1),
    the pool takes nothing and the pooled order is not read.  Otherwise the
    floors hold at most num_kv_heads * floor tokens, so the pool's first
    num_kv_heads * capacity entries hold every token it takes, and no
    step of a build reads more of the pooled order."""
    forced = FORCED_FIRST + FORCED_RECENT
    if token_capacity < forced:
        raise ValueError(f"token_capacity must be >= {forced} to cover forced tokens")
    n, num_kv = inputs.seq_len, inputs.num_kv_heads
    capacity = min(token_capacity, n)
    floor = min(max(int(np.ceil(floor_fraction * token_capacity)), forced), n)
    places, order = inputs.cached(RANKS[reduce])
    keep = places < floor
    room = num_kv * (capacity - floor)
    if room:
        head = order[: num_kv * capacity]
        flat = keep.reshape(-1)
        flat[head[~flat[head]][:room]] = True
    return EvictionPlan(kept=tuple(np.flatnonzero(k) for k in keep), seq_len=n)


def snapkv_compress(inputs: AttentionInputs, token_capacity: int) -> EvictionPlan:
    """Uniform eviction: each kv head keeps its own top ``token_capacity``
    tokens by smoothed mean window attention."""
    return _compress(inputs, token_capacity, 1.0, "mean")


def ada_snapkv_compress(
    inputs: AttentionInputs, token_capacity: int, min_head_fraction: float = 0.2
) -> EvictionPlan:
    """Adaptive eviction: one pooled budget of num_kv_heads * token_capacity
    slots filled by globally ranked smoothed max window attention, subject to
    a per-head floor of ceil(min_head_fraction * token_capacity) tokens."""
    if not 0.0 <= min_head_fraction <= 1.0:
        raise ValueError("min_head_fraction must lie in [0, 1]")
    return _compress(inputs, token_capacity, min_head_fraction, "max")
