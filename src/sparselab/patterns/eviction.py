"""KV-cache eviction after prefill: uniform per-head budgets and the
adaptive variant that pools the budget across heads.

Both score tokens with exact attention from the last ``APPROX_WINDOW`` query
rows, reduce over the query heads of each kv group (mean for the uniform
variant, max for the adaptive one), then smooth the per-token scores with a
zero-padded ``KERNEL_SIZE``-wide average pool.  The first 4 and most recent
128 tokens are always kept and count toward the capacity; tokens are ranked
by ``accounting.ranked_keep``.  Uniform allocation is the pooled rule with
every head's floor at its full capacity.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..attention import APPROX_WINDOW, AttentionInputs, window_weights_head
from .accounting import ranked_keep
from .plans import EvictionPlan

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
    inputs: AttentionInputs, kv_head: int, reduce: Callable[..., np.ndarray]
) -> np.ndarray:
    """Per-token window attention of one kv head's query group, reduced over
    the group's heads and window rows by ``reduce`` (``np.mean`` or
    ``np.max``), then smoothed."""
    group = np.stack(
        [
            window_weights_head(inputs, h)
            for h, g in enumerate(inputs.group_map)
            if g == kv_head
        ]
    )
    return _avg_pool_1d(reduce(group, axis=(0, 1)))


def _compress(
    inputs: AttentionInputs,
    token_capacity: int,
    floor_fraction: float,
    reduce: Callable[..., np.ndarray],
) -> EvictionPlan:
    """Each kv head keeps its forced tokens and its best tokens up to a floor
    of ceil(floor_fraction * capacity); one pool of num_kv_heads * capacity
    slots then ranks every head's tokens together, head-major, so equal
    scores go to the lower kv head and then the lower token.  A capacity at
    or above the cache length keeps every token."""
    if token_capacity < FORCED_FIRST + FORCED_RECENT:
        raise ValueError(
            f"token_capacity must be >= {FORCED_FIRST + FORCED_RECENT} to cover forced tokens"
        )
    n, num_kv = inputs.seq_len, inputs.num_kv_heads
    capacity = min(token_capacity, n)
    ids = np.arange(n)
    forced = (ids < FORCED_FIRST) | (ids >= n - FORCED_RECENT)
    floor = min(max(int(np.ceil(floor_fraction * token_capacity)), int(forced.sum())), n)
    scores = np.stack([smoothed_scores(inputs, kv, reduce) for kv in range(num_kv)])
    floors = ranked_keep(scores, floor, forced)
    keep = ranked_keep(scores.reshape(-1), num_kv * capacity, floors.reshape(-1))
    return EvictionPlan(kept=tuple(np.flatnonzero(k) for k in keep.reshape(num_kv, n)), seq_len=n)


def snapkv_compress(inputs: AttentionInputs, token_capacity: int) -> EvictionPlan:
    """Uniform eviction: each kv head keeps its own top ``token_capacity``
    tokens by smoothed mean window attention."""
    return _compress(inputs, token_capacity, 1.0, np.mean)


def ada_snapkv_compress(
    inputs: AttentionInputs, token_capacity: int, min_head_fraction: float = 0.2
) -> EvictionPlan:
    """Adaptive eviction: one pooled budget of num_kv_heads * token_capacity
    slots filled by globally ranked smoothed max window attention, subject to
    a per-head floor of ceil(min_head_fraction * token_capacity) tokens."""
    if not 0.0 <= min_head_fraction <= 1.0:
        raise ValueError("min_head_fraction must lie in [0, 1]")
    return _compress(inputs, token_capacity, min_head_fraction, np.max)
