"""KV-cache eviction after prefill: uniform per-head budgets and the
adaptive variant that pools the budget across heads.

Both score tokens with exact attention from the last ``approx_window`` query
rows, reduce over the query heads of each kv group (mean for the uniform
variant, max for the adaptive one), then smooth the per-token scores with a
zero-padded 1-d average pool.  The first 4 and most recent 128 tokens are
always kept and count toward the capacity; tokens are ranked by
``accounting.ranked_keep``.
"""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs, window_weights_head
from .accounting import ranked_keep
from .plans import EvictionPlan

__all__ = [
    "FORCED_FIRST",
    "FORCED_RECENT",
    "snapkv_compress",
    "ada_snapkv_compress",
    "smoothed_scores",
]

FORCED_FIRST = 4
FORCED_RECENT = 128


def _avg_pool_1d(scores: np.ndarray, kernel_size: int) -> np.ndarray:
    """Zero-padded moving average dividing by the full kernel size, matching
    the usual pooling convention for eviction scoring."""
    if kernel_size % 2 != 1:
        raise ValueError("kernel_size must be odd")
    kernel = np.ones(kernel_size) / kernel_size
    return np.convolve(scores, kernel, mode="same")


def _group_window_weights(
    inputs: AttentionInputs, kv_head: int, window: int
) -> np.ndarray:
    """[group_heads, window, n] window attention for one kv head's group."""
    rows = []
    for h, g in enumerate(inputs.group_map):
        if g == kv_head:
            rows.append(window_weights_head(inputs, h, window))
    return np.stack(rows)


def smoothed_scores(
    inputs: AttentionInputs,
    kv_head: int,
    approx_window: int,
    kernel_size: int,
    reduce: str,
) -> np.ndarray:
    window = min(approx_window, inputs.seq_len)
    group = _group_window_weights(inputs, kv_head, window)
    if reduce == "mean":
        raw = group.mean(axis=(0, 1))
    elif reduce == "max":
        raw = group.max(axis=(0, 1))
    else:
        raise ValueError(f"unknown reduction {reduce!r}")
    return _avg_pool_1d(raw, kernel_size)


def _forced_mask(n: int) -> np.ndarray:
    ids = np.arange(n)
    return (ids < FORCED_FIRST) | (ids >= n - FORCED_RECENT)


def _validate_capacity(token_capacity: int, n: int) -> bool:
    """Returns True when compression is a no-op (capacity covers the cache)."""
    if token_capacity < FORCED_FIRST + FORCED_RECENT:
        raise ValueError(
            f"token_capacity must be >= {FORCED_FIRST + FORCED_RECENT} to cover forced tokens"
        )
    return token_capacity >= n


def snapkv_compress(
    inputs: AttentionInputs,
    token_capacity: int,
    approx_window: int = 256,
    kernel_size: int = 21,
) -> EvictionPlan:
    """Uniform eviction: each kv head keeps its own top ``token_capacity``
    tokens by smoothed mean window attention."""
    n = inputs.seq_len
    noop = _validate_capacity(token_capacity, n)
    if noop:
        keep = np.ones((inputs.num_kv_heads, n), dtype=bool)
    else:
        scores = np.stack(
            [
                smoothed_scores(inputs, kv, approx_window, kernel_size, "mean")
                for kv in range(inputs.num_kv_heads)
            ]
        )
        keep = ranked_keep(scores, token_capacity, _forced_mask(n))
    return EvictionPlan(
        kept=tuple(np.flatnonzero(k) for k in keep),
        token_capacity=token_capacity,
        seq_len=n,
        approx_window=approx_window,
        kernel_size=kernel_size,
        noop=noop,
    )


def ada_snapkv_compress(
    inputs: AttentionInputs,
    token_capacity: int,
    min_head_fraction: float = 0.2,
    approx_window: int = 256,
    kernel_size: int = 21,
) -> EvictionPlan:
    """Adaptive eviction: one pooled budget of num_kv_heads * token_capacity
    slots filled by globally ranked smoothed max window attention, subject to
    a per-head floor of ceil(min_head_fraction * token_capacity) tokens.

    Each head first keeps its floor by its own ranking; the pool then ranks
    all heads' tokens together, head-major, so equal scores go to the lower
    kv head and then the lower token."""
    if not 0.0 <= min_head_fraction <= 1.0:
        raise ValueError("min_head_fraction must lie in [0, 1]")
    n = inputs.seq_len
    noop = _validate_capacity(token_capacity, n)
    num_kv = inputs.num_kv_heads
    if noop:
        keep = np.ones((num_kv, n), dtype=bool)
    else:
        forced = _forced_mask(n)
        floor = max(int(np.ceil(min_head_fraction * token_capacity)), int(forced.sum()))
        scores = np.stack(
            [
                smoothed_scores(inputs, kv, approx_window, kernel_size, "max")
                for kv in range(num_kv)
            ]
        )
        floors = ranked_keep(scores, floor, forced)
        keep = ranked_keep(
            scores.reshape(-1), num_kv * token_capacity, floors.reshape(-1)
        ).reshape(num_kv, n)
    return EvictionPlan(
        kept=tuple(np.flatnonzero(k) for k in keep),
        token_capacity=token_capacity,
        seq_len=n,
        approx_window=approx_window,
        kernel_size=kernel_size,
        min_head_fraction=min_head_fraction,
        noop=noop,
    )
