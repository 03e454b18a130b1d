"""Shared fixtures and the independent scalar attention oracle.

The oracle is written as plain Python loops on purpose: it shares no code
path with the vectorized implementation it checks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sparselab.attention import AttentionInputs


def naive_attention(inputs: AttentionInputs) -> np.ndarray:
    """Causal attention by explicit scalar loops, [heads, n, head_dim]."""
    h, n, d = inputs.num_q_heads, inputs.seq_len, inputs.head_dim
    q, k, v = inputs.queries, inputs.keys, inputs.values
    out = np.zeros((h, n, d))
    for head in range(h):
        g = inputs.group_map[head]
        for i in range(n):
            logits = []
            for j in range(i + 1):
                s = 0.0
                for t in range(d):
                    s += float(q[head, i, t]) * float(k[g, j, t])
                logits.append(s / math.sqrt(d))
            peak = max(logits)
            exps = [math.exp(x - peak) for x in logits]
            z = sum(exps)
            for j in range(i + 1):
                w = exps[j] / z
                for t in range(d):
                    out[head, i, t] += w * float(v[g, j, t])
    return out


def window_mass_oracle(weights: np.ndarray, seq_len: int):
    """Plain-loop reductions of one head's [window, n] window weights, whose
    rows are the last query rows: per key column the sum and the max, and
    per diagonal offset the sum (cell (i, j) adds to offset i - j)."""
    n = seq_len
    start = n - len(weights)
    col_sum, col_max, slash_sum = [0.0] * n, [0.0] * n, [0.0] * n
    for r, row in enumerate(weights.tolist()):
        i = start + r
        for j in range(i + 1):
            col_sum[j] += row[j]
            col_max[j] = max(col_max[j], row[j])
            slash_sum[i - j] += row[j]
    return np.array(col_sum), np.array(col_max), np.array(slash_sum)


def random_inputs(
    rng: np.random.Generator,
    seq_len: int,
    num_q_heads: int = 4,
    num_kv_heads: int = 2,
    head_dim: int = 8,
    scale: float = 1.0,
) -> AttentionInputs:
    shape_q = (num_q_heads, seq_len, head_dim)
    shape_kv = (num_kv_heads, seq_len, head_dim)
    return AttentionInputs.from_arrays(
        rng.normal(size=shape_q) * scale,
        rng.normal(size=shape_kv) * scale,
        rng.normal(size=shape_kv) * scale,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def tied_inputs(
    rng: np.random.Generator,
    seq_len: int,
    num_q_heads: int = 4,
    num_kv_heads: int = 2,
    head_dim: int = 8,
) -> AttentionInputs:
    """Random queries against one key vector at every position: every key
    (and every block or page of keys) scores the same for a query, so a
    selection rests on its tie-breaking."""
    key = rng.normal(size=head_dim)
    return AttentionInputs.from_arrays(
        rng.normal(size=(num_q_heads, seq_len, head_dim)),
        np.broadcast_to(key, (num_kv_heads, seq_len, head_dim)).copy(),
        rng.normal(size=(num_kv_heads, seq_len, head_dim)),
    )
