"""Synthetic attention inputs with controllable structure.

Three named generators cover the regimes the pattern builders care about:
``uniform`` (no structure), ``planted`` (a few needle columns that every late
query points at), and ``clustered`` (keys grouped around shared centroids).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .attention import AttentionInputs

__all__ = ["make_inputs", "GENERATOR_NAMES"]

GENERATOR_NAMES = ("uniform", "planted", "clustered")
# Key centroids shared by the clustered generator's keys and queries.
NUM_CLUSTERS = 8
# Norm of a planted needle key and of each query's lean toward one needle.
NEEDLE_GAIN = 12.0


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def make_inputs(
    kind: str,
    seq_len: int,
    num_q_heads: int = 4,
    num_kv_heads: int = 2,
    head_dim: int = 32,
    seed: int = 0,
    needle_positions: tuple[int, ...] | None = None,
) -> AttentionInputs:
    if seq_len < 1:  # before the planted generator indexes its needles
        raise ValueError(f"seq_len must be at least 1, got {seq_len}")
    if kind not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {kind!r}; expected one of {GENERATOR_NAMES}")
    if needle_positions is not None:
        if kind != "planted":
            raise ValueError(f"needle_positions is for the planted generator only, not {kind!r}")
        if not (len(needle_positions) and all(0 <= p < seq_len for p in needle_positions)):
            raise ValueError(
                f"needle_positions {needle_positions} must be some of range({seq_len})"
            )
        # a repeated needle would be overwritten, yet queries would still lean toward it
        repeated = sorted(p for p, count in Counter(needle_positions).items() if count > 1)
        if repeated:
            raise ValueError(f"needle_positions {needle_positions} name {repeated} more than once")
    rng = np.random.default_rng(seed)
    shape_kv = (num_kv_heads, seq_len, head_dim)
    keys = rng.standard_normal(shape_kv)
    values = rng.standard_normal(shape_kv)
    queries = rng.standard_normal((num_q_heads, seq_len, head_dim))

    if kind == "planted":
        if needle_positions is None:
            count = max(1, seq_len // 128)
            # needles sit in the first half; a one-token sequence plants at 0
            needle_positions = tuple(
                sorted(rng.choice(max(1, seq_len // 2), size=count, replace=False).tolist())
            )
        for g in range(num_kv_heads):
            directions = np.asarray(
                [_unit(rng.standard_normal(head_dim)) for _ in needle_positions]
            )
            keys[g, list(needle_positions)] = directions * NEEDLE_GAIN
            # late queries lean toward one needle each so window scoring sees them
            for h in range(num_q_heads):
                pick = rng.integers(len(needle_positions), size=seq_len)
                queries[h] += NEEDLE_GAIN * directions[pick]
    elif kind == "clustered":
        centroids = rng.standard_normal((NUM_CLUSTERS, head_dim)) * 4.0
        assign = rng.integers(NUM_CLUSTERS, size=seq_len)
        for g in range(num_kv_heads):
            keys[g] = centroids[assign] + 0.5 * rng.standard_normal(shape_kv[1:])
        q_assign = rng.integers(NUM_CLUSTERS, size=seq_len)
        for h in range(num_q_heads):
            queries[h] = centroids[q_assign] + 0.5 * rng.standard_normal(shape_kv[1:])

    return AttentionInputs.from_arrays(queries, keys, values)
