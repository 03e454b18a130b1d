"""Shared fixtures and the independent scalar attention oracle.

The oracle is written as plain Python loops on purpose: it shares no code
path with the vectorized implementation it checks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sparselab.attention import AttentionInputs, column_tiles, row_logsumexp
from sparselab.patterns import (
    BLOCK_SIZE,
    BlockPlan,
    EvictionPlan,
    PagePlan,
    plan_sparsity,
    quest_index,
    quest_select,
)
from sparselab.patterns.accounting import CellMask
from sparselab.patterns.calibration import METHODS, CalibrationSearch


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


def identity_values(inputs: AttentionInputs) -> AttentionInputs:
    """The same queries and keys with value j the j-th unit vector, so a
    kernel's output row is its attention weight row over the keys
    (needs head_dim >= seq_len)."""
    n, d = inputs.seq_len, inputs.head_dim
    assert d >= n, "identity values need head_dim >= seq_len"
    values = np.broadcast_to(np.eye(n, d), inputs.keys.shape)
    return AttentionInputs.from_arrays(inputs.queries, inputs.keys, values, inputs.group_map)


def is_superset_of(big: CellMask, small: CellMask) -> bool:
    """Every cell of ``small`` is a cell of ``big`` (same shape)."""
    return big.cells.shape == small.cells.shape and not (small.cells & ~big.cells).any()


def plan_cells_oracle(plan, group_map: tuple[int, ...]) -> np.ndarray:
    """Boolean [query heads, n, n] cells of a prefill-style plan, from its
    fields by broadcasting: a block plan's chosen key blocks, an eviction
    plan's kept tokens of each query head's kv head, a vertical-slash
    plan's columns and offsets, each cut to the causal triangle."""
    n = plan.seq_len
    rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
    if isinstance(plan, BlockPlan):
        heads = [sel[rows // BLOCK_SIZE, cols // BLOCK_SIZE] for sel in plan.selections]
    elif isinstance(plan, EvictionPlan):
        heads = [np.isin(cols, plan.kept[g]) for g in group_map]
    else:
        heads = [
            np.isin(cols, v) | np.isin(rows - cols, s)
            for v, s in zip(plan.verticals, plan.slashes)
        ]
    return np.stack([(cols <= rows) & cells for cells in heads])


def tile_recalls(plans, inputs: AttentionInputs) -> list[float]:
    """Each prefill-style plan's mean recall as the kernel pass reads it:
    a row keeps exp(masked_lse - causal_lse), with the masked log-sum-exp
    taken over the plan's own tiles and the causal one over the tiles of
    the every-column plan, so no per-unit mass is read."""
    heads, group_map = inputs.num_q_heads, inputs.group_map
    every = np.arange(inputs.seq_len)
    causal = np.stack([row_logsumexp(inputs, column_tiles(inputs, h, every)) for h in range(heads)])
    recalls = []
    for plan in plans:
        masked = np.stack(
            [row_logsumexp(inputs, plan.tiles(inputs, group_map, h)) for h in range(heads)]
        )
        recalls.append(float(np.exp(masked - causal).mean()))
    return recalls


def gathered_decode(inputs: AttentionInputs, rows) -> np.ndarray:
    """[num_q_heads, 1, head_dim] decode output as a gather per query head:
    head h's keys and values at its own ids, ``keys[g][ids]``, however the
    heads share their id arrays (one shared array, or one per head)."""
    h, n, d = inputs.num_q_heads, inputs.seq_len, inputs.head_dim
    per_head = [rows] * h if isinstance(rows, np.ndarray) else rows
    out = np.empty((h, 1, d))
    for head, ids in enumerate(per_head):
        g = inputs.group_map[head]
        ids = np.asarray(ids, dtype=np.int64)
        logits = (inputs.keys[g][ids] @ inputs.queries[head][n - 1]) * (1.0 / np.sqrt(d))
        logits -= logits.max()
        np.exp(logits, out=logits)
        logits /= logits.sum()
        out[head, 0] = logits @ inputs.values[g][ids]
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


def quest_at(inputs: AttentionInputs, token_budget: int, position: int) -> PagePlan:
    """The page selection of ``quest_plan`` for the query at ``position``
    rather than the last row."""
    return quest_select(
        quest_index(inputs.keys),
        inputs.queries[:, position],
        token_budget,
        position=position,
        group_map=inputs.group_map,
    )


def built_sparsity(method: str, inputs: AttentionInputs, value) -> float:
    """Achieved sparsity of the plan a row builds from one table value."""
    spec = METHODS[method]
    return plan_sparsity(spec.build(inputs, spec.calibrated(value))).achieved_sparsity


def smallest_by_scan(
    method: str, inputs: AttentionInputs, targets: tuple[float, ...]
) -> list[CalibrationSearch]:
    """Per target, the first table value from the row's smallest up whose
    built plan is at most that sparse, found by building every value in
    turn; a target the smallest value's plan already misses is flagged
    unreachable at that value."""
    n = inputs.seq_len
    lo = METHODS[method].smallest(n)
    pending = sorted(set(targets), reverse=True)
    found = {}
    for value in range(lo, max(lo, n) + 1):
        sparsity = built_sparsity(method, inputs, value)
        if value == lo:
            found.update((t, CalibrationSearch(lo, False)) for t in pending if sparsity < t)
            pending = [t for t in pending if t not in found]
        while pending and sparsity <= pending[0]:
            found[pending.pop(0)] = CalibrationSearch(value, True)
        if not pending:
            break
    return [found[t] for t in targets]
