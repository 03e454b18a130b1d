"""Exact reference attention on CPU: dense causal prefill, masked prefill,
and single-row decode.

Everything runs in float64 with the numerically stable softmax (row-max
subtraction).  A mask is one boolean cell matrix per query head, so its cell
count is an exact integer and the kernel applies it without any expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AttentionInputs",
    "AttentionOutput",
    "CellMask",
    "default_group_map",
    "dense_prefill",
    "masked_attention",
    "decode_step",
]


def default_group_map(num_q_heads: int, num_kv_heads: int) -> tuple[int, ...]:
    """Contiguous grouped-query assignment: query head h reads kv head h // group."""
    if num_q_heads % num_kv_heads != 0:
        raise ValueError(
            f"num_q_heads ({num_q_heads}) must be a multiple of num_kv_heads ({num_kv_heads})"
        )
    group = num_q_heads // num_kv_heads
    return tuple(h // group for h in range(num_q_heads))


@dataclass(frozen=True)
class AttentionInputs:
    """One layer's worth of projected activations for a single sequence.

    queries: [num_q_heads, seq_len, head_dim]
    keys:    [num_kv_heads, seq_len, head_dim]
    values:  [num_kv_heads, seq_len, head_dim]
    group_map: query head -> kv head, partitioning query heads into equal groups.
    """

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    group_map: tuple[int, ...]

    def __post_init__(self) -> None:
        q, k, v = self.queries, self.keys, self.values
        for name, arr in (("queries", q), ("keys", k), ("values", v)):
            if not isinstance(arr, np.ndarray) or arr.ndim != 3:
                raise ValueError(f"{name} must be a 3-d ndarray [heads, seq, head_dim]")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        if k.shape != v.shape:
            raise ValueError(f"keys {k.shape} and values {v.shape} must match")
        if q.shape[1:] != k.shape[1:]:
            raise ValueError(
                f"queries {q.shape} and keys {k.shape} must share seq_len and head_dim"
            )
        if len(self.group_map) != q.shape[0]:
            raise ValueError("group_map must list one kv head per query head")
        if any(not (0 <= g < k.shape[0]) for g in self.group_map):
            raise ValueError("group_map entries must index kv heads")
        counts = np.bincount(np.asarray(self.group_map), minlength=k.shape[0])
        if len(set(counts.tolist())) != 1:
            raise ValueError("group_map must partition query heads into equal groups")

    @classmethod
    def from_arrays(
        cls,
        queries: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        group_map: Sequence[int] | None = None,
    ) -> "AttentionInputs":
        queries = np.asarray(queries, dtype=np.float64)
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if group_map is None:
            group_map = default_group_map(queries.shape[0], keys.shape[0])
        return cls(queries, keys, values, tuple(int(g) for g in group_map))

    @property
    def num_q_heads(self) -> int:
        return self.queries.shape[0]

    @property
    def num_kv_heads(self) -> int:
        return self.keys.shape[0]

    @property
    def seq_len(self) -> int:
        return self.queries.shape[1]

    @property
    def head_dim(self) -> int:
        return self.queries.shape[2]


@dataclass(frozen=True)
class AttentionOutput:
    """output: [num_q_heads, num_rows, head_dim]; weights (optional):
    [num_q_heads, num_rows, seq_len] with zeros outside the permitted support."""

    output: np.ndarray
    weights: np.ndarray | None = None


class CellMask:
    """Permitted cells of every query head: ``cells[h, i, j]`` lets query
    row i of head h read key j.

    ``cells`` is a boolean [num_heads, seq_len, seq_len] array.  Every row
    must keep at least one key and may never look ahead of its own position.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: np.ndarray):
        if not isinstance(cells, np.ndarray) or cells.dtype != bool:
            raise ValueError("mask must be a boolean ndarray")
        if cells.ndim != 3 or cells.shape[1] != cells.shape[2]:
            raise ValueError(f"mask must be [heads, seq, seq], got shape {cells.shape}")
        if np.triu(cells, k=1).any():
            raise ValueError("mask permits cells above the diagonal (non-causal keys)")
        empty = np.argwhere(~cells.any(axis=2))
        if empty.size:
            raise ValueError(f"head {empty[0, 0]} row {empty[0, 1]} has an empty key set")
        self.cells = cells

    @classmethod
    def full_causal(cls, num_heads: int, seq_len: int) -> "CellMask":
        return cls(np.tril(np.ones((num_heads, seq_len, seq_len), dtype=bool)))

    @property
    def num_heads(self) -> int:
        return self.cells.shape[0]

    @property
    def seq_len(self) -> int:
        return self.cells.shape[1]

    def row(self, head: int, i: int) -> np.ndarray:
        return np.flatnonzero(self.cells[head, i])

    def num_cells(self) -> int:
        return int(np.count_nonzero(self.cells))

    def dense(self, head: int) -> np.ndarray:
        """Boolean [seq_len, seq_len] view of one head's mask."""
        return self.cells[head]

    def is_superset_of(self, other: "CellMask") -> bool:
        if self.cells.shape != other.cells.shape:
            return False
        return not (other.cells & ~self.cells).any()


def _stable_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def _head_logits(inputs: AttentionInputs, head: int) -> np.ndarray:
    g = inputs.group_map[head]
    scale = 1.0 / np.sqrt(inputs.head_dim)
    return (inputs.queries[head] @ inputs.keys[g].T) * scale


def dense_weights_head(inputs: AttentionInputs, head: int) -> np.ndarray:
    """Causal softmax weights [seq_len, seq_len] for one query head."""
    n = inputs.seq_len
    logits = _head_logits(inputs, head)
    logits[np.triu_indices(n, k=1)] = -np.inf
    return _stable_softmax(logits)


def window_weights_head(inputs: AttentionInputs, head: int, window: int) -> np.ndarray:
    """Causal softmax weights of the last ``window`` query rows, [window, n].

    Equivalent to the corresponding rows of dense_weights_head but without
    materializing the full n x n matrix.
    """
    n = inputs.seq_len
    if not 1 <= window <= n:
        raise ValueError(f"window must lie in [1, {n}], got {window}")
    g = inputs.group_map[head]
    scale = 1.0 / np.sqrt(inputs.head_dim)
    logits = (inputs.queries[head][n - window :] @ inputs.keys[g].T) * scale
    rows = np.arange(n - window, n)[:, None]
    logits[np.arange(n)[None, :] > rows] = -np.inf
    return _stable_softmax(logits)


def dense_prefill(inputs: AttentionInputs, with_weights: bool = False) -> AttentionOutput:
    """Exact causal attention over the full lower triangle."""
    h, n, d = inputs.num_q_heads, inputs.seq_len, inputs.head_dim
    out = np.empty((h, n, d))
    weights = np.empty((h, n, n)) if with_weights else None
    for head in range(h):
        w = dense_weights_head(inputs, head)
        out[head] = w @ inputs.values[inputs.group_map[head]]
        if weights is not None:
            weights[head] = w
    return AttentionOutput(out, weights)


def masked_attention(
    inputs: AttentionInputs, mask: CellMask, with_weights: bool = False
) -> AttentionOutput:
    """Attention restricted to the mask's cells; softmax renormalizes per row
    over the permitted keys only."""
    h, n, d = inputs.num_q_heads, inputs.seq_len, inputs.head_dim
    if mask.num_heads != h or mask.seq_len != n:
        raise ValueError(
            f"mask shape ({mask.num_heads} heads, {mask.seq_len}) does not match "
            f"inputs ({h} heads, {n})"
        )
    out = np.empty((h, n, d))
    weights = np.zeros((h, n, n)) if with_weights else None
    for head in range(h):
        logits = _head_logits(inputs, head)
        allowed = mask.dense(head)
        logits[~allowed] = -np.inf
        w = _stable_softmax(logits)
        # -inf rows would softmax to nan; the mask guarantees non-empty rows
        out[head] = w @ inputs.values[inputs.group_map[head]]
        if weights is not None:
            weights[head] = np.where(allowed, w, 0.0)
    return AttentionOutput(out, weights)


def decode_step(
    inputs: AttentionInputs,
    mask_row: np.ndarray | Sequence[np.ndarray],
    with_weights: bool = False,
) -> AttentionOutput:
    """One decode step: the last query row attends to a selected key set.

    mask_row is either a single index array shared by all query heads or one
    array per query head.
    """
    h, n, d = inputs.num_q_heads, inputs.seq_len, inputs.head_dim
    if isinstance(mask_row, np.ndarray) or (
        len(mask_row) and np.isscalar(mask_row[0])
    ):
        per_head: list[np.ndarray] = [np.asarray(mask_row, dtype=np.int64)] * h
    else:
        per_head = [np.asarray(r, dtype=np.int64) for r in mask_row]
        if len(per_head) != h:
            raise ValueError("mask_row must give one index set per query head")
    pos = n - 1
    scale = 1.0 / np.sqrt(d)
    out = np.empty((h, 1, d))
    weights = np.zeros((h, 1, n)) if with_weights else None
    for head in range(h):
        idx = np.unique(per_head[head])
        if idx.size == 0:
            raise ValueError("decode mask row is empty")
        if idx[0] < 0 or idx[-1] > pos:
            raise ValueError(f"decode mask row permits non-causal key {idx}")
        g = inputs.group_map[head]
        logits = (inputs.keys[g][idx] @ inputs.queries[head][pos]) * scale
        w = _stable_softmax(logits)
        out[head, 0] = w @ inputs.values[g][idx]
        if weights is not None:
            weights[head, 0, idx] = w
    return AttentionOutput(out, weights)
