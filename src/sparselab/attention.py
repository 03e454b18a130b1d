"""Exact reference attention on CPU: dense causal prefill, masked prefill,
and single-row decode.

Everything runs in float64 with the numerically stable softmax (row-max
subtraction).  A mask is one boolean cell matrix per query head, so its cell
count is an exact integer.

Prefill walks the sequence in tiles of ``TILE_ROWS`` query rows.  Each tile
gathers the key columns that any of its rows may read (the causal prefix for
dense prefill, the union of the tile's mask rows otherwise), computes logits
over those columns only, sets the mask's holes to -inf and runs the softmax
and the value product on the gathered columns.  Kernel time therefore grows
with the columns the tiles read, not with n².  The same loop gives each
row's log-sum-exp, which ``AttentionInputs.causal_lse`` caches for the
dense causal logits, so the dense probability mass on any cell set is
``exp(masked_lse - causal_lse)`` without holding n x n weights.

The window-scored pattern builders read ``AttentionInputs.window_stats``:
per head, the column sums and maxima, the diagonal sums and the total of the
observation window's softmax, computed once per input and cached the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "APPROX_WINDOW",
    "TILE_ROWS",
    "AttentionInputs",
    "AttentionOutput",
    "WindowStats",
    "CellMask",
    "check_causal_bitmap",
    "default_group_map",
    "dense_prefill",
    "masked_attention",
    "row_logsumexp",
    "decode_step",
]

# Query rows per prefill tile.  The block-sparse BLOCK_SIZE and the Quest
# PAGE_SIZE are this size, so a block plan's tile reads exactly its chosen
# key blocks.
TILE_ROWS = 16

# Query rows of the observation window that every window-scored builder
# (vertical-slash, flexprefill, snapkv, ada_snapkv) reads; a shorter
# sequence is read whole.
APPROX_WINDOW = 256


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

    The three arrays are stored as read-only views (the caller's arrays stay
    writeable), so the two cached properties cannot go stale: ``causal_lse``
    for the recall oracle and ``window_stats`` for the window-scored
    builders, each computed on first use.
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
        for name, arr in (("queries", q), ("keys", k), ("values", v)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

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

    @cached_property
    def causal_lse(self) -> np.ndarray:
        """[num_q_heads, seq_len] log-sum-exp of each row's causal logits."""
        return np.stack([row_logsumexp(self, head) for head in range(self.num_q_heads)])

    @cached_property
    def window_stats(self) -> WindowStats:
        """Observation-window reductions of every query head (``WindowStats``)."""
        return _window_stats(self)


@dataclass(frozen=True)
class WindowStats:
    """O(n) reductions of ``window_weights_head`` for every query head, as
    read-only arrays.

    column_sum: [num_q_heads, seq_len] window mass of each key column.
    column_max: [num_q_heads, seq_len] largest window weight of each key column.
    slash_mass: [num_q_heads, seq_len] window mass of each diagonal offset o,
        the cells (i, i - o).
    total:      [num_q_heads] the window's total mass.
    """

    column_sum: np.ndarray
    column_max: np.ndarray
    slash_mass: np.ndarray
    total: np.ndarray


@dataclass(frozen=True)
class AttentionOutput:
    """output: [num_q_heads, num_rows, head_dim]; weights (optional):
    [num_q_heads, num_rows, seq_len] with zeros outside the permitted support."""

    output: np.ndarray
    weights: np.ndarray | None = None


def check_causal_bitmap(cells: np.ndarray, name: str, row: str, key: str) -> None:
    """Raise ValueError unless ``cells`` is a boolean [heads, m, m] array
    with nothing above the diagonal and a member in every row; messages name
    the array and its ``row`` and ``key`` units."""
    if not isinstance(cells, np.ndarray) or cells.dtype != bool:
        raise ValueError(f"{name} must be a boolean ndarray")
    if cells.ndim != 3 or cells.shape[1] != cells.shape[2]:
        raise ValueError(f"{name} must be a square [heads, m, m] array, got shape {cells.shape}")
    ahead = cells & ~np.tri(cells.shape[1], dtype=bool)
    if ahead.any():
        h, i, j = np.argwhere(ahead)[0]
        raise ValueError(f"head {h} {row} {i} selects non-causal {key} {j}")
    empty = np.argwhere(~cells.any(axis=2))
    if empty.size:
        raise ValueError(f"head {empty[0, 0]} {row} {empty[0, 1]} selects no {key}")


class CellMask:
    """Permitted cells of every query head: ``cells[h, i, j]`` lets query
    row i of head h read key j.

    ``cells`` is a boolean [num_heads, seq_len, seq_len] array.  Every row
    must keep at least one key and may never look ahead of its own position.
    """

    __slots__ = ("cells",)

    def __init__(self, cells: np.ndarray):
        check_causal_bitmap(cells, "mask", "row", "key")
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


def window_weights_head(inputs: AttentionInputs, head: int) -> np.ndarray:
    """Causal softmax weights of the last ``min(APPROX_WINDOW, n)`` query
    rows, [window, n].

    The corresponding rows of the dense causal softmax, without
    materializing the full n x n matrix.
    """
    n = inputs.seq_len
    window = min(APPROX_WINDOW, n)
    g = inputs.group_map[head]
    scale = 1.0 / np.sqrt(inputs.head_dim)
    logits = (inputs.queries[head][n - window :] @ inputs.keys[g].T) * scale
    rows = np.arange(n - window, n)[:, None]
    logits[np.arange(n)[None, :] > rows] = -np.inf
    return _stable_softmax(logits)


def _window_stats(inputs: AttentionInputs) -> WindowStats:
    """Score each head's window once and keep only its reductions; the
    [window, n] weights of one head are freed before the next is scored."""
    n, heads = inputs.seq_len, inputs.num_q_heads
    column_sum = np.empty((heads, n))
    column_max = np.empty((heads, n))
    slash_mass = np.zeros((heads, n))
    total = np.empty(heads)
    for head in range(heads):
        weights = window_weights_head(inputs, head)
        start = n - weights.shape[0]
        column_sum[head] = weights.sum(axis=0)
        column_max[head] = weights.max(axis=0)
        for r in range(weights.shape[0]):
            i = start + r
            # cell (i, j) sits on offset i - j; reversing the row aligns offsets 0..i
            slash_mass[head, : i + 1] += weights[r, : i + 1][::-1]
        total[head] = weights.sum()
    for arr in (column_sum, column_max, slash_mass, total):
        arr.flags.writeable = False
    return WindowStats(column_sum, column_max, slash_mass, total)


def _tiles(inputs: AttentionInputs, head: int, cells: np.ndarray | None = None):
    """Yield ``(rows, cols, peak, ex)`` for each TILE_ROWS-row query tile of
    one head.  ``cols`` are the key columns that any row of the tile may read;
    ``ex`` is exp(logits - peak) over those columns, zero outside the mask,
    and ``peak`` [rows, 1] is each row's largest permitted logit.

    ``cells`` is the head's boolean [n, n] mask; None means full causal, whose
    columns are the tile's causal prefix.  An empty row has peak 0 and an
    all-zero ``ex`` row.
    """
    n = inputs.seq_len
    keys = inputs.keys[inputs.group_map[head]]
    queries = inputs.queries[head] * (1.0 / np.sqrt(inputs.head_dim))
    ahead = np.triu(np.ones((TILE_ROWS, TILE_ROWS), dtype=bool), k=1)
    for start in range(0, n, TILE_ROWS):
        rows = slice(start, min(start + TILE_ROWS, n))
        if cells is None:
            cols = slice(0, rows.stop)
            logits = queries[rows] @ keys[cols].T
            # in a causal tile only the diagonal block holds cells ahead of their row
            size = rows.stop - start
            logits[:, start:][ahead[:size, :size]] = -np.inf
        else:
            cols = np.flatnonzero(cells[rows].any(axis=0))
            logits = np.where(cells[rows, cols], queries[rows] @ keys[cols].T, -np.inf)
        peak = logits.max(axis=1, keepdims=True, initial=-np.inf)
        peak[np.isneginf(peak)] = 0.0
        logits -= peak
        yield rows, cols, peak, np.exp(logits, out=logits)


def _prefill(
    inputs: AttentionInputs, mask: CellMask | None, with_weights: bool
) -> AttentionOutput:
    h, n, d = inputs.num_q_heads, inputs.seq_len, inputs.head_dim
    out = np.empty((h, n, d))
    weights = np.zeros((h, n, n)) if with_weights else None
    for head in range(h):
        values = inputs.values[inputs.group_map[head]]
        cells = None if mask is None else mask.dense(head)
        for rows, cols, _, w in _tiles(inputs, head, cells):
            # CellMask rows are never empty, so no row sum is zero
            w /= w.sum(axis=1, keepdims=True)
            out[head, rows] = w @ values[cols]
            if weights is not None:
                weights[head][rows, cols] = w
    return AttentionOutput(out, weights)


def dense_prefill(inputs: AttentionInputs, with_weights: bool = False) -> AttentionOutput:
    """Exact causal attention over the full lower triangle."""
    return _prefill(inputs, None, with_weights)


def masked_attention(
    inputs: AttentionInputs, mask: CellMask, with_weights: bool = False
) -> AttentionOutput:
    """Attention restricted to the mask's cells; softmax renormalizes per row
    over the permitted keys only."""
    h, n = inputs.num_q_heads, inputs.seq_len
    if mask.num_heads != h or mask.seq_len != n:
        raise ValueError(
            f"mask shape ({mask.num_heads} heads, {mask.seq_len}) does not match "
            f"inputs ({h} heads, {n})"
        )
    return _prefill(inputs, mask, with_weights)


def row_logsumexp(
    inputs: AttentionInputs, head: int, cells: np.ndarray | None = None
) -> np.ndarray:
    """[seq_len] log-sum-exp of one head's logits over each row's cells
    (boolean [n, n]; None means full causal).  An empty row gives -inf."""
    lse = np.empty(inputs.seq_len)
    with np.errstate(divide="ignore"):
        for rows, _, peak, ex in _tiles(inputs, head, cells):
            lse[rows] = peak[:, 0] + np.log(ex.sum(axis=1))
    return lse


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
