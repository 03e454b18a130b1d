"""Exact reference attention on CPU: dense causal prefill, masked prefill,
and single-row decode.

Everything runs in float64 with a numerically stable softmax: each row's
logits are shifted down before exp.

Prefill runs one pass over tiles of query rows.  A tile is one or more
blocks of scaled logits that together hold each of its rows' permitted
cells once, with a keep mask over the columns where a block has holes.
Each row's shift is taken into the product itself: the scaled queries
carry a last column -b_i and the keys a column of ones, where
b_i = |q_i| max_j |k_j| bounds every logit of row i (Cauchy-Schwarz), so a
tile reads logit - b_i in [-2 b_i, 0], hole or not, and runs exp on it as
it is, with no row-max, subtraction or floor pass.  A head whose largest
bound is above ``_SHIFT_LIMIT`` takes the exact path instead: its holes
are set to -inf, one row peak over all of a tile's blocks is subtracted
from each, and the result is raised to a finite floor, so no -inf reaches
exp.  Either way the holes are zeroed after exp, and the blocks' softmax
sums and value products merge by the shared shift, the log-sum-exp merge
of FlashAttention.  Two producers read tiles from a plan's geometry:

- ``column_tiles``: whole key columns plus diagonals, as MInference splits a
  vertical-slash pattern.  The columns' keys and values are gathered once
  and read through prefixes in ``SPAN_ROWS``-row tiles, so causal holes lie
  only among a tile's own columns.  A diagonal offset o keeps cells
  (i, i - o): a tile's offsets split into bands wherever two lie more than
  ``SPAN_ROWS`` apart, and each band takes one product over the key range
  its diagonals cross, reads the diagonals out of it and sends their
  weights back through one product with the same values.  A cell on both a
  column and a diagonal belongs to the column.  A tile whose column and
  band products would cover its whole key prefix takes one product over
  that prefix and keeps its columns' and diagonals' cells.
- ``block_tiles``: chosen ``TILE_ROWS``-token key blocks per query block;
  only a query block's own diagonal block has holes.

``masked_attention`` runs the tiles a mask's plan yields and reads no
boolean cell matrix.  Dense prefill is the column plan that keeps every key
column, so a measured sparse speedup compares one producer at two densities.
Each block records the cells of the product it was read from
(``_Part.product``), the cells its tile computes, holes included.

Kernel time therefore grows with the cells a plan keeps, not with n².

``causal_softmax`` is the one dense read of every estimate and recall:
``accounting.dense_mass_from`` sums ``APPROX_WINDOW``-row tiles of it,
counted back from the last row, over every unit a plan keeps (key column,
diagonal offset by ``offset_sums``, block pair), so the observation window
is its last tile and recall runs no plan tile; a page plan reads one row.

``decode_step`` reads a row's keys and values once per kv head and id
array, as a slice when the ids form one run, and each query head of the
group takes its own products from that read.

``AttentionInputs.cached`` keeps one result per estimation stage for the
inputs' lifetime; each stage lives beside the method that reads it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import as_strided

if TYPE_CHECKING:
    from .patterns.accounting import CellMask

__all__ = [
    "APPROX_WINDOW",
    "TILE_ROWS",
    "AttentionInputs",
    "AttentionOutput",
    "block_tiles",
    "causal_softmax",
    "column_tiles",
    "default_group_map",
    "dense_prefill",
    "masked_attention",
    "offset_sums",
    "row_logsumexp",
    "decode_step",
]

# Tokens per key block and query rows per block tile.  The
# block-sparse BLOCK_SIZE and the Quest PAGE_SIZE are this size, so a block
# plan's tile reads exactly its chosen key blocks.
TILE_ROWS = 16

# Query rows per tile of the column and diagonal producer.  A tile's causal
# holes lie among its own columns only, so tall tiles waste little and cut
# numpy's per-call cost; a head's two [SPAN_ROWS, 2n + 1] diagonal buffers
# take 4 MiB each at n = 2048.
SPAN_ROWS = 128

# Query rows of the observation window that every window-scored builder
# (vertical-slash, flexprefill, snapkv, ada_snapkv) reads, and of each tile
# of accounting.dense_mass_from; a shorter sequence is read whole.
APPROX_WINDOW = 256


T = TypeVar("T")


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
    writeable), so no result kept by ``cached`` can go stale.
    """

    queries: np.ndarray
    keys: np.ndarray
    values: np.ndarray
    group_map: tuple[int, ...]
    _stages: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q, k, v = self.queries, self.keys, self.values
        for name, arr in (("queries", q), ("keys", k), ("values", v)):
            if not isinstance(arr, np.ndarray) or arr.ndim != 3:
                raise ValueError(f"{name} must be a 3-d ndarray [heads, seq, head_dim]")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
        if q.shape[1] < 1:
            raise ValueError(f"seq_len must be at least 1, got {q.shape[1]}")
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

    def cached(self, stage: Callable[[AttentionInputs], T]) -> T:
        """``stage(self)``, computed on the first call with that function and
        kept for the inputs' lifetime.  A stage is defined once at module
        level, so every call names the same key.  An array it returns, or
        each array in a tuple it returns, is made read-only."""
        if stage not in self._stages:
            result = self._stages[stage] = stage(self)
            for part in result if isinstance(result, tuple) else (result,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
        return self._stages[stage]


@dataclass(frozen=True)
class AttentionOutput:
    """output: [num_q_heads, num_rows, head_dim]."""

    output: np.ndarray


def _stable_softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``logits``."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def causal_softmax(
    inputs: AttentionInputs, head: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense causal softmax weights [stop - start, stop] and log-sum-exp
    [stop - start] of one head's query rows ``start..stop-1`` over keys
    ``0..stop-1``.  Logits are scaled after the product; only the range's
    own last columns can lie past a diagonal, so only they are masked."""
    g = inputs.group_map[head]
    weights = inputs.queries[head][start:stop] @ inputs.keys[g][:stop].T
    weights *= 1.0 / np.sqrt(inputs.head_dim)
    rows = np.arange(start, stop)
    np.copyto(weights[:, start:], -np.inf, where=rows > rows[:, None])
    peak = weights.max(axis=1, keepdims=True)
    weights -= peak
    np.exp(weights, out=weights)
    total = weights.sum(axis=1, keepdims=True)
    weights /= total
    return weights, peak[:, 0] + np.log(total[:, 0])


def offset_sums(weights: np.ndarray, out: np.ndarray) -> None:
    """Add to ``out[o]`` the weights on each diagonal offset o of a tile's
    [rows, stop] causal weights, whose last row is query row stop - 1."""
    size, stop = weights.shape
    for r, i in enumerate(range(stop - size, stop)):
        # cell (i, j) sits on offset i - j; reversing the row aligns offsets 0..i
        out[: i + 1] += weights[r, : i + 1][::-1]


def window_weights_head(inputs: AttentionInputs, head: int) -> np.ndarray:
    """Causal softmax weights of the last ``min(APPROX_WINDOW, n)`` query
    rows, [window, n]: one ``causal_softmax`` read.  No package module calls
    it; perfbench's tracer wraps it."""
    n = inputs.seq_len
    return causal_softmax(inputs, head, n - min(APPROX_WINDOW, n), n)[0]


class _Part(NamedTuple):
    """One block of a tile's scaled logits, [rows, width].

    The columns before ``first`` are permitted in every row; ``keep``,
    [rows, width - first], marks the permitted cells among the rest, so
    the block's holes carry finite logits.  ``weigh`` maps the block's
    softmax numerators to their sum over the block's values,
    [rows, head_dim].  ``product`` counts the cells of the product the
    block was read from, holes included.
    """

    logits: np.ndarray
    first: int
    keep: np.ndarray
    weigh: Callable[[np.ndarray], np.ndarray]
    product: int


class Tile(NamedTuple):
    """A slice of query rows, the blocks of logits they read, and the shift
    already taken out of those logits: the rows' bounds, or None on the
    exact path, where ``row_logsumexp`` shifts each row by its peak."""

    rows: slice
    parts: list[_Part]
    shift: np.ndarray | None


# On the exact path, shifted logits are raised to this floor before exp,
# where exp is still a normal float (~1e-304) and fast: np.exp is several
# times slower on -inf or on values past the normal range.
_EXP_FLOOR = -700.0

# A head's rows are shifted by their bounds only while its largest bound is
# at most this.  Every logit of row i, hole or not, then lies in
# [-2 b_i, 0] after the shift, above _EXP_FLOOR, so exp of every cell is a
# normal float with no floor.  The lab's generators give bounds of about
# 10-180; a head above the limit takes the exact path.
_SHIFT_LIMIT = 300.0


def _times(values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    return lambda weights: weights @ values


def _head_arrays(inputs: AttentionInputs, head: int):
    """Scaled queries, keys and values of one query head, and its rows'
    shift.  The shift is each row's bound b_i = |q_i| max_j |k_j| on its
    scaled logits, carried into every product as a query column -b and a
    key column of ones.  Above ``_SHIFT_LIMIT`` the shift is None and the
    arrays are the plain ones (the exact path)."""
    g = inputs.group_map[head]
    queries = inputs.queries[head] * (1.0 / np.sqrt(inputs.head_dim))
    keys, values = inputs.keys[g], inputs.values[g]
    key_norm = np.sqrt(np.einsum("ij,ij->i", keys, keys).max())
    bound = np.sqrt(np.einsum("ij,ij->i", queries, queries)) * key_norm
    if bound.max() > _SHIFT_LIMIT:
        return queries, keys, values, None
    queries = np.concatenate([queries, -bound[:, None]], axis=1)
    keys = np.concatenate([keys, np.ones((keys.shape[0], 1))], axis=1)
    return queries, keys, values, bound


def _diagonal_buffers(n: int) -> np.ndarray:
    """The logits and weights buffers of ``_Diagonals``, [2, SPAN_ROWS,
    2n + 1].  A kernel call makes one pair for all its heads: each part
    leaves the weights zero outside the cells it is weighing."""
    return np.zeros((2, SPAN_ROWS, 2 * n + 1))


def column_tiles(
    inputs: AttentionInputs,
    head: int,
    columns: np.ndarray,
    offsets: np.ndarray | None = None,
    buffers: np.ndarray | None = None,
) -> Iterator[Tile]:
    """Tiles of the causal cells (i, j) of one head whose key column j is in
    ``columns`` or whose diagonal offset i - j is in ``offsets`` (sorted and
    unique; a cell in both belongs to its column).

    The column part gathers the columns' keys and values once and reads
    each SPAN_ROWS-row tile through a prefix of them, so a tile's causal
    holes lie only among its own columns.  The diagonal parts split the
    tile's offsets into bands wherever two lie more than SPAN_ROWS apart.
    Each band takes one product over the key range its diagonals cross,
    reads its cells along the diagonals of that product, and sends their
    weights back through one product with the same range of values
    (``_Diagonals``), in the given ``_diagonal_buffers`` or its own.  When
    those products and the column part would cover at least the tile's
    whole key prefix, the tile is one product over that prefix instead,
    its columns and diagonals read out of it.  A tile whose rows read no
    cell is not yielded.
    """
    n = inputs.seq_len
    queries, keys, values, shift = _head_arrays(inputs, head)
    col_keys, col_values = keys[columns], values[columns]
    diagonals = None
    if offsets is not None and offsets.size:
        if buffers is None:
            buffers = _diagonal_buffers(n)
        diagonals = _Diagonals(buffers, columns, offsets)
    for start in range(0, n, SPAN_ROWS):
        stop = min(start + SPAN_ROWS, n)
        m = int(np.searchsorted(columns, stop))
        t = 0 if diagonals is None else int(np.searchsorted(offsets, stop))
        bands = diagonals.bands(t, start, stop) if t else []
        if bands and m + sum(hi - lo for *_, lo, hi in bands) >= stop:
            parts = [diagonals.prefix(queries, keys, values, start, stop)]
        else:
            parts = []
            if m:
                # the columns below the tile are permitted in every row
                cut = int(np.searchsorted(columns, start))
                logits = queries[start:stop] @ col_keys[:m].T
                keep = columns[cut:m] <= np.arange(start, stop)[:, None]
                parts.append(_Part(logits, cut, keep, _times(col_values[:m]), logits.size))
            parts += [diagonals.band(queries, keys, values, start, stop, *b) for b in bands]
        if parts:
            yield Tile(slice(start, stop), parts, None if shift is None else shift[start:stop])


class _Diagonals:
    """One head's diagonal parts, in ``_diagonal_buffers``.

    Row r of a band of a tile starting at query row s holds the logits of
    key columns lo.. at positions n.., after n columns of padding, in rows
    of width 2n + 1.  Cell (s + r, s + r - o) then sits at flat position
    ``cell_at[r, o's index] + s - lo + 1``, so one take reads every
    diagonal of the band; a cell whose key column is negative lands in the
    padding.  ``free[n + j]`` is true where column j is no plan column (a
    cell on one belongs to the column part) and not negative, and is read
    the same way through ``free_at``.  The weight buffer has the logits'
    layout and is zero outside the cells written into it.  A band starts at
    index 0 and at each index of ``breaks``, an offset more than SPAN_ROWS
    past the one before it.  ``on_offset[n + o]`` is true at each offset o.
    """

    def __init__(self, buffers: np.ndarray, columns: np.ndarray, offsets: np.ndarray):
        n = self.n = buffers.shape[2] // 2
        self.logits, self.weights = buffers
        self.on_column = np.zeros(n, dtype=bool)
        self.on_column[columns] = True
        self.free = np.zeros(2 * n, dtype=bool)
        self.free[n:] = ~self.on_column
        self.on_offset = np.zeros(2 * n, dtype=bool)
        self.on_offset[n + offsets] = True
        self.offsets = offsets
        self.breaks = np.flatnonzero(np.diff(offsets) > SPAN_ROWS) + 1
        rows = np.arange(SPAN_ROWS)[:, None]
        back = (n - 1) - offsets
        self.cell_at = rows * (2 * n + 2) + back
        self.free_at = rows + back

    def bands(self, count: int, start: int, stop: int) -> list[tuple[int, int, int, int]]:
        """The bands of the tile's first ``count`` offsets: each band's
        first and last offset index and the key range lo..hi - 1 its
        diagonals cross."""
        edges = self.breaks[: np.searchsorted(self.breaks, count)].tolist()
        bands = []
        for first, last in zip([0, *edges], [*edges, count]):
            lo = max(0, start - int(self.offsets[last - 1]))
            bands.append((first, last, lo, stop - int(self.offsets[first])))
        return bands

    def band(self, queries, keys, values, start, stop, first, last, lo, hi) -> _Part:
        """The tile's cells on offsets first..last - 1."""
        size, n = stop - start, self.n
        np.matmul(queries[start:stop], keys[lo:hi].T, out=self.logits[:size, n : n + hi - lo])
        base = start - lo + 1
        cells = self.cell_at[:size, first:last]
        logits = self.logits.reshape(-1)[base:].take(cells)
        keep = self.free[start + 1 :].take(self.free_at[:size, first:last])
        weigh = partial(self._weigh, base, cells, values[lo:hi])
        return _Part(logits, 0, keep, weigh, size * (hi - lo))

    def prefix(self, queries, keys, values, start, stop) -> _Part:
        """Every cell of the tile, read out of one product over keys
        0..stop - 1: a cell is kept on a plan column or offset, causally."""
        size, n = stop - start, self.n
        logits = queries[start:stop] @ keys[:stop].T
        # row r, column j reads on_offset[n + start + r - j]
        lines = as_strided(self.on_offset[n + start :], (size, stop), (1, -1), writeable=False)
        keep = lines | self.on_column[:stop]
        keep[:, start:] &= np.tri(size, dtype=bool)
        return _Part(logits, 0, keep, _times(values[:stop]), logits.size)

    def _weigh(self, base: int, cells: np.ndarray, values: np.ndarray, weights: np.ndarray):
        # holes carry zero weight, so only the span's cells become nonzero
        self.weights.reshape(-1)[base:][cells] = weights
        span = self.weights[: weights.shape[0], self.n : self.n + values.shape[0]]
        out = span @ values
        span[...] = 0.0
        return out


def block_tiles(inputs: AttentionInputs, head: int, selections: np.ndarray) -> Iterator[Tile]:
    """Tiles of one head's [nb, nb] key-block selections over TILE_ROWS-token
    blocks: each query block reads its chosen key blocks, and only its own
    diagonal block, chosen last when chosen, has causal holes.  Only the
    last block can be short, and only as a diagonal.

    A tile stacks up to SPAN_ROWS // TILE_ROWS consecutive query blocks that
    choose as many key blocks, all with their diagonal or all without it:
    one batched product per tile, each block reading its own key blocks.
    """
    n = inputs.seq_len
    queries, keys, values, shift = _head_arrays(inputs, head)
    nb = selections.shape[0]
    key_blocks, value_blocks = (
        np.concatenate([a, np.zeros((nb * TILE_ROWS - n, a.shape[1]))]).reshape(nb, TILE_ROWS, -1)
        for a in (keys, values)
    )
    counts = np.count_nonzero(selections, axis=1)
    diagonal = np.diagonal(selections)
    # a run breaks where the shape changes, every SPAN_ROWS rows, and
    # before a short last block
    shape = np.stack([counts, diagonal, np.arange(nb) // (SPAN_ROWS // TILE_ROWS)])
    breaks = np.flatnonzero((shape[:, 1:] != shape[:, :-1]).any(axis=0)) + 1
    if n % TILE_ROWS and nb > 1:
        breaks = np.union1d(breaks, [nb - 1])
    for first, last in zip([0, *breaks.tolist()], [*breaks.tolist(), nb]):
        batch, k = last - first, int(counts[first])
        rows = slice(first * TILE_ROWS, min(last * TILE_ROWS, n))
        size = (rows.stop - rows.start) // batch
        holes = size if diagonal[first] else 0
        width = k * TILE_ROWS - (TILE_ROWS - size if diagonal[first] else 0)
        chosen = np.nonzero(selections[first:last])[1].reshape(batch, k)
        block_keys = key_blocks[chosen].reshape(batch, k * TILE_ROWS, -1)[:, :width]
        logits = queries[rows].reshape(batch, size, -1) @ block_keys.transpose(0, 2, 1)
        keep = np.tile(np.tri(size, holes, dtype=bool), (batch, 1))
        block_values = value_blocks[chosen].reshape(batch, k * TILE_ROWS, -1)[:, :width]
        weigh = partial(_batched_values, block_values)
        part = _Part(logits.reshape(-1, width), width - holes, keep, weigh, logits.size)
        yield Tile(rows, [part], None if shift is None else shift[rows])


def _batched_values(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """[batch * rows, d] products of each batch item's weight rows with its
    [width, d] values."""
    batch, width, d = values.shape
    return (weights.reshape(batch, -1, width) @ values).reshape(-1, d)


def row_logsumexp(
    inputs: AttentionInputs, tiles: Iterable[Tile], out: np.ndarray | None = None
) -> np.ndarray:
    """[seq_len] log-sum-exp of each row over one head's ``tiles``, with
    ``out`` ([seq_len, head_dim]) also filled with the attention output: the
    one kernel pass of ``dense_prefill`` and ``masked_attention``.  Recall
    does not run it; it reads cached unit masses (``accounting.dense_mass``).

    A tile's logits arrive shifted by its rows' bounds, so exp runs on them
    as they are.  On the exact path (no shift) the holes are set to -inf,
    the parts share one row peak, the largest permitted logit, and the
    shifted logits are raised to a finite floor, so no -inf reaches exp.
    The holes are zeroed after exp.  An empty row's log-sum-exp is -inf, as
    is that of a row no tile covers.
    """
    shifts, totals = np.zeros(inputs.seq_len), np.zeros(inputs.seq_len)
    for rows, parts, shift in tiles:
        if shift is None:
            for logits, first, keep, *_ in parts:
                np.copyto(logits[:, first:], -np.inf, where=~keep)
            shift = parts[0].logits.max(axis=1)
            for part in parts[1:]:
                np.maximum(shift, part.logits.max(axis=1), out=shift)
            shift[shift == -np.inf] = 0.0
            for logits, *_ in parts:
                logits -= shift[:, None]
                np.maximum(logits, _EXP_FLOOR, out=logits)
        sums = []
        for logits, first, keep, *_ in parts:
            np.exp(logits, out=logits)
            logits[:, first:] *= keep
            sums.append(logits.sum(axis=1))
        total = sum(sums[1:], sums[0])
        shifts[rows], totals[rows] = shift, total
        if out is not None:
            acc = parts[0].weigh(parts[0].logits)
            for part in parts[1:]:
                acc += part.weigh(part.logits)
            # prefill tiles give every row a cell, so no total is zero
            out[rows] = acc / total[:, None]
    with np.errstate(divide="ignore"):
        return shifts + np.log(totals)


def _prefill(
    inputs: AttentionInputs, tiles_of: Callable[[int, np.ndarray], Iterable[Tile]]
) -> AttentionOutput:
    h, n, d = inputs.num_q_heads, inputs.seq_len, inputs.head_dim
    out = np.empty((h, n, d))
    # the heads share one pair of diagonal buffers, freed on return
    buffers = _diagonal_buffers(n)
    for head in range(h):
        row_logsumexp(inputs, tiles_of(head, buffers), out[head])
    return AttentionOutput(out)


def dense_prefill(inputs: AttentionInputs) -> AttentionOutput:
    """Exact causal attention: the column plan that keeps every key column."""
    every = np.arange(inputs.seq_len)
    return _prefill(inputs, lambda head, _: column_tiles(inputs, head, every))


def masked_attention(inputs: AttentionInputs, mask: CellMask) -> AttentionOutput:
    """Attention restricted to a mask's cells; softmax renormalizes per row
    over the permitted keys only.  The kernel reads the mask's
    ``group_map``, ``seq_len`` and ``tiles(inputs, head, buffers)``, the
    tiles of one head's cells, and refuses a mask made for another group
    map or length."""
    if mask.group_map != inputs.group_map or mask.seq_len != inputs.seq_len:
        raise ValueError(
            f"mask (group map {mask.group_map}, length {mask.seq_len}) does not match "
            f"inputs (group map {inputs.group_map}, length {inputs.seq_len})"
        )
    return _prefill(inputs, partial(mask.tiles, inputs))


def _ids(arrays: Sequence[np.ndarray], name: str, stop: int) -> tuple[np.ndarray, ...]:
    """Each array of ids as int64; raise ValueError unless it is 1-d,
    strictly increasing (sorted, no id twice), non-empty and in [0, stop).
    Plans and decode rows take ids in this form and do not sort them."""
    out = tuple(np.asarray(a, dtype=np.int64) for a in arrays)
    for a in out:
        if a.ndim != 1 or (a[1:] <= a[:-1]).any():
            raise ValueError(f"{name} must be 1-d arrays of strictly increasing ids")
        if a.size == 0 or a[0] < 0 or a[-1] >= stop:
            raise ValueError(f"{name} must be non-empty and lie in [0, {stop})")
    return out


def decode_step(
    inputs: AttentionInputs, mask_row: np.ndarray | Sequence[np.ndarray]
) -> AttentionOutput:
    """One decode step: the last query row attends to a selected key set.

    mask_row is either a single index array shared by all query heads or one
    array per query head, each sorted and unique in [0, seq_len) (``_ids``).

    Each distinct array is checked once, and its keys and values are read
    once per kv head: the query heads of a group that share one array (an
    eviction plan's kept tokens, a page plan's rows, a shared row) share
    that read.  Ids that form one run, last - first + 1 == size, are read
    as a slice, not gathered.  Each query head takes its own products.
    """
    h, n, d = inputs.num_q_heads, inputs.seq_len, inputs.head_dim
    if isinstance(mask_row, np.ndarray) or (
        len(mask_row) and np.isscalar(mask_row[0])
    ):
        per_head = [mask_row] * h
    else:
        per_head = list(mask_row)
    # each distinct array's rows: its ids, or a slice if they form one run
    rows_of: dict[int, np.ndarray | slice] = {}
    for row in per_head:
        if id(row) not in rows_of:
            idx = _ids((row,), "mask_row", n)[0]
            first, last = int(idx[0]), int(idx[-1])
            rows_of[id(row)] = slice(first, last + 1) if last - first + 1 == idx.size else idx
    if len(per_head) != h:
        raise ValueError("mask_row must give one index set per query head")
    pos = n - 1
    scale = 1.0 / np.sqrt(d)
    out = np.empty((h, 1, d))
    read: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
    for head, row in enumerate(per_head):
        g = inputs.group_map[head]
        if (g, id(row)) not in read:
            rows = rows_of[id(row)]
            read[g, id(row)] = inputs.keys[g][rows], inputs.values[g][rows]
        keys, values = read[g, id(row)]
        logits = (keys @ inputs.queries[head][pos]) * scale
        w = _stable_softmax(logits)
        out[head, 0] = w @ values
    return AttentionOutput(out)
