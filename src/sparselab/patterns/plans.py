"""Plan types produced by the pattern builders.

A plan is a pure description of which attention cells (or cached tokens, or
pages) a method keeps; its type is the unit of sparsification (key blocks,
vertical and slash lines, tokens, pages) and carries its own geometry.
Every plan counts its cells and checks an input shape against its own.
Every plan but the decode-row ``PagePlan`` gives one query head's
``tiles``, ``write_cells``, ``reads_first_key`` and ``covered_mass`` (its
dense mass, read from the recall oracle's per-unit sums), shared by the
column plans (vertical-slash and eviction).  Id arrays arrive sorted and
unique, as ``np.flatnonzero`` gives them; a plan checks that
(``attention._ids``, the rule decode rows follow too) and does not sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..attention import (
    SPAN_ROWS,
    TILE_ROWS,
    AttentionInputs,
    Tile,
    _ids,
    block_tiles,
    column_tiles,
)

if TYPE_CHECKING:
    from .accounting import DenseMass

__all__ = [
    "BLOCK_SIZE",
    "PAGE_SIZE",
    "VerticalSlashPlan",
    "BlockPlan",
    "EvictionPlan",
    "PageIndex",
    "PagePlan",
    "SparsePlan",
    "SparsityReport",
    "block_budget_cells",
    "span_lengths",
    "vertical_slash_cells",
]

# Blocks and pages are one prefill tile long, so the tile loop reads exactly
# the key blocks a block plan chose.
BLOCK_SIZE = PAGE_SIZE = TILE_ROWS

GroupMap = tuple[int, ...]  # the kv head each query head reads


def span_lengths(ids: np.ndarray, n: int) -> np.ndarray:
    """Tokens of each block (or page) in ``ids`` within the first n tokens:
    BLOCK_SIZE for all but a partial last one."""
    return np.minimum(BLOCK_SIZE, n - BLOCK_SIZE * np.asarray(ids, dtype=np.int64))


def _check_causal_bitmap(sel: np.ndarray) -> None:
    """Raise ValueError unless ``sel`` is a boolean [heads, nb, nb] array
    with no key block after its query block and a key block in every row."""
    if not isinstance(sel, np.ndarray) or sel.dtype != bool:
        raise ValueError("block selections must be a boolean ndarray")
    if sel.ndim != 3 or sel.shape[1] != sel.shape[2]:
        raise ValueError(
            f"block selections must be a square [heads, nb, nb] array, got shape {sel.shape}"
        )
    ahead = sel & ~np.tri(sel.shape[1], dtype=bool)
    if ahead.any():
        h, i, j = np.argwhere(ahead)[0]
        raise ValueError(f"head {h} query block {i} selects non-causal key block {j}")
    empty = np.argwhere(~sel.any(axis=2))
    if empty.size:
        raise ValueError(f"head {empty[0, 0]} query block {empty[0, 1]} selects no key block")


def _diagonals(offsets: np.ndarray, n: int) -> np.ndarray:
    """Read-only boolean [n, n] view, true on the causal diagonals i - j in
    ``offsets``; nothing n x n is allocated."""
    line = np.zeros(2 * n - 1, dtype=bool)
    line[n - 1 - offsets] = True
    return as_strided(line[n - 1 :], shape=(n, n), strides=(-1, 1), writeable=False)


class _Geometry:
    """A plan's heads are query heads, or kv heads if ``PER_KV_HEAD``."""

    PER_KV_HEAD = False

    def check_fits(self, group_map: GroupMap, seq_len: int | None = None) -> None:
        """Raise ValueError unless the plan has ``group_map``'s heads and,
        if given, ``seq_len`` tokens."""
        unit = "kv" if self.PER_KV_HEAD else "query"
        heads = max(group_map) + 1 if self.PER_KV_HEAD else len(group_map)
        n = self.seq_len if seq_len is None else seq_len
        if (self.num_heads, self.seq_len) != (heads, n):
            raise ValueError(
                f"{type(self).__name__} has {self.num_heads} {unit} heads at length "
                f"{self.seq_len}; the inputs have {heads} {unit} heads at length {n}"
            )


class _ColumnGeometry(_Geometry):
    """Whole causal key columns plus, for vertical-slash plans, causal
    diagonals.  A subclass's ``_lines(group_map, head)`` gives one query
    head's sorted columns and its offsets (None for no diagonals)."""

    def tiles(
        self,
        inputs: AttentionInputs,
        group_map: GroupMap,
        head: int,
        buffers: np.ndarray | None = None,
    ) -> Iterator[Tile]:
        return column_tiles(inputs, head, *self._lines(group_map, head), buffers)

    def write_cells(self, group_map: GroupMap, head: int, out: np.ndarray) -> None:
        """Write query head ``head``'s boolean [n, n] cells into ``out``."""
        columns, offsets = self._lines(group_map, head)
        n = self.seq_len
        keys = np.zeros(n, dtype=bool)
        keys[columns] = True
        np.logical_and(_diagonals(np.arange(n), n), keys, out=out)
        if offsets is not None:
            out |= _diagonals(offsets, n)

    def reads_first_key(self, group_map: GroupMap, head: int) -> bool:
        # row 0 holds only cell (0, 0): column 0 or offset 0
        columns, offsets = self._lines(group_map, head)
        return columns[0] == 0 or (offsets is not None and offsets[0] == 0)

    def covered_mass(
        self, inputs: AttentionInputs, group_map: GroupMap, head: int, dense: DenseMass
    ) -> float:
        """Query head ``head``'s dense mass on the plan's cells: its columns'
        and diagonals' masses from ``dense``, less the mass of the cells
        on both.  Those are read from one product of the head's queries
        with the keys of every SPAN_ROWS columns, so at most n x SPAN_ROWS
        logits are held."""
        columns, offsets = self._lines(group_map, head)
        mass = dense.columns[head, columns].sum()
        if offsets is None:
            return float(mass)
        mass += dense.slashes[head, offsets].sum()
        # logits scaled after the product, as the log-sum-exp's are
        queries, keys = inputs.queries[head], inputs.keys[inputs.group_map[head]]
        scale = 1.0 / np.sqrt(inputs.head_dim)
        for lo in range(0, columns.size, SPAN_ROWS):
            chunk = columns[lo : lo + SPAN_ROWS]
            # cell (j + o, j) lies on column j and offset o when j + o < n
            counts = np.searchsorted(offsets, self.seq_len - chunk)
            line = np.repeat(np.arange(chunk.size), counts)
            firsts = np.repeat(np.cumsum(counts) - counts, counts)
            rows = chunk[line] + offsets[np.arange(line.size) - firsts]
            logits = (queries @ keys[chunk].T)[rows, line] * scale
            mass -= np.exp(logits - dense.lse[head, rows]).sum()
        return float(mass)


def vertical_slash_cells(verticals: np.ndarray, slashes: np.ndarray, n: int) -> int:
    """|union of cells| for one head: verticals contribute n - j cells each,
    slashes n - o each, minus the overlap pairs {(j, o): j + o <= n - 1}."""
    v = np.asarray(verticals, dtype=np.int64)
    s = np.asarray(slashes, dtype=np.int64)
    col_cells = int((n - v).sum())
    slash_cells = int((n - s).sum())
    # cell (j + o, j) belongs to vertical j and slash o when j + o < n
    overlap = int(np.searchsorted(s, n - v, side="left").sum())
    return col_cells + slash_cells - overlap


@dataclass(frozen=True)
class VerticalSlashPlan(_ColumnGeometry):
    """Per query-head selections of key columns (verticals) and causal
    diagonal offsets (slashes).  Offset o keeps cells (i, i - o)."""

    verticals: tuple[np.ndarray, ...]
    slashes: tuple[np.ndarray, ...]
    seq_len: int

    def __post_init__(self) -> None:
        if len(self.verticals) != len(self.slashes):
            raise ValueError("verticals and slashes must cover the same heads")
        object.__setattr__(self, "verticals", _ids(self.verticals, "verticals", self.seq_len))
        object.__setattr__(self, "slashes", _ids(self.slashes, "slashes", self.seq_len))

    @property
    def num_heads(self) -> int:
        return len(self.verticals)

    def cell_counts(self) -> tuple[int, int]:
        n = self.seq_len
        computed = sum(vertical_slash_cells(v, s, n) for v, s in zip(self.verticals, self.slashes))
        return computed, self.num_heads * n * (n + 1) // 2

    def _lines(self, group_map: GroupMap, head: int) -> tuple[np.ndarray, np.ndarray]:
        return self.verticals[head], self.slashes[head]


def _block_cells(seq_len: int, off_diagonal: np.ndarray, diagonal: np.ndarray) -> int:
    """Cells of query blocks (the last axis) that read ``off_diagonal`` key
    blocks below their own and, where ``diagonal`` is 1, their own.  Only the
    last block can be short, and it is only ever a diagonal, so every
    off-diagonal key block is full width: query block b with r_b rows reads
    r_b * BLOCK_SIZE cells per off-diagonal key block and r_b (r_b + 1) / 2
    in its diagonal one."""
    rows = span_lengths(np.arange(-(-seq_len // BLOCK_SIZE)), seq_len)
    return int((rows * BLOCK_SIZE * off_diagonal + diagonal * (rows * (rows + 1) // 2)).sum())


def block_budget_cells(seq_len: int, top_k_blocks: int) -> int:
    """Cells computed per head at a given block budget, independent of which
    blocks score highest: query block b always selects min(k, b+1) blocks,
    one of them diagonal."""
    if top_k_blocks < 2:
        raise ValueError("top_k_blocks must be at least 2")
    ids = np.arange(-(-seq_len // BLOCK_SIZE))
    return _block_cells(seq_len, np.minimum(top_k_blocks, ids + 1) - 1, 1)


@dataclass(frozen=True, init=False, eq=False)
class BlockPlan(_Geometry):
    """Key blocks each query block reads: ``selections[h, b, c]`` lets query
    block b of head h read key block c.

    ``selections`` is a boolean [num_heads, nb, nb] array over the nb
    ``BLOCK_SIZE``-token blocks of the sequence (the last may be short).
    Every query block reads at least one key block and none after its own.
    A plan given its selections is checked for that cell by cell and
    recounts its cells.  A plan ``_threshold`` builds from a block rank
    states both from the rank's layout, and writes its selections only when
    they are first read.
    """

    seq_len: int
    # a ``_threshold`` plan's rank, clamped k and computed cells, known from
    # its budget; None for a plan given its selections, which recounts them
    _rank: np.ndarray | None = field(repr=False)
    _k: int | None
    _computed: int | None

    def __init__(self, selections: np.ndarray, seq_len: int) -> None:
        _check_causal_bitmap(selections)
        nb = -(-seq_len // BLOCK_SIZE)
        if selections.shape[1] != nb:
            raise ValueError(
                f"block selections must be [heads, {nb}, {nb}] at seq_len {seq_len}, "
                f"got shape {selections.shape}"
            )
        # the given selections fill the ``selections`` property's cache
        self._set(seq_len=seq_len, _rank=None, _k=None, _computed=None, selections=selections)

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _threshold(cls, rank: np.ndarray, top_k_blocks: int, seq_len: int) -> BlockPlan:
        """The plan ``rank < k``, k being ``top_k_blocks`` clamped to nb, of
        ``block_sparse.block_rank``'s [heads, nb, nb] order, the inputs'
        cached rank that ``build_block_sparse`` passes.

        That order holds nb at every non-causal cell and places block 0 and
        the diagonal first, so with 2 <= k <= nb (or k = nb = 1) the plan
        reads no key block after its query block, every query block reads
        its diagonal, and query block b reads min(k, b + 1) blocks: each
        head computes ``block_budget_cells(seq_len, top_k_blocks)`` cells.
        Only those premises, the budget (``block_budget_cells`` refuses one
        below 2) and the rank's shape, are checked here; no cell is, and
        none is written until ``selections`` is read."""
        nb = -(-seq_len // BLOCK_SIZE)
        if rank.ndim != 3 or rank.shape[1:] != (nb, nb) or rank.dtype.kind != "i":
            raise ValueError(
                f"a block rank must be a signed integer [heads, {nb}, {nb}] array at "
                f"seq_len {seq_len}, got {rank.dtype} {rank.shape}"
            )
        computed = rank.shape[0] * block_budget_cells(seq_len, top_k_blocks)
        plan = cls.__new__(cls)
        plan._set(seq_len=seq_len, _rank=rank, _k=min(top_k_blocks, nb), _computed=computed)
        return plan

    @cached_property
    def selections(self) -> np.ndarray:
        """A ``_threshold`` plan's ``rank < k``, written on the first read
        and kept read-only; a plan given its selections holds them."""
        selections = self._rank < self._k
        selections.flags.writeable = False
        return selections

    @property
    def block_size(self) -> int:
        return BLOCK_SIZE

    @property
    def num_heads(self) -> int:
        return (self.selections if self._rank is None else self._rank).shape[0]

    @property
    def num_query_blocks(self) -> int:
        return -(-self.seq_len // BLOCK_SIZE)

    def cell_counts(self) -> tuple[int, int]:
        n = self.seq_len
        causal = self.num_heads * n * (n + 1) // 2
        if self._computed is not None:
            return self._computed, causal
        diagonal = np.diagonal(self.selections, axis1=1, axis2=2)
        off_diagonal = np.count_nonzero(self.selections, axis=2) - diagonal
        return _block_cells(n, off_diagonal, diagonal), causal

    def tiles(
        self,
        inputs: AttentionInputs,
        group_map: GroupMap,
        head: int,
        buffers: np.ndarray | None = None,
    ) -> Iterator[Tile]:
        # block tiles read no diagonal buffers
        return block_tiles(inputs, head, self.selections[head])

    def write_cells(self, group_map: GroupMap, head: int, out: np.ndarray) -> None:
        """Write query head ``head``'s boolean [n, n] cells into ``out``: the
        key columns of each query block, copied to its rows as a [blocks,
        BLOCK_SIZE, n] view of the whole blocks, then the short last one."""
        n = self.seq_len
        chosen = self.selections[head].repeat(BLOCK_SIZE, axis=1)[:, :n]
        full = n // BLOCK_SIZE
        out[: full * BLOCK_SIZE].reshape(full, BLOCK_SIZE, n)[...] = chosen[:full, None]
        out[full * BLOCK_SIZE :] = chosen[full : full + 1]
        out &= _diagonals(np.arange(n), n)

    def reads_first_key(self, group_map: GroupMap, head: int) -> bool:
        # query block 0 always reads key block 0
        return True

    def covered_mass(
        self, inputs: AttentionInputs, group_map: GroupMap, head: int, dense: DenseMass
    ) -> float:
        """Query head ``head``'s dense mass on its chosen blocks, from ``dense``."""
        return float(dense.blocks[head][self.selections[head]].sum())


@dataclass(frozen=True)
class EvictionPlan(_ColumnGeometry):
    """Per kv-head kept token sets after cache compression, read as key columns."""

    PER_KV_HEAD = True

    kept: tuple[np.ndarray, ...]
    seq_len: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", _ids(self.kept, "kept", self.seq_len))

    @property
    def num_heads(self) -> int:
        return len(self.kept)

    @property
    def kept_counts(self) -> tuple[int, ...]:
        return tuple(int(k.size) for k in self.kept)

    def cell_counts(self) -> tuple[int, int]:
        return sum(self.kept_counts), self.num_heads * self.seq_len

    def _lines(self, group_map: GroupMap, head: int) -> tuple[np.ndarray, None]:
        return self.kept[group_map[head]], None


@dataclass(frozen=True)
class PageIndex:
    """Elementwise min/max key representatives of every ``PAGE_SIZE``-token
    page: ``mins`` and ``maxs`` are [num_kv_heads, num_pages, head_dim]."""

    mins: np.ndarray
    maxs: np.ndarray
    seq_len: int

    def __post_init__(self) -> None:
        if self.mins.ndim != 3 or self.mins.shape != self.maxs.shape:
            raise ValueError("page mins and maxs must be matching [heads, pages, head_dim] arrays")
        if self.mins.shape[1] != self.num_pages:
            raise ValueError("one representative pair per page required")

    @property
    def page_size(self) -> int:
        return PAGE_SIZE

    @property
    def num_heads(self) -> int:
        return self.mins.shape[0]

    @property
    def num_pages(self) -> int:
        return -(-self.seq_len // PAGE_SIZE)


@dataclass(frozen=True)
class PagePlan(_Geometry):
    """One decode step's page selection per kv head."""

    PER_KV_HEAD = True

    index: PageIndex
    selected: tuple[np.ndarray, ...]
    position: int

    def __post_init__(self) -> None:
        current = self.position // PAGE_SIZE
        object.__setattr__(self, "selected", _ids(self.selected, "selected", current + 1))
        if len(self.selected) != self.index.num_heads:
            raise ValueError("one page selection per kv head required")
        if any(pages[-1] != current for pages in self.selected):
            raise ValueError("the page holding the current token must be selected")

    @property
    def num_heads(self) -> int:
        return len(self.selected)

    @property
    def seq_len(self) -> int:
        return self.index.seq_len

    def cell_counts(self) -> tuple[int, int]:
        # selected pages never start past the current token
        cached = self.position + 1
        computed = sum(int(span_lengths(pages, cached).sum()) for pages in self.selected)
        return computed, self.num_heads * cached


SparsePlan = Union[VerticalSlashPlan, BlockPlan, EvictionPlan, PagePlan]


@dataclass(frozen=True)
class SparsityReport:
    """Exact coverage accounting for a plan: both counts are exact integers."""

    computed_cells: int
    causal_cells: int
    target_sparsity: float | None = None

    @property
    def achieved_sparsity(self) -> float:
        return 1.0 - self.computed_cells / self.causal_cells
