"""Plan types produced by the pattern builders.

A plan is a pure description of which attention cells (or cached tokens, or
pages) a method keeps.  Builders never touch the values tensor; execution and
accounting consume plans separately.  Id arrays arrive sorted and unique,
as ``np.flatnonzero`` gives them; a plan checks that and does not sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..attention import TILE_ROWS

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
    "span_lengths",
]

# Blocks and pages are one prefill tile long, so the tile loop reads exactly
# the key blocks a block plan chose.
BLOCK_SIZE = PAGE_SIZE = TILE_ROWS


def span_lengths(ids: np.ndarray, n: int) -> np.ndarray:
    """Tokens of each block (or page) in ``ids`` within the first n tokens:
    BLOCK_SIZE for all but a partial last one."""
    return np.minimum(BLOCK_SIZE, n - BLOCK_SIZE * np.asarray(ids, dtype=np.int64))


def _increasing(arrays: tuple[np.ndarray, ...], field: str) -> tuple[np.ndarray, ...]:
    """Each array of ids as int64; raise ValueError unless it is 1-d and
    strictly increasing (sorted, no id twice)."""
    out = tuple(np.asarray(a, dtype=np.int64) for a in arrays)
    for a in out:
        if a.ndim != 1 or (a[1:] <= a[:-1]).any():
            raise ValueError(f"{field} must be 1-d arrays of strictly increasing ids")
    return out


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


@dataclass(frozen=True)
class VerticalSlashPlan:
    """Per query-head selections of key columns (verticals) and causal
    diagonal offsets (slashes).  Offset o keeps cells (i, i - o)."""

    verticals: tuple[np.ndarray, ...]
    slashes: tuple[np.ndarray, ...]
    seq_len: int

    def __post_init__(self) -> None:
        if len(self.verticals) != len(self.slashes):
            raise ValueError("verticals and slashes must cover the same heads")
        object.__setattr__(self, "verticals", _increasing(self.verticals, "verticals"))
        object.__setattr__(self, "slashes", _increasing(self.slashes, "slashes"))
        n = self.seq_len
        for v, s in zip(self.verticals, self.slashes):
            if v.size == 0 or v[0] < 0 or v[-1] >= n:
                raise ValueError("vertical column ids must lie in [0, seq_len)")
            if s.size == 0 or s[0] < 0 or s[-1] >= n:
                raise ValueError("slash offsets must lie in [0, seq_len)")

    @property
    def num_heads(self) -> int:
        return len(self.verticals)


@dataclass(frozen=True)
class BlockPlan:
    """Key blocks each query block reads: ``selections[h, b, c]`` lets query
    block b of head h read key block c.

    ``selections`` is a boolean [num_heads, nb, nb] array over the nb
    ``BLOCK_SIZE``-token blocks of the sequence (the last may be short).
    Every query block reads at least one key block and none after its own.
    """

    selections: np.ndarray
    seq_len: int

    def __post_init__(self) -> None:
        sel = self.selections
        _check_causal_bitmap(sel)
        nb = self.num_query_blocks
        if sel.shape[1] != nb:
            raise ValueError(
                f"block selections must be [heads, {nb}, {nb}] at seq_len {self.seq_len}, "
                f"got shape {sel.shape}"
            )

    @property
    def block_size(self) -> int:
        return BLOCK_SIZE

    @property
    def num_heads(self) -> int:
        return self.selections.shape[0]

    @property
    def num_query_blocks(self) -> int:
        return -(-self.seq_len // BLOCK_SIZE)


@dataclass(frozen=True)
class EvictionPlan:
    """Per kv-head kept token sets after cache compression."""

    kept: tuple[np.ndarray, ...]
    seq_len: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", _increasing(self.kept, "kept"))
        for k in self.kept:
            if k.size == 0 or k[0] < 0 or k[-1] >= self.seq_len:
                raise ValueError("kept indices must lie in [0, seq_len)")

    @property
    def num_heads(self) -> int:
        return len(self.kept)

    @property
    def kept_counts(self) -> tuple[int, ...]:
        return tuple(int(k.size) for k in self.kept)


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
class PagePlan:
    """One decode step's page selection per kv head."""

    index: PageIndex
    selected: tuple[np.ndarray, ...]
    position: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", _increasing(self.selected, "selected"))
        if len(self.selected) != self.index.num_heads:
            raise ValueError("one page selection per kv head required")
        current = self.position // PAGE_SIZE
        for pages in self.selected:
            if pages.size == 0 or pages[0] < 0 or pages[-1] > current:
                raise ValueError("selected pages must lie in [0, current page]")
            if current not in pages:
                raise ValueError("the page holding the current token must be selected")

    @property
    def num_heads(self) -> int:
        return len(self.selected)


SparsePlan = Union[VerticalSlashPlan, BlockPlan, EvictionPlan, PagePlan]


@dataclass(frozen=True)
class SparsityReport:
    """Exact coverage accounting for a plan.

    achieved_sparsity is 1 - computed_cells / causal_cells by construction;
    both counts are exact integers.
    """

    achieved_sparsity: float
    computed_cells: int
    causal_cells: int
    target_sparsity: float | None = None
