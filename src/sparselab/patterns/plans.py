"""Plan types produced by the pattern builders.

A plan is a pure description of which attention cells (or cached tokens, or
pages) a method keeps.  Builders never touch the values tensor; execution and
accounting consume plans separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

__all__ = [
    "VerticalSlashPlan",
    "BlockPlan",
    "EvictionPlan",
    "PageIndex",
    "PagePlan",
    "SparsePlan",
    "SparsityReport",
]


def _sorted_unique(arr: np.ndarray) -> np.ndarray:
    return np.unique(np.asarray(arr, dtype=np.int64))


@dataclass(frozen=True)
class VerticalSlashPlan:
    """Per query-head selections of key columns (verticals) and causal
    diagonal offsets (slashes).  Offset o keeps cells (i, i - o)."""

    verticals: tuple[np.ndarray, ...]
    slashes: tuple[np.ndarray, ...]
    seq_len: int
    approx_window: int

    def __post_init__(self) -> None:
        if len(self.verticals) != len(self.slashes):
            raise ValueError("verticals and slashes must cover the same heads")
        object.__setattr__(self, "verticals", tuple(_sorted_unique(v) for v in self.verticals))
        object.__setattr__(self, "slashes", tuple(_sorted_unique(s) for s in self.slashes))
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
    """Per query-head, per query-block selections of key-block indices."""

    selections: tuple[tuple[np.ndarray, ...], ...]
    block_size: int
    seq_len: int
    requested_top_k: int
    clamped: bool = False

    def __post_init__(self) -> None:
        cleaned = tuple(
            tuple(_sorted_unique(blocks) for blocks in head) for head in self.selections
        )
        object.__setattr__(self, "selections", cleaned)
        for head in self.selections:
            if len(head) != self.num_query_blocks:
                raise ValueError("each head must select for every query block")
            for b, blocks in enumerate(head):
                if blocks.size == 0 or blocks[0] < 0 or blocks[-1] > b:
                    raise ValueError(f"query block {b} selects non-causal key block")

    @property
    def num_heads(self) -> int:
        return len(self.selections)

    @property
    def num_query_blocks(self) -> int:
        return -(-self.seq_len // self.block_size)


@dataclass(frozen=True)
class EvictionPlan:
    """Per kv-head kept token sets after cache compression."""

    kept: tuple[np.ndarray, ...]
    token_capacity: int
    seq_len: int
    approx_window: int
    kernel_size: int
    min_head_fraction: float | None = None
    noop: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "kept", tuple(_sorted_unique(k) for k in self.kept))
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
    """Per kv-head elementwise min/max key representatives per page."""

    mins: tuple[np.ndarray, ...]
    maxs: tuple[np.ndarray, ...]
    page_size: int
    seq_len: int

    def __post_init__(self) -> None:
        if len(self.mins) != len(self.maxs):
            raise ValueError("mins and maxs must cover the same heads")
        for lo, hi in zip(self.mins, self.maxs):
            if lo.shape != hi.shape:
                raise ValueError("page min/max representative shapes must match")
            if lo.shape[0] != self.num_pages:
                raise ValueError("one representative pair per page required")

    @property
    def num_heads(self) -> int:
        return len(self.mins)

    @property
    def num_pages(self) -> int:
        return -(-self.seq_len // self.page_size)

    def page_token_range(self, page: int, limit: int | None = None) -> tuple[int, int]:
        """[start, end) token span of a page, optionally clipped to limit."""
        start = page * self.page_size
        end = min(start + self.page_size, self.seq_len)
        if limit is not None:
            end = min(end, limit)
        return start, end


@dataclass(frozen=True)
class PagePlan:
    """One decode step's page selection per kv head."""

    index: PageIndex
    selected: tuple[np.ndarray, ...]
    token_budget: int
    position: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected", tuple(_sorted_unique(s) for s in self.selected))
        if len(self.selected) != self.index.num_heads:
            raise ValueError("one page selection per kv head required")
        current = self.position // self.index.page_size
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
    recall: float | None = None
