"""Selection order, exact coverage accounting and recall for sparse plans.

Sparsity is always 1 - computed_cells / causal_cells with both counts exact.
For prefill plans the denominator is the causal triangle per query head; for
eviction and page plans it is the cached-token count per kv head at the
decode step.  Each function is one call on the plan's own geometry
(``plans``); only a ``PagePlan``, one decode row, is told apart.

``DenseMass`` is the one dense-mass stage: ``dense_mass_from`` reads a
head's causal softmax rows in APPROX_WINDOW-row tiles counted back from the
last row, so the observation window (``vertical_slash.window_stats``) is
its last tile and the recall oracle (``dense_mass``) reads every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from ..attention import APPROX_WINDOW, AttentionInputs, Tile, causal_softmax, offset_sums
from .plans import BLOCK_SIZE, PAGE_SIZE, PagePlan, SparsePlan, SparsityReport

__all__ = [
    "CellMask",
    "DenseMass",
    "dense_mass",
    "dense_mass_from",
    "plan_sparsity",
    "attention_recall",
    "to_cell_mask",
    "page_plan_rows",
    "rank",
]

ORACLE_LIMIT = 2048


def plan_sparsity(plan: SparsePlan, target_sparsity: float | None = None) -> SparsityReport:
    return SparsityReport(*plan.cell_counts(), target_sparsity)


@dataclass(frozen=True)
class CellMask:
    """The cells of a prefill-style plan, as ``to_cell_mask`` returns them:
    the kernel reads ``num_heads``, ``seq_len`` and each head's ``tiles``.
    ``cells[h, i, j]``, true where query row i of head h reads key j, is
    expanded from the plan head by head when first read and cached read-only."""

    plan: SparsePlan  # any but a PagePlan
    group_map: tuple[int, ...]

    @property
    def num_heads(self) -> int:
        return len(self.group_map)

    @property
    def seq_len(self) -> int:
        return self.plan.seq_len

    def tiles(
        self, inputs: AttentionInputs, head: int, buffers: np.ndarray | None = None
    ) -> Iterator[Tile]:
        return self.plan.tiles(inputs, self.group_map, head, buffers)

    @cached_property
    def cells(self) -> np.ndarray:
        n = self.seq_len
        cells = np.empty((self.num_heads, n, n), dtype=bool)
        for h in range(self.num_heads):
            self.plan.write_cells(self.group_map, h, cells[h])
        cells.flags.writeable = False
        return cells

    def row(self, head: int, i: int) -> np.ndarray:
        return np.flatnonzero(self.cells[head, i])

    def num_cells(self) -> int:
        return int(np.count_nonzero(self.cells))


def to_cell_mask(plan: SparsePlan, group_map: tuple[int, ...]) -> CellMask:
    """The plan's mask; no cell is written until ``cells`` is read.

    Raises ValueError if the plan's heads do not fit ``group_map``, or
    naming the first query head whose row 0 reads no key, which would leave
    rows empty.  Page plans constrain a single decode row, so they have no
    full-mask view (use page_plan_rows).
    """
    if isinstance(plan, PagePlan):
        raise TypeError("page plans constrain one decode row; use page_plan_rows")
    plan.check_fits(group_map)
    for h in range(len(group_map)):
        if not plan.reads_first_key(group_map, h):
            raise ValueError(f"head {h} row 0 selects no key")
    return CellMask(plan, tuple(group_map))


def page_plan_rows(plan: PagePlan, group_map: tuple[int, ...]) -> list[np.ndarray]:
    """Per query-head permitted token indices for the plan's decode step."""
    plan.check_fits(group_map)
    offsets = np.arange(PAGE_SIZE)
    per_kv = []
    for pages in plan.selected:
        tokens = (pages[:, None] * PAGE_SIZE + offsets).ravel()
        per_kv.append(tokens[tokens <= plan.position])
    return [per_kv[g] for g in group_map]


def attention_recall(plan: SparsePlan, inputs: AttentionInputs) -> float:
    """Fraction of dense attention probability mass covered by the plan's
    cells, averaged over the rows the plan constrains and over heads; a
    ValueError if the plan does not fit the inputs' shape (``check_fits``).

    A cell (i, j) holds exp(logit_ij - lse_i) of row i, with lse_i the
    log-sum-exp of row i's causal logits.  A page plan constrains its decode
    row, whose covered mass is its selected tokens' weights in the row's one
    ``attention.causal_softmax`` read, O(n * head_dim).  A
    prefill-style plan constrains every row, and its mean recall is the
    mass on all its cells over heads * n: each head's mass is read by the
    plan's ``covered_mass`` from the per-unit sums of the inputs' cached
    ``dense_mass``, so no plan tile runs.  Only these plans, whose one fill
    is O(n^2 * head_dim), are limited to n <= ORACLE_LIMIT."""
    heads, group_map = inputs.num_q_heads, inputs.group_map
    plan.check_fits(group_map, inputs.seq_len)
    if isinstance(plan, PagePlan):
        pos = plan.position
        total = 0.0
        for h, tokens in enumerate(page_plan_rows(plan, group_map)):
            weights = causal_softmax(inputs, h, pos, pos + 1)[0][0]
            total += float(weights[tokens].sum())
        return total / heads

    n = inputs.seq_len
    if n > ORACLE_LIMIT:
        raise ValueError(f"recall oracle limited to n <= {ORACLE_LIMIT}, got {n}")
    dense = inputs.cached(dense_mass)
    return sum(plan.covered_mass(inputs, group_map, h, dense) for h in range(heads)) / (heads * n)


class DenseMass(NamedTuple):
    """Each query head's dense causal softmax mass of rows first..n-1 per unit.

    lse:        [num_q_heads, n - first] log-sum-exp of each row's causal logits.
    columns, column_max: [num_q_heads, n] mass and largest weight of each key column.
    slashes:    [num_q_heads, n] mass of each diagonal offset o, the cells (i, i - o).
    blocks:     [num_q_heads, nb - first // BLOCK_SIZE, nb] mass of each query
        block, from the one holding row first, and BLOCK_SIZE-token key block.
    total:      [num_q_heads] the rows' total mass.
    """

    lse: np.ndarray
    columns: np.ndarray
    column_max: np.ndarray
    slashes: np.ndarray
    blocks: np.ndarray
    total: np.ndarray


def dense_mass_from(inputs: AttentionInputs, first: int) -> DenseMass:
    """A tile at a time, counted back from row n - 1: each is reduced to its
    rows' log-sum-exp and its share of every unit's mass, then freed, so no
    [n, n] array is held."""
    heads, n = inputs.num_q_heads, inputs.seq_len
    nb, top = -(-n // BLOCK_SIZE), first // BLOCK_SIZE
    lse = np.empty((heads, n - first))
    columns, column_max, slashes = np.zeros((heads, n)), np.zeros((heads, n)), np.zeros((heads, n))
    blocks = np.zeros((heads, nb - top, nb))
    total = np.zeros(heads)
    for head in range(heads):
        for stop in range(n, first, -APPROX_WINDOW):
            start = max(first, stop - APPROX_WINDOW)
            rows = slice(start - first, stop - first)
            weights, lse[head, rows] = causal_softmax(inputs, head, start, stop)
            columns[head, :stop] += weights.sum(axis=0)
            np.maximum(column_max[head, :stop], weights.max(axis=0), out=column_max[head, :stop])
            offset_sums(weights, slashes[head])
            total[head] += weights.sum()
            # rows summed per query block by slicing: np.add.reduceat down rows is ~17x slower
            cuts = [0, *range(BLOCK_SIZE - start % BLOCK_SIZE, stop - start, BLOCK_SIZE)]
            by_block = np.stack([weights[a:b].sum(axis=0) for a, b in zip(cuts, cuts[1:] + [None])])
            del weights  # free this tile before the next is read
            last = -(-stop // BLOCK_SIZE)  # one past the tile's last block
            blocks[head, start // BLOCK_SIZE - top : last - top, :last] += np.add.reduceat(
                by_block, np.arange(0, stop, BLOCK_SIZE), axis=1
            )
    return DenseMass(lse, columns, column_max, slashes, blocks, total)


def dense_mass(inputs: AttentionInputs) -> DenseMass:
    """The recall oracle's cached stage: every row's ``dense_mass_from``."""
    return dense_mass_from(inputs, 0)


def rank(scores: np.ndarray, forced: np.ndarray) -> np.ndarray:
    """Each member's place along the last axis of ``scores``: the one
    selection order every builder thresholds, so the first k members of each
    row are ``rank(...) < k`` (k a scalar, or per-row counts ``k[..., None]``).

    Members marked in ``forced`` come first, by index; the rest follow by
    descending score, ties to the lower index.  Scores must be finite or
    -inf; -inf members come last.  Places are of the smallest signed integer
    type that holds the row length.
    """
    m = np.shape(scores)[-1]
    order = np.argsort(np.where(forced, -np.inf, np.negative(scores)), axis=-1, kind="stable")
    dtype = np.min_scalar_type(-m - 1)  # the smallest signed type whose maximum is m or more
    places = np.empty(order.shape, dtype=dtype)
    np.put_along_axis(places, order, np.arange(m, dtype=dtype), axis=-1)
    return places
