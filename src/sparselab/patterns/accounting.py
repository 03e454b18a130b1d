"""Selection order, exact coverage accounting and recall for sparse plans.

Sparsity is always 1 - computed_cells / causal_cells with both counts exact.
For prefill plans the denominator is the causal triangle per query head; for
eviction and page plans it is the cached-token count per kv head at the
decode step.  Each function is one call on the plan's own geometry
(``plans``); only a ``PagePlan``, one decode row, is told apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from ..attention import SPAN_ROWS, AttentionInputs, Tile, causal_softmax, offset_sums
from .plans import BLOCK_SIZE, PAGE_SIZE, PagePlan, SparsePlan, SparsityReport

__all__ = [
    "CellMask",
    "DenseMass",
    "dense_mass",
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

    def tiles(self, inputs: AttentionInputs, head: int) -> Iterator[Tile]:
        return self.plan.tiles(inputs, self.group_map, head)

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
    """The dense causal softmax mass of every query head, summed over each
    unit a prefill plan keeps; the recall oracle's cached stage.

    lse:     [num_q_heads, seq_len] log-sum-exp of each row's causal logits.
    columns: [num_q_heads, seq_len] mass of each key column j, the cells (i, j).
    slashes: [num_q_heads, seq_len] mass of each diagonal offset o, the cells
        (i, i - o).
    blocks:  [num_q_heads, nb, nb] mass of each query block and key block of
        BLOCK_SIZE tokens (zero above the diagonal).
    """

    lse: np.ndarray
    columns: np.ndarray
    slashes: np.ndarray
    blocks: np.ndarray


def dense_mass(inputs: AttentionInputs) -> DenseMass:
    """One pass over SPAN_ROWS-row tiles of each head's ``causal_softmax``:
    a tile is reduced to its rows' log-sum-exp and its share of every
    unit's mass, then freed, so no [n, n] array is held."""
    heads, n = inputs.num_q_heads, inputs.seq_len
    nb = -(-n // BLOCK_SIZE)
    lse = np.empty((heads, n))
    columns, slashes = np.zeros((heads, n)), np.zeros((heads, n))
    blocks = np.zeros((heads, nb, nb))
    for head in range(heads):
        # a tile starts on a block edge, since SPAN_ROWS is whole blocks
        for start in range(0, n, SPAN_ROWS):
            stop = min(start + SPAN_ROWS, n)
            weights, lse[head, start:stop] = causal_softmax(inputs, head, start, stop)
            by_block = np.add.reduceat(weights, np.arange(0, stop - start, BLOCK_SIZE), axis=0)
            columns[head, :stop] += by_block.sum(axis=0)
            first, last = start // BLOCK_SIZE, -(-stop // BLOCK_SIZE)
            blocks[head, first:last, :last] = np.add.reduceat(
                by_block, np.arange(0, stop, BLOCK_SIZE), axis=1
            )
            offset_sums(weights, slashes[head])
    return DenseMass(lse, columns, slashes, blocks)


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
