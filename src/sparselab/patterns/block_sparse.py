"""Block-sparse prefill: mean-pooled query/key blocks, top-k key blocks per
query block, with the first key block and the diagonal block always kept.
Blocks follow ``accounting.ranked_keep``'s order through the input's cached
``AttentionInputs.block_rank``, so a build at any k is one threshold."""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .accounting import CalibrationSearch, _smallest_budget, block_budget_cells
from .plans import BLOCK_SIZE, BlockPlan

__all__ = ["build_block_sparse", "calibrate_block_topk"]


def build_block_sparse(inputs: AttentionInputs, top_k_blocks: int) -> BlockPlan:
    """Select ``top_k_blocks`` causal key blocks per query block by pooled
    logit; block 0 and the diagonal block are forced and count toward k.
    Rows with fewer causal blocks than k are clamped."""
    if top_k_blocks < 2:
        raise ValueError("top_k_blocks must be >= 2 (first block plus diagonal)")
    n = inputs.seq_len
    nb = -(-n // BLOCK_SIZE)
    if top_k_blocks >= nb:
        # query block b has b + 1 causal key blocks: every row keeps them all
        selections = np.tri(nb, dtype=bool)[None].repeat(inputs.num_q_heads, axis=0)
        return BlockPlan(selections=selections, seq_len=n)
    return BlockPlan(selections=inputs.block_rank < top_k_blocks, seq_len=n)


def calibrate_block_topk(inputs: AttentionInputs, target_sparsity: float) -> CalibrationSearch:
    """Smallest k whose achieved sparsity is at or below the target.

    A block plan's cell count depends on k and the length alone
    (``block_budget_cells``), so the search builds no plan.  Achieved
    sparsity is non-increasing in k, so binary search applies.  When even
    the forced-only selection (k = 2) sits below the target, the target is
    unreachable and the minimal k is returned flagged.
    """
    n = inputs.seq_len
    causal = n * (n + 1) // 2

    def sparsity(k: int) -> float:
        return 1.0 - block_budget_cells(n, k) / causal

    return _smallest_budget(2, -(-n // BLOCK_SIZE), sparsity, target_sparsity)
