"""Block-sparse prefill: mean-pooled query/key blocks, top-k key blocks per
query block, with the first key block and the diagonal block always kept.
Blocks follow ``accounting.ranked_keep``'s order through the input's cached
``AttentionInputs.block_rank``, so a build at any k is one threshold."""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .plans import BLOCK_SIZE, BlockPlan

__all__ = ["build_block_sparse"]


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
