"""Block-sparse prefill: mean-pooled query/key blocks, top-k key blocks per
query block, with the first key block and the diagonal block always kept.
Blocks are ranked by ``accounting.ranked_keep``."""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .accounting import CalibrationSearch, _smallest_budget, block_budget_cells, ranked_keep
from .plans import BLOCK_SIZE, BlockPlan, span_lengths

__all__ = ["build_block_sparse", "calibrate_block_topk", "pooled_block_logits"]


# Ranked query blocks are scored this many rows at a time, each group over
# its causal prefix of key blocks only.
ROW_GROUP = 64


def _pool_blocks(x: np.ndarray) -> np.ndarray:
    """Arithmetic mean over each block of rows of every head of ``x``
    ([heads, n, d]); the last block may be short.

    Each block's rows are summed in order, so the means equal a per-block
    ``mean(axis=0)`` bit for bit."""
    heads, n, d = x.shape
    full = n // BLOCK_SIZE
    nb = -(-n // BLOCK_SIZE)
    sums = np.empty((heads, nb, d))
    sums[:, :full] = x[:, : full * BLOCK_SIZE].reshape(heads, full, BLOCK_SIZE, d).sum(axis=2)
    if nb > full:
        sums[:, full] = x[:, full * BLOCK_SIZE :].sum(axis=1)
    return sums / span_lengths(np.arange(nb), n)[:, None]


def pooled_block_logits(inputs: AttentionInputs) -> np.ndarray:
    """[num_q_heads, num_blocks, num_blocks] scaled dot products of pooled
    queries and keys; each kv head's keys are pooled once for its group."""
    qp = _pool_blocks(inputs.queries)
    kp = _pool_blocks(inputs.keys)[list(inputs.group_map)]
    logits = qp @ kp.transpose(0, 2, 1)
    logits /= np.sqrt(inputs.head_dim)
    return logits


def build_block_sparse(inputs: AttentionInputs, top_k_blocks: int) -> BlockPlan:
    """Select ``top_k_blocks`` causal key blocks per query block by pooled
    logit; block 0 and the diagonal block are forced and count toward k.
    Rows with fewer causal blocks than k are clamped."""
    if top_k_blocks < 2:
        raise ValueError("top_k_blocks must be >= 2 (first block plus diagonal)")
    n = inputs.seq_len
    nb = -(-n // BLOCK_SIZE)
    # query block b has b + 1 causal key blocks: up to row k - 1 it keeps them all
    selections = np.tri(nb, dtype=bool)[None].repeat(inputs.num_q_heads, axis=0)
    if top_k_blocks >= nb:
        return BlockPlan(selections=selections, seq_len=n)
    logits = pooled_block_logits(inputs)
    ids = np.arange(nb)
    for lo in range(top_k_blocks, nb, ROW_GROUP):
        hi = min(lo + ROW_GROUP, nb)
        rows, cols = ids[lo:hi, None], ids[None, :hi]
        scores = np.where(cols <= rows, logits[:, lo:hi, :hi], -np.inf)
        forced = (cols == 0) | (cols == rows)
        selections[:, lo:hi, :hi] = ranked_keep(scores, top_k_blocks, forced)
    return BlockPlan(selections=selections, seq_len=n)


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
