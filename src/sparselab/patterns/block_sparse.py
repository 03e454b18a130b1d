"""Block-sparse prefill: mean-pooled query/key blocks, top-k key blocks per
query block, with the first key block and the diagonal block always kept.
Blocks are ranked by ``accounting.ranked_keep``."""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .accounting import CalibrationSearch, _smallest_budget, plan_sparsity, ranked_keep
from .plans import BLOCK_SIZE, BlockPlan, span_lengths

__all__ = ["build_block_sparse", "calibrate_block_topk", "pooled_block_logits"]


def _pool_blocks(x: np.ndarray) -> np.ndarray:
    """Arithmetic mean over each block of rows; the last block may be short.

    Zero padding to whole blocks leaves every block's row sum exact, so the
    means equal a per-block ``mean(axis=0)`` bit for bit."""
    n, d = x.shape
    nb = -(-n // BLOCK_SIZE)
    padded = np.zeros((nb * BLOCK_SIZE, d))
    padded[:n] = x
    sums = padded.reshape(nb, BLOCK_SIZE, d).sum(axis=1)
    return sums / span_lengths(np.arange(nb), n)[:, None]


def pooled_block_logits(inputs: AttentionInputs, head: int) -> np.ndarray:
    """[num_blocks, num_blocks] scaled dot products of pooled queries/keys."""
    g = inputs.group_map[head]
    qp = _pool_blocks(inputs.queries[head])
    kp = _pool_blocks(inputs.keys[g])
    return (qp @ kp.T) / np.sqrt(inputs.head_dim)


def build_block_sparse(inputs: AttentionInputs, top_k_blocks: int) -> BlockPlan:
    """Select ``top_k_blocks`` causal key blocks per query block by pooled
    logit; block 0 and the diagonal block are forced and count toward k.
    Rows with fewer causal blocks than k are clamped."""
    if top_k_blocks < 2:
        raise ValueError("top_k_blocks must be >= 2 (first block plus diagonal)")
    n = inputs.seq_len
    nb = -(-n // BLOCK_SIZE)
    ids = np.arange(nb)
    non_causal = ids[None, :] > ids[:, None]
    forced = (ids[None, :] == 0) | (ids[None, :] == ids[:, None])
    k = np.minimum(top_k_blocks, ids + 1)
    logits = np.stack([pooled_block_logits(inputs, h) for h in range(inputs.num_q_heads)])
    logits[:, non_causal] = -np.inf
    return BlockPlan(
        selections=ranked_keep(logits, k, forced), seq_len=n, clamped=top_k_blocks > nb
    )


def calibrate_block_topk(inputs: AttentionInputs, target_sparsity: float) -> CalibrationSearch:
    """Smallest k whose achieved sparsity is at or below the target.

    Achieved sparsity is non-increasing in k, so binary search applies.  When
    even the forced-only selection (k = 2) sits below the target, the target
    is unreachable and the minimal k is returned flagged.
    """
    nb = -(-inputs.seq_len // BLOCK_SIZE)

    def sparsity(k: int) -> float:
        return plan_sparsity(build_block_sparse(inputs, k)).achieved_sparsity

    return _smallest_budget(2, nb, sparsity, target_sparsity)
