"""Block-sparse prefill: mean-pooled query/key blocks, top-k key blocks per
query block, with the first key block and the diagonal block always kept.
Blocks are ranked by ``accounting.ranked_keep``."""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .accounting import CalibrationSearch, _smallest_budget, plan_sparsity, ranked_keep
from .plans import BlockPlan

__all__ = ["build_block_sparse", "calibrate_block_topk", "pooled_block_logits"]

BLOCK_SIZE = 16


def _pool_blocks(x: np.ndarray, block_size: int) -> np.ndarray:
    """Arithmetic mean over each block of rows; the last block may be short."""
    n, d = x.shape
    nb = -(-n // block_size)
    out = np.empty((nb, d))
    for b in range(nb):
        out[b] = x[b * block_size : (b + 1) * block_size].mean(axis=0)
    return out


def pooled_block_logits(
    inputs: AttentionInputs, head: int, block_size: int = BLOCK_SIZE
) -> np.ndarray:
    """[num_blocks, num_blocks] scaled dot products of pooled queries/keys."""
    g = inputs.group_map[head]
    qp = _pool_blocks(inputs.queries[head], block_size)
    kp = _pool_blocks(inputs.keys[g], block_size)
    return (qp @ kp.T) / np.sqrt(inputs.head_dim)


def build_block_sparse(
    inputs: AttentionInputs,
    top_k_blocks: int,
    block_size: int = BLOCK_SIZE,
) -> BlockPlan:
    """Select ``top_k_blocks`` causal key blocks per query block by pooled
    logit; block 0 and the diagonal block are forced and count toward k.
    Rows with fewer causal blocks than k are clamped."""
    if top_k_blocks < 2:
        raise ValueError("top_k_blocks must be >= 2 (first block plus diagonal)")
    n = inputs.seq_len
    nb = -(-n // block_size)
    clamped = top_k_blocks > nb
    ids = np.arange(nb)
    non_causal = ids[None, :] > ids[:, None]
    forced = (ids[None, :] == 0) | (ids[None, :] == ids[:, None])
    k = np.minimum(top_k_blocks, ids + 1)
    selections = []
    for head in range(inputs.num_q_heads):
        logits = pooled_block_logits(inputs, head, block_size)
        logits[non_causal] = -np.inf
        keep = ranked_keep(logits, k, forced)
        selections.append(tuple(np.flatnonzero(row) for row in keep))
    return BlockPlan(
        selections=tuple(selections),
        block_size=block_size,
        seq_len=n,
        requested_top_k=top_k_blocks,
        clamped=clamped,
    )


def calibrate_block_topk(
    inputs: AttentionInputs,
    target_sparsity: float,
    block_size: int = BLOCK_SIZE,
) -> CalibrationSearch:
    """Smallest k whose achieved sparsity is at or below the target.

    Achieved sparsity is non-increasing in k, so binary search applies.  When
    even the forced-only selection (k = 2) sits below the target, the target
    is unreachable and the minimal k is returned flagged.
    """
    nb = -(-inputs.seq_len // block_size)

    def sparsity(k: int) -> float:
        return plan_sparsity(build_block_sparse(inputs, k, block_size)).achieved_sparsity

    return _smallest_budget(2, nb, sparsity, target_sparsity)
