"""Block-sparse prefill: mean-pooled query/key blocks, top-k key blocks per
query block, with the first key block and the diagonal block always kept.

Estimation is ``block_rank``, each causal key block's place in its query
block's order (``accounting.ranked_keep``'s), kept once per input by
``AttentionInputs.cached``; a build at any k is one threshold on it."""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .plans import BLOCK_SIZE, BlockPlan

__all__ = ["build_block_sparse", "block_rank"]

# Query blocks whose pooled logits one step of the block-rank fill takes,
# each group over its causal prefix of key blocks only.
ROW_GROUP = 64


def _pool_blocks(x: np.ndarray) -> np.ndarray:
    """Arithmetic mean over each ``BLOCK_SIZE``-row block of every head of
    ``x`` ([heads, n, d]); the last block may be short.

    Each block's rows are summed in order, so the means equal a per-block
    ``mean(axis=0)`` bit for bit."""
    heads, n, d = x.shape
    full = n // BLOCK_SIZE
    nb = -(-n // BLOCK_SIZE)
    sums = np.empty((heads, nb, d))
    sums[:, :full] = x[:, : full * BLOCK_SIZE].reshape(heads, full, BLOCK_SIZE, d).sum(axis=2)
    if nb > full:
        sums[:, full] = x[:, full * BLOCK_SIZE :].sum(axis=1)
    return sums / np.minimum(BLOCK_SIZE, n - BLOCK_SIZE * np.arange(nb))[:, None]


def block_rank(inputs: AttentionInputs) -> np.ndarray:
    """Read-only [num_q_heads, nb, nb] place of each causal key block in its
    query block's order, of the smallest signed integer type that holds nb.

    Query block b orders its key blocks 0..b as block 0, then block b, then
    the rest by descending scaled dot product of pooled queries and keys,
    ties to the lower block: the order of ``accounting.ranked_keep`` with
    block 0 and the diagonal forced.  Non-causal cells hold nb, so the first
    k blocks of every query block are ``rank < k``.  Logits are taken
    ``ROW_GROUP`` query blocks at a time over their causal prefix; rows whose
    finite scores tie are re-sorted stably, the rest by the default sort.
    """
    n, heads = inputs.seq_len, inputs.num_q_heads
    nb = -(-n // BLOCK_SIZE)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if np.iinfo(t).max >= nb)
    qp = _pool_blocks(inputs.queries)
    kp = _pool_blocks(inputs.keys)[list(inputs.group_map)].transpose(0, 2, 1)
    ids = np.arange(nb)
    rank = np.full((heads, nb, nb), nb, dtype=dtype)
    rank[:, ids[1:], ids[1:]] = 1
    rank[:, :, 0] = 0
    # the blocks between block 0 and the diagonal take the places from 2 on;
    # places past a row's last such block are discarded, so they may clip at nb
    places = np.minimum(ids + 2, nb).astype(dtype)
    for lo in range(0, nb, ROW_GROUP):
        hi = min(lo + ROW_GROUP, nb)
        interior = (ids[None, :hi] > 0) & (ids[None, :hi] < ids[lo:hi, None])
        # ascending key is rank order, with every other block sorted last
        key = qp[:, lo:hi] @ kp[:, :, :hi]
        key /= -np.sqrt(inputs.head_dim)
        np.copyto(key, np.inf, where=~interior)
        order = np.argsort(key, axis=-1)
        ranked = np.take_along_axis(key, order, axis=-1)
        tied = ((ranked[..., 1:] == ranked[..., :-1]) & (ranked[..., 1:] < np.inf)).any(axis=-1)
        if tied.any():
            order[tied] = np.argsort(key[tied], axis=-1, kind="stable")
        group = np.empty(key.shape, dtype=dtype)
        np.put_along_axis(group, order, places[:hi], axis=-1)
        np.copyto(rank[:, lo:hi, :hi], group, where=interior)
    rank.flags.writeable = False
    return rank


def build_block_sparse(inputs: AttentionInputs, top_k_blocks: int) -> BlockPlan:
    """Select ``top_k_blocks`` causal key blocks per query block by pooled
    logit; block 0 and the diagonal block are forced and count toward k.
    Rows with fewer causal blocks than k are clamped: a k of nb or more
    keeps every causal block, whose ranks lie below nb."""
    if top_k_blocks < 2:
        raise ValueError("top_k_blocks must be >= 2 (first block plus diagonal)")
    n = inputs.seq_len
    k = min(top_k_blocks, -(-n // BLOCK_SIZE))
    return BlockPlan(selections=inputs.cached(block_rank) < k, seq_len=n)
