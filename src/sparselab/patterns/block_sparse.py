"""Block-sparse prefill: mean-pooled query/key blocks, top-k key blocks per
query block, with the first key block and the diagonal block always kept.

Estimation is ``block_rank``, each causal key block's place in its query
block's ``accounting.rank`` order, kept once per input by
``AttentionInputs.cached``; a build at any k is one threshold on it."""

from __future__ import annotations

import numpy as np

from ..attention import AttentionInputs
from .accounting import rank
from .plans import BLOCK_SIZE, BlockPlan, span_lengths

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
    return sums / span_lengths(np.arange(nb), n)[:, None]


def block_rank(inputs: AttentionInputs) -> np.ndarray:
    """[num_q_heads, nb, nb] place of each causal key block in its query
    block's order, of the smallest signed integer type that holds nb.

    Query block b orders its key blocks 0..b by ``accounting.rank`` of the
    scaled dot products of pooled queries and keys, with block 0 and the
    diagonal forced.  Non-causal cells hold nb, so the first k blocks of
    every query block are ``rank < k``.  Logits are taken ``ROW_GROUP``
    query blocks at a time over their causal prefix.
    """
    n, heads = inputs.seq_len, inputs.num_q_heads
    nb = -(-n // BLOCK_SIZE)
    qp = _pool_blocks(inputs.queries)
    kp = _pool_blocks(inputs.keys)[list(inputs.group_map)].transpose(0, 2, 1)
    ids = np.arange(nb)
    out = np.full((heads, nb, nb), nb, dtype=np.min_scalar_type(-nb - 1))
    for lo in range(0, nb, ROW_GROUP):
        hi = min(lo + ROW_GROUP, nb)
        rows, cols = ids[lo:hi, None], ids[None, :hi]
        causal = cols <= rows
        logits = qp[:, lo:hi] @ kp[:, :, :hi]
        logits /= np.sqrt(inputs.head_dim)
        np.copyto(logits, -np.inf, where=~causal)
        places = rank(logits, (cols == 0) | (cols == rows))
        np.copyto(out[:, lo:hi, :hi], places, where=causal)
    return out


def build_block_sparse(inputs: AttentionInputs, top_k_blocks: int) -> BlockPlan:
    """Select ``top_k_blocks`` causal key blocks per query block by pooled
    logit; block 0 and the diagonal block are forced and count toward k.
    Rows with fewer causal blocks than k are clamped: a k of nb or more
    keeps every causal block, whose ranks lie below nb.

    The plan is a threshold on the inputs' cached ``block_rank``
    (``BlockPlan._threshold``), so its causality and cell count follow from
    the rank's layout and its budget; no cell is checked or counted."""
    if top_k_blocks < 2:
        raise ValueError("top_k_blocks must be >= 2 (first block plus diagonal)")
    return BlockPlan._threshold(inputs.cached(block_rank), top_k_blocks, inputs.seq_len)
