import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselab.attention import AttentionInputs
from sparselab.patterns import (
    BlockPlan,
    attention_recall,
    block_budget_cells,
    block_sparse,
    build_block_sparse,
    plan_sparsity,
    smallest_budget,
)
from sparselab.patterns.block_sparse import ROW_GROUP, block_rank
from sparselab.synthetic import make_inputs

from conftest import random_inputs, smallest_by_scan, tied_inputs


def pooled_oracle_selection(inputs, head, top_k, block_size=16):
    """Re-derive one head's selection from scratch: mean-pool rows of Q and K,
    score causal block pairs by scaled dot product, keep top-k with block 0
    and the diagonal forced, ties toward the lower block index."""
    g = inputs.group_map[head]
    n = inputs.seq_len
    nb = -(-n // block_size)
    sel = []
    for b in range(nb):
        qbar = inputs.queries[head][b * block_size : (b + 1) * block_size].mean(axis=0)
        scores = []
        for c in range(b + 1):
            kbar = inputs.keys[g][c * block_size : (c + 1) * block_size].mean(axis=0)
            scores.append(float(qbar @ kbar) / np.sqrt(inputs.head_dim))
        k_eff = min(top_k, b + 1)
        picked = {0, b}
        ranked = sorted(range(b + 1), key=lambda c: (-scores[c], c))
        for c in ranked:
            if len(picked) >= k_eff:
                break
            picked.add(c)
        sel.append(sorted(picked))
    return sel


@pytest.mark.parametrize("make", [random_inputs, tied_inputs], ids=["random", "ties"])
def test_selection_matches_pooled_oracle(rng, make):
    inputs = make(rng, 200)
    plan = build_block_sparse(inputs, top_k_blocks=4)
    for head in range(inputs.num_q_heads):
        want = pooled_oracle_selection(inputs, head, 4)
        got = [np.flatnonzero(row).tolist() for row in plan.selections[head]]
        assert got == want


def test_forced_blocks_and_counts(rng):
    inputs = random_inputs(rng, 256)
    plan = build_block_sparse(inputs, top_k_blocks=5)
    for head in plan.selections:
        for b, row in enumerate(head):
            ids = np.flatnonzero(row).tolist()
            assert 0 in ids
            assert b in ids
            assert len(ids) == min(5, b + 1)


def test_planted_block_is_selected():
    # mean pooling divides the needle's logit boost by the block size, so the
    # gain must clear the pooled noise floor for a deterministic pick
    needle = 133
    for seed in range(5):
        inputs = make_inputs(
            "planted", 512, seed=seed, needle_positions=(needle,), needle_gain=40.0
        )
        plan = build_block_sparse(inputs, top_k_blocks=3)
        target_block = needle // 16
        for head in plan.selections:
            for b in range(20, 32):
                assert target_block in np.flatnonzero(head[b]).tolist()


def test_clamping_when_budget_exceeds_blocks(rng):
    inputs = random_inputs(rng, 64)
    plan = build_block_sparse(inputs, top_k_blocks=99)
    report = plan_sparsity(plan)
    assert report.computed_cells == report.causal_cells
    assert attention_recall(plan, inputs) == pytest.approx(1.0, abs=1e-12)


def test_top_k_validation(rng):
    inputs = random_inputs(rng, 64)
    with pytest.raises(ValueError):
        build_block_sparse(inputs, top_k_blocks=1)


def test_block_plan_validation():
    # 40 tokens make three blocks, the last 8 tokens long
    causal = np.tril(np.ones((1, 3, 3), dtype=bool))
    ahead = causal.copy()
    ahead[0, 1, 2] = True
    empty = causal.copy()
    empty[0, 2] = False
    with pytest.raises(ValueError, match="head 0 query block 1 selects non-causal key block 2"):
        BlockPlan(ahead, seq_len=40)
    with pytest.raises(ValueError, match="head 0 query block 2 selects no key block"):
        BlockPlan(empty, seq_len=40)
    for bad in (causal.astype(np.int8), causal[:, :, :2], causal[0]):
        with pytest.raises(ValueError):
            BlockPlan(bad, seq_len=40)
    with pytest.raises(ValueError, match="4, 4"):
        BlockPlan(causal, seq_len=49)
    plan = BlockPlan(causal.repeat(2, axis=0), seq_len=40)
    assert (plan.num_heads, plan.num_query_blocks, plan.block_size) == (2, 3, 16)
    assert plan_sparsity(plan).computed_cells == 2 * 40 * 41 // 2


def test_partial_final_block_accounting(rng):
    # 200 = 12 * 16 + 8 leaves a short final block
    inputs = random_inputs(rng, 200)
    plan = build_block_sparse(inputs, top_k_blocks=3)
    cells = plan_sparsity(plan).computed_cells
    brute = 0
    for head in range(inputs.num_q_heads):
        m = np.zeros((200, 200), dtype=bool)
        for b, row in enumerate(plan.selections[head]):
            for c in np.flatnonzero(row).tolist():
                m[b * 16 : (b + 1) * 16, c * 16 : (c + 1) * 16] = True
        brute += int((m & np.tril(np.ones((200, 200), dtype=bool))).sum())
    assert cells == brute


def test_budget_cells_independent_of_selection(rng):
    inputs = random_inputs(rng, 192)
    for k in (2, 3, 6):
        plan = build_block_sparse(inputs, top_k_blocks=k)
        per_head = plan_sparsity(plan).computed_cells // inputs.num_q_heads
        assert per_head == block_budget_cells(192, k)


def test_recall_monotone_in_top_k():
    for seed in range(6):
        inputs = make_inputs("clustered", 512, seed=seed)
        recalls = [
            attention_recall(build_block_sparse(inputs, k), inputs)
            for k in (2, 4, 8, 16, 32)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))


def test_determinism(rng):
    a = build_block_sparse(make_inputs("clustered", 256, seed=5), 4)
    b = build_block_sparse(make_inputs("clustered", 256, seed=5), 4)
    assert np.array_equal(a.selections, b.selections)


def pooled_means(x, block_size=16):
    """Per-block mean of the rows of one head's [n, d] array."""
    return np.stack([x[i : i + block_size].mean(axis=0) for i in range(0, len(x), block_size)])


def test_pooled_blocks_are_block_means(rng):
    # 100 = 6 * 16 + 4 leaves a short final block
    inputs = random_inputs(rng, 100)
    for x in (inputs.queries, inputs.keys):
        pooled = block_sparse._pool_blocks(x)
        assert pooled.shape == (x.shape[0], 7, x.shape[2])
        for head in range(x.shape[0]):
            assert np.array_equal(pooled[head], pooled_means(x[head]))


def stable_sort_selection(inputs, top_k):
    """The block rule by one stable argsort over every key block of every
    query block: per-head pooled logits, non-causal blocks at -inf, block 0
    and the diagonal forced, min(k, b + 1) blocks kept, ties to the lower
    block."""
    nb = -(-inputs.seq_len // 16)
    ids = np.arange(nb)
    logits = np.stack(
        [
            (pooled_means(inputs.queries[h]) @ pooled_means(inputs.keys[g]).T)
            / np.sqrt(inputs.head_dim)
            for h, g in enumerate(inputs.group_map)
        ]
    )
    logits[:, ids[None, :] > ids[:, None]] = -np.inf
    forced = (ids[None, :] == 0) | (ids[None, :] == ids[:, None])
    k = np.minimum(top_k, ids + 1)
    order = np.argsort(np.where(forced, -np.inf, -logits), axis=-1, kind="stable")
    keep = np.empty(logits.shape, dtype=bool)
    np.put_along_axis(keep, order, np.arange(nb) < k[:, None], axis=-1)
    return keep


# the last length's block rank fills in four row groups, the last one short
STABLE_SORT_LENGTHS = (1, 15, 16, 17, 200, 16 * (3 * ROW_GROUP + 5) + 7)


@pytest.mark.parametrize("heads", [(1, 1), (2, 1), (4, 2), (4, 4)], ids=lambda h: "%d:%d" % h)
@pytest.mark.parametrize("make", [random_inputs, tied_inputs], ids=["random", "ties"])
def test_selection_matches_stable_sort_reference(make, heads):
    rng = np.random.default_rng(17)
    assert 3 * ROW_GROUP < -(-STABLE_SORT_LENGTHS[-1] // 16) < 4 * ROW_GROUP
    for n in STABLE_SORT_LENGTHS:
        inputs = make(rng, n, num_q_heads=heads[0], num_kv_heads=heads[1])
        nb = -(-n // 16)
        for k in sorted({2, nb - 1, nb, nb + 4} - {0, 1}):
            plan = build_block_sparse(inputs, k)
            assert np.array_equal(plan.selections, stable_sort_selection(inputs, k)), (n, k)


def test_calibration_search(rng):
    inputs = make_inputs("clustered", 1024, seed=0)
    search = smallest_budget("block_sparse", inputs, 0.8)
    assert search.target_reachable
    achieved = plan_sparsity(build_block_sparse(inputs, search.count)).achieved_sparsity
    assert achieved <= 0.8
    if search.count > 2:
        previous = plan_sparsity(
            build_block_sparse(inputs, search.count - 1)
        ).achieved_sparsity
        assert previous > 0.8


@pytest.mark.parametrize("n", [1, 17, 200, 1024, 4100])
def test_calibration_follows_the_build_without_building(rng, n):
    inputs = random_inputs(rng, n)
    targets = (0.0, 0.3, 0.8, 0.95)
    want = smallest_by_scan("block_sparse", inputs, targets)
    # the same arrays without the block rank the builds above filled
    fresh = AttentionInputs.from_arrays(inputs.queries, inputs.keys, inputs.values)
    assert [smallest_budget("block_sparse", fresh, target) for target in targets] == want


def repeated_key_blocks(rng, n):
    """Random queries against one block of keys repeated along the sequence:
    every full key block pools to the same mean, so a query block's pooled
    logits over them tie exactly."""
    inputs = random_inputs(rng, n)
    keys = np.tile(inputs.keys[:, :16], (1, -(-n // 16), 1))[:, :n]
    return AttentionInputs.from_arrays(inputs.queries, keys, inputs.values)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    make=st.sampled_from([random_inputs, repeated_key_blocks]),
)
@example(n=1, seed=0, make=random_inputs)
@example(n=15, seed=0, make=random_inputs)
@example(n=16, seed=0, make=random_inputs)
@example(n=17, seed=0, make=random_inputs)
@example(n=255, seed=0, make=random_inputs)
@example(n=256, seed=0, make=random_inputs)
@example(n=257, seed=0, make=random_inputs)
@example(n=257, seed=0, make=repeated_key_blocks)
def test_every_budget_is_a_threshold_of_one_rank(n, seed, make):
    """At every k the plan is the stable-sort reference, and a larger k
    keeps every block a smaller one keeps."""
    inputs = make(np.random.default_rng(seed), n)
    nb = -(-n // 16)
    previous = None
    for k in range(2, nb + 1):
        selections = build_block_sparse(inputs, k).selections
        assert np.array_equal(selections, stable_sort_selection(inputs, k)), k
        if previous is not None:
            assert not (previous & ~selections).any(), k
        previous = selections


def test_exact_ties_rank_to_the_lower_block():
    """Repeated key blocks tie every interior block of a query block, so the
    rank keeps them in block order after block 0 and the diagonal."""
    inputs = repeated_key_blocks(np.random.default_rng(3), 16 * 40)
    nb = 40
    ids = np.arange(nb)
    rank = inputs.cached(block_rank)
    assert rank.dtype == np.int8
    for b in range(1, nb):
        want = np.full(nb, nb)
        want[0], want[b], want[1:b] = 0, 1, ids[1:b] + 1
        assert np.array_equal(rank[:, b], np.broadcast_to(want, (inputs.num_q_heads, nb)))


def test_block_rank_fills_once_per_input(monkeypatch):
    """Builds at several budgets pool the input's blocks once; the rank is
    read-only, and a fresh input fills its own."""
    pooled = []
    real = block_sparse._pool_blocks

    def counted(x):
        pooled.append(x.shape)
        return real(x)

    monkeypatch.setattr(block_sparse, "_pool_blocks", counted)
    inputs = make_inputs("clustered", 2048, seed=0)
    for k in (8, 38, 53):
        build_block_sparse(inputs, k)
    assert pooled == [inputs.queries.shape, inputs.keys.shape]
    rank = inputs.cached(block_rank)
    assert rank.dtype == np.int16  # 128 query blocks: the sentinel 128 needs int16
    with pytest.raises(ValueError):
        rank[0, 0, 0] = 1
    fresh = AttentionInputs.from_arrays(inputs.queries, inputs.keys, inputs.values)
    build_block_sparse(fresh, 8)
    assert len(pooled) == 4
    assert np.array_equal(fresh.cached(block_rank), rank)


# sha256 of the selections of every build in the test below, pinned from the
# builder that pooled and ranked the block logits anew on every call
BLOCK_PLANS_DIGEST = "57ac893ba722701537d9b5ace12d111b3dbe17529a39aac39fb1fa2b42218bed"


def test_block_plans_byte_identical():
    digest = hashlib.sha256()
    for n in (300, 2048, 16384):
        for kind in ("planted", "clustered", "uniform"):
            for seed in (0, 7):
                inputs = make_inputs(kind, n, seed=seed)
                # the budgets oracle_2k and select_16k build at
                for k in (8, 38, 53, 108, 300):
                    digest.update(build_block_sparse(inputs, k).selections.tobytes())
    assert digest.hexdigest() == BLOCK_PLANS_DIGEST
