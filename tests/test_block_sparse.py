import numpy as np
import pytest

from sparselab.patterns import (
    BlockPlan,
    attention_recall,
    block_budget_cells,
    block_plan_cells,
    build_block_sparse,
    calibrate_block_topk,
    plan_sparsity,
)
from sparselab.patterns import block_sparse
from sparselab.patterns.accounting import _smallest_budget
from sparselab.patterns.block_sparse import ROW_GROUP, pooled_block_logits
from sparselab.synthetic import make_inputs

from conftest import random_inputs, tied_inputs


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
    assert block_plan_cells(plan) == 2 * 40 * 41 // 2


def test_partial_final_block_accounting(rng):
    # 200 = 12 * 16 + 8 leaves a short final block
    inputs = random_inputs(rng, 200)
    plan = build_block_sparse(inputs, top_k_blocks=3)
    cells = block_plan_cells(plan)
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
        per_head = block_plan_cells(plan) // inputs.num_q_heads
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


def test_pooled_logits_shape(rng):
    inputs = random_inputs(rng, 100)
    logits = pooled_block_logits(inputs)
    assert logits.shape == (4, 7, 7)
    for h, g in enumerate(inputs.group_map):
        qp, kp = pooled_means(inputs.queries[h]), pooled_means(inputs.keys[g])
        assert np.array_equal(logits[h], (qp @ kp.T) / np.sqrt(inputs.head_dim))


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


# the last length ranks query blocks 2..nb-1 at k = 2: four row groups
STABLE_SORT_LENGTHS = (1, 15, 16, 17, 200, 16 * (3 * ROW_GROUP + 5) + 7)


@pytest.mark.parametrize("heads", [(1, 1), (2, 1), (4, 2), (4, 4)], ids=lambda h: "%d:%d" % h)
@pytest.mark.parametrize("make", [random_inputs, tied_inputs], ids=["random", "ties"])
def test_selection_matches_stable_sort_reference(make, heads):
    rng = np.random.default_rng(17)
    assert -(-STABLE_SORT_LENGTHS[-1] // 16) - 2 > 2 * ROW_GROUP
    for n in STABLE_SORT_LENGTHS:
        inputs = make(rng, n, num_q_heads=heads[0], num_kv_heads=heads[1])
        nb = -(-n // 16)
        for k in sorted({2, nb - 1, nb, nb + 4} - {0, 1}):
            plan = build_block_sparse(inputs, k)
            assert np.array_equal(plan.selections, stable_sort_selection(inputs, k)), (n, k)


def test_calibration_search(rng):
    inputs = make_inputs("clustered", 1024, seed=0)
    search = calibrate_block_topk(inputs, 0.8)
    assert search.target_reachable
    achieved = plan_sparsity(build_block_sparse(inputs, search.count)).achieved_sparsity
    assert achieved <= 0.8
    if search.count > 2:
        previous = plan_sparsity(
            build_block_sparse(inputs, search.count - 1)
        ).achieved_sparsity
        assert previous > 0.8


@pytest.mark.parametrize("n", [1, 17, 200, 1024, 4100])
def test_calibration_follows_the_build_without_building(rng, monkeypatch, n):
    inputs = random_inputs(rng, n)
    nb = -(-n // 16)
    targets = (0.0, 0.3, 0.8, 0.95)

    def built(k):
        return plan_sparsity(build_block_sparse(inputs, k)).achieved_sparsity

    want = [_smallest_budget(2, nb, built, target) for target in targets]

    def no_build(*args):
        raise AssertionError("calibration built a plan")

    monkeypatch.setattr(block_sparse, "build_block_sparse", no_build)
    monkeypatch.setattr(block_sparse, "ranked_keep", no_build)
    assert [calibrate_block_topk(inputs, target) for target in targets] == want
