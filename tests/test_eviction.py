import math

import numpy as np
import pytest

from sparselab import synthetic
from sparselab.attention import window_weights_head
from sparselab.patterns import (
    FORCED_FIRST,
    FORCED_RECENT,
    ada_snapkv_compress,
    attention_recall,
    plan_sparsity,
    snapkv_compress,
)
from sparselab.patterns.eviction import smoothed_scores
from sparselab.synthetic import make_inputs

from conftest import random_inputs, tied_inputs


def snapkv_oracle_kept(inputs, kv_head, capacity, window=256, kernel=21):
    """Recompute one kv head's kept set from first principles: window
    attention averaged over the group's query heads and window rows, smoothed
    by a zero-padded moving average, forced prefix/recent included in the
    budget, ties to the lower index."""
    n = inputs.seq_len
    w = min(window, n)
    group = [h for h, g in enumerate(inputs.group_map) if g == kv_head]
    per_token = np.zeros(n)
    for h in group:
        per_token += window_weights_head(inputs, h).sum(axis=0)
    per_token /= len(group) * w
    half = kernel // 2
    padded = np.concatenate([np.zeros(half), per_token, np.zeros(half)])
    smooth = np.array(
        [padded[i : i + kernel].sum() / kernel for i in range(n)]
    )
    forced = set(range(min(FORCED_FIRST, n))) | set(range(max(0, n - FORCED_RECENT), n))
    ranked = sorted(range(n), key=lambda i: (-smooth[i], i))
    kept = set(forced)
    for i in ranked:
        if len(kept) >= capacity:
            break
        kept.add(i)
    return sorted(kept)


@pytest.mark.parametrize("make", [random_inputs, tied_inputs], ids=["random", "ties"])
def test_snapkv_matches_scoring_oracle(rng, make):
    inputs = make(rng, 400)
    plan = snapkv_compress(inputs, token_capacity=170)
    for kv in range(inputs.num_kv_heads):
        assert plan.kept[kv].tolist() == snapkv_oracle_kept(inputs, kv, 170)


def ada_snapkv_oracle_kept(inputs, capacity, min_head_fraction):
    """Per kv head, the forced tokens and then the head's best tokens up to
    the floor; then one pool over every head's remaining tokens ranked by
    (-score, kv head, token) fills the rest of num_kv * capacity."""
    n, num_kv = inputs.seq_len, inputs.num_kv_heads
    scores = [smoothed_scores(inputs, kv, "max").tolist() for kv in range(num_kv)]
    forced = set(range(min(FORCED_FIRST, n))) | set(range(max(0, n - FORCED_RECENT), n))
    floor = max(math.ceil(min_head_fraction * capacity), len(forced))
    kept = []
    for kv in range(num_kv):
        head = set(forced)
        for i in sorted(range(n), key=lambda i: (-scores[kv][i], i)):
            if len(head) >= floor:
                break
            head.add(i)
        kept.append(head)
    pool = sorted(
        (-scores[kv][i], kv, i) for kv in range(num_kv) for i in range(n) if i not in kept[kv]
    )
    for _, kv, i in pool[: num_kv * capacity - sum(len(head) for head in kept)]:
        kept[kv].add(i)
    return [sorted(head) for head in kept]


@pytest.mark.parametrize("fraction", [0.0, 0.2, 1.0])
@pytest.mark.parametrize(
    "make",
    [
        random_inputs,
        tied_inputs,
        lambda rng, n: make_inputs("planted", n, seed=2, needle_positions=(150,)),
    ],
    ids=["random", "ties", "planted"],
)
def test_ada_snapkv_matches_pooled_oracle(rng, make, fraction):
    inputs = make(rng, 400)
    plan = ada_snapkv_compress(inputs, 170, min_head_fraction=fraction)
    assert [k.tolist() for k in plan.kept] == ada_snapkv_oracle_kept(inputs, 170, fraction)


def test_forced_tokens_always_kept():
    inputs = make_inputs("clustered", 512, seed=8)
    for plan in (
        snapkv_compress(inputs, token_capacity=140),
        ada_snapkv_compress(inputs, token_capacity=140),
    ):
        for kept in plan.kept:
            ids = set(kept.tolist())
            assert set(range(FORCED_FIRST)) <= ids
            assert set(range(512 - FORCED_RECENT, 512)) <= ids


def test_capacity_floor_validation(rng):
    inputs = random_inputs(rng, 300)
    with pytest.raises(ValueError):
        snapkv_compress(inputs, token_capacity=FORCED_FIRST + FORCED_RECENT - 1)
    with pytest.raises(ValueError):
        ada_snapkv_compress(inputs, token_capacity=131)
    with pytest.raises(ValueError):
        ada_snapkv_compress(inputs, token_capacity=140, min_head_fraction=1.2)


def test_snapkv_kept_counts_exact(rng):
    inputs = random_inputs(rng, 500)
    plan = snapkv_compress(inputs, token_capacity=200)
    assert plan.kept_counts == (200, 200)
    report = plan_sparsity(plan)
    assert report.computed_cells == 400
    assert report.causal_cells == 2 * 500
    assert report.achieved_sparsity == pytest.approx(1 - 200 / 500)


def test_noop_when_capacity_covers_cache(rng):
    inputs = random_inputs(rng, 150)
    for plan in (
        snapkv_compress(inputs, token_capacity=150),
        ada_snapkv_compress(inputs, token_capacity=151),
    ):
        for kept in plan.kept:
            assert kept.tolist() == list(range(150))


def test_planted_needle_survives_eviction(monkeypatch):
    """Smoothing spreads the needle's mass across the kernel, so the free
    budget must land inside the needle's plateau rather than exactly on it."""
    needle, kernel_half = 210, 10
    forced = set(range(FORCED_FIRST)) | set(range(512 - FORCED_RECENT, 512))
    monkeypatch.setattr(synthetic, "NEEDLE_GAIN", 30.0)
    for seed in range(5):
        inputs = make_inputs("planted", 512, seed=seed, needle_positions=(needle,))
        for plan in (
            snapkv_compress(inputs, token_capacity=140),
            ada_snapkv_compress(inputs, token_capacity=140),
        ):
            # the pooled variant may hand every spare slot to one kv head
            free = [
                i for kept in plan.kept for i in kept.tolist() if i not in forced
            ]
            assert free
            assert all(abs(i - needle) <= kernel_half for i in free)


def test_ada_total_budget_and_floor():
    inputs = make_inputs("clustered", 512, seed=3)
    capacity = 160
    plan = ada_snapkv_compress(inputs, capacity, min_head_fraction=0.4)
    counts = plan.kept_counts
    assert sum(counts) == inputs.num_kv_heads * capacity
    floor = max(int(np.ceil(0.4 * capacity)), FORCED_FIRST + FORCED_RECENT)
    assert all(c >= floor for c in counts)


def test_ada_floor_one_equals_snapkv_counts():
    for seed in range(5):
        inputs = make_inputs("clustered", 512, seed=seed)
        uniform = snapkv_compress(inputs, token_capacity=180)
        adaptive = ada_snapkv_compress(inputs, 180, min_head_fraction=1.0)
        assert adaptive.kept_counts == uniform.kept_counts


def test_recall_monotone_in_capacity():
    for seed in range(6):
        inputs = make_inputs("clustered", 512, seed=seed)
        for build in (
            lambda c: snapkv_compress(inputs, c),
            lambda c: ada_snapkv_compress(inputs, c),
        ):
            recalls = [
                attention_recall(build(c), inputs) for c in (140, 200, 300, 420, 512)
            ]
            assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))


def test_determinism():
    a = snapkv_compress(make_inputs("clustered", 400, seed=7), 180)
    b = snapkv_compress(make_inputs("clustered", 400, seed=7), 180)
    for ka, kb in zip(a.kept, b.kept):
        assert np.array_equal(ka, kb)
