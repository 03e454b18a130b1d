import numpy as np
import pytest

from sparselab.attention import AttentionInputs, decode_step
from sparselab.patterns import (
    PAGE_SIZE,
    accounting,
    attention_recall,
    page_plan_rows,
    plan_sparsity,
    quest,
    quest_index,
    quest_plan,
    smallest_budget,
)
from sparselab.patterns.quest import page_upper_bounds
from sparselab.synthetic import make_inputs

from conftest import quest_at, random_inputs, tied_inputs


def test_index_matches_naive_min_max(rng):
    keys = rng.normal(size=(2, 100, 8))
    index = quest_index(keys)
    assert index.num_pages == 7
    for g in range(2):
        for p in range(7):
            chunk = keys[g, p * 16 : (p + 1) * 16]
            assert np.array_equal(index.mins[g][p], chunk.min(axis=0))
            assert np.array_equal(index.maxs[g][p], chunk.max(axis=0))


@pytest.mark.parametrize("n", [1, 15, 16, 17, 300])
def test_index_equals_reduceat_min_max(rng, n):
    """Whole pages and a partial last page, against np.minimum/maximum.reduceat."""
    keys = rng.normal(size=(2, n, 8))
    index = quest_index(keys)
    starts = np.arange(0, n, PAGE_SIZE)
    assert np.array_equal(index.mins, np.minimum.reduceat(keys, starts, axis=1))
    assert np.array_equal(index.maxs, np.maximum.reduceat(keys, starts, axis=1))


def test_page_score_upper_bounds_every_dot_product(rng):
    """Exhaustive at n=256: for every page, the min/max bound dominates the
    true maximum query-key dot product inside the page."""
    inputs = random_inputs(rng, 256)
    index = quest_index(np.asarray(inputs.keys))
    for h in range(inputs.num_q_heads):
        g = inputs.group_map[h]
        q = inputs.queries[h][-1]
        bounds = page_upper_bounds(q, index.mins[g], index.maxs[g])
        for p in range(index.num_pages):
            lo, hi = p * PAGE_SIZE, (p + 1) * PAGE_SIZE
            exact = max(float(q @ k) for k in inputs.keys[g][lo:hi])
            assert bounds[p] >= exact - 1e-12


@pytest.mark.parametrize("make", [random_inputs, tied_inputs], ids=["random", "ties"])
def test_selection_matches_score_oracle(rng, make):
    inputs = make(rng, 320)
    budget = 96
    plan = quest_plan(inputs, budget)
    index = plan.index
    current = plan.position // PAGE_SIZE
    for g in range(inputs.num_kv_heads):
        scores = np.full(index.num_pages, -np.inf)
        for h, head_group in enumerate(inputs.group_map):
            if head_group != g:
                continue
            q = inputs.queries[h][plan.position]
            scores = np.maximum(scores, page_upper_bounds(q, index.mins[g], index.maxs[g]))
        ranked = sorted(range(index.num_pages), key=lambda p: (-scores[p], p))
        want = {current}
        for p in ranked:
            if len(want) >= budget // PAGE_SIZE:
                break
            want.add(p)
        assert plan.selected[g].tolist() == sorted(want)


def test_current_page_always_selected(rng):
    inputs = random_inputs(rng, 256)
    for position in (0, 15, 16, 100, 255):
        plan = quest_at(inputs, 32, position)
        for pages in plan.selected:
            assert position // PAGE_SIZE in pages.tolist()


def test_budget_covering_cache_selects_all_pages(rng):
    inputs = random_inputs(rng, 250)
    plan = quest_plan(inputs, 250)
    for pages in plan.selected:
        assert pages.tolist() == list(range(16))
    report = plan_sparsity(plan)
    assert report.computed_cells == report.causal_cells
    assert attention_recall(plan, inputs) == pytest.approx(1.0, abs=1e-12)


def test_budget_floor_division(rng):
    inputs = random_inputs(rng, 320)
    plan = quest_plan(inputs, 47)  # floor(47/16) = 2 pages
    for pages in plan.selected:
        assert pages.size == 2
    with pytest.raises(ValueError):
        quest_plan(inputs, 15)


def test_partial_cache_position(rng):
    inputs = random_inputs(rng, 256)
    plan = quest_at(inputs, 64, 70)
    assert plan.position == 70
    for pages in plan.selected:
        assert pages[-1] <= 70 // PAGE_SIZE
    report = plan_sparsity(plan)
    assert report.causal_cells == inputs.num_kv_heads * 71


def test_decode_row_equality(rng):
    """Reading the selected pages through decode_step equals dense attention
    restricted to exactly those tokens."""
    inputs = random_inputs(rng, 256)
    plan = quest_plan(inputs, 64)
    rows = page_plan_rows(plan, inputs.group_map)
    out = decode_step(inputs, rows)
    scale = 1.0 / np.sqrt(inputs.head_dim)
    for h in range(inputs.num_q_heads):
        g = inputs.group_map[h]
        idx = rows[h]
        logits = (inputs.keys[g][idx] @ inputs.queries[h][-1]) * scale
        w = np.exp(logits - logits.max())
        w /= w.sum()
        want = w @ inputs.values[g][idx]
        assert np.abs(out.output[h, 0] - want).max() <= 1e-7


def test_recall_monotone_in_budget():
    for seed in range(6):
        inputs = make_inputs("clustered", 512, seed=seed)
        recalls = [
            attention_recall(quest_plan(inputs, b), inputs)
            for b in (32, 64, 128, 256, 512)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))


def test_planted_needle_page_selected():
    needle = 330
    for seed in range(5):
        inputs = make_inputs(
            "planted", 512, seed=seed, needle_positions=(needle,), needle_gain=30.0
        )
        plan = quest_plan(inputs, 64)
        for pages in plan.selected:
            assert needle // PAGE_SIZE in pages.tolist()


@pytest.mark.parametrize("position", [15, 70, 127])
def test_full_recall_includes_dense_row_mass(rng, position):
    """Recall of a page plan is the covered share of its decode row's dense
    softmax mass, computed from that row alone on fresh inputs: the causal
    log-sum-exp of every row stays uncached.  The all-pages plan covers
    everything."""
    inputs = random_inputs(rng, 128)
    partial = quest_at(inputs, 32, position)
    rows = page_plan_rows(partial, inputs.group_map)
    scale = 1.0 / np.sqrt(inputs.head_dim)
    want = []
    for h, tokens in enumerate(rows):
        g = inputs.group_map[h]
        logits = (inputs.keys[g][: position + 1] @ inputs.queries[h][position]) * scale
        w = np.exp(logits - logits.max())
        want.append(w[tokens].sum() / w.sum())
    assert attention_recall(partial, inputs) == pytest.approx(float(np.mean(want)), abs=1e-12)
    assert accounting.causal_lse not in inputs._stages
    full = quest_at(inputs, 128, position)
    assert attention_recall(full, inputs) == pytest.approx(1.0, abs=1e-12)


def test_determinism():
    a = quest_plan(make_inputs("clustered", 320, seed=4), 64)
    b = quest_plan(make_inputs("clustered", 320, seed=4), 64)
    for pa, pb in zip(a.selected, b.selected):
        assert np.array_equal(pa, pb)


def test_page_index_fills_once_per_input(monkeypatch):
    """Builds at several budgets and a budget search index the keys once;
    the cached index is read-only, and a fresh input fills its own."""
    indexed = []
    real = quest.quest_index

    def counted(keys):
        indexed.append(keys.shape)
        return real(keys)

    monkeypatch.setattr(quest, "quest_index", counted)
    inputs = make_inputs("clustered", 2048, seed=0)
    plans = [quest_plan(inputs, budget) for budget in (64, 256, 1024)]
    smallest_budget("quest", inputs, 0.8)
    assert indexed == [inputs.keys.shape]
    index = plans[0].index
    assert all(plan.index is index for plan in plans)
    with pytest.raises(ValueError):
        index.mins[0, 0, 0] = 1.0
    fresh = AttentionInputs.from_arrays(inputs.queries, inputs.keys, inputs.values)
    assert np.array_equal(quest_plan(fresh, 64).index.maxs, index.maxs)
    assert len(indexed) == 2
