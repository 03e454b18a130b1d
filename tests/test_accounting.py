import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselab.patterns import (
    BLOCK_SIZE,
    PAGE_SIZE,
    BlockPlan,
    EvictionPlan,
    FlexPrefillConfig,
    FORCED_FIRST,
    FORCED_LOCAL,
    FORCED_PREFIX,
    FORCED_RECENT,
    ORACLE_LIMIT,
    PagePlan,
    VerticalSlashPlan,
    accounting,
    ada_snapkv_compress,
    attention_recall,
    build_block_sparse,
    build_flexprefill,
    build_plan,
    build_vertical_slash,
    calibration_entries,
    lookup,
    page_plan_rows,
    plan_sparsity,
    predicted_sparsity,
    quest_index,
    quest_plan,
    smallest_budget,
    snapkv_compress,
    to_cell_mask,
    vertical_slash_cells,
)
from sparselab import attention
from sparselab.patterns.accounting import rank
from sparselab.patterns.calibration import METHOD_NAMES, METHODS, check_params
from sparselab.synthetic import make_inputs

from conftest import built_sparsity, quest_at, random_inputs, smallest_by_scan, tile_recalls


def brute_force_vs_cells(verticals, slashes, n):
    cells = set()
    for j in verticals:
        for i in range(j, n):
            cells.add((i, j))
    for o in slashes:
        for i in range(o, n):
            cells.add((i, i - o))
    return len(cells)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 160),
)
def test_vertical_slash_cells_vs_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    kv = int(rng.integers(1, n + 1))
    ks = int(rng.integers(1, n + 1))
    v = np.sort(rng.choice(n, size=kv, replace=False))
    s = np.sort(rng.choice(n, size=ks, replace=False))
    assert vertical_slash_cells(v, s, n) == brute_force_vs_cells(v.tolist(), s.tolist(), n)


def brute_force_block_cells(selections, n):
    """Causal cells of a block bitmap, counted one query row at a time."""
    total = 0
    for head in selections:
        for b, c in zip(*np.nonzero(head)):
            for i in range(b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, n)):
                total += len(range(c * BLOCK_SIZE, min((c + 1) * BLOCK_SIZE, i + 1)))
    return total


def random_block_bitmap(rng, heads, n, diagonal):
    """A random causal block bitmap with every diagonal block kept or, where
    the row has another block, every one dropped."""
    nb = -(-n // BLOCK_SIZE)
    ids = np.arange(nb)
    sel = np.tril(rng.random((heads, nb, nb)) < 0.4)
    sel[:, ids, ids] = diagonal
    sel[:, :, 0] |= ~sel.any(axis=2)
    return sel


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 200), kv=st.sampled_from([1, 2]))
@example(seed=0, n=1, kv=1)
@example(seed=1, n=FORCED_LOCAL, kv=2)
@example(seed=2, n=FORCED_RECENT - BLOCK_SIZE // 2, kv=1)
@example(seed=3, n=200, kv=2)
def test_plan_sparsity_matches_mask_cell_count(seed, n, kv):
    """Closed-form cell counts against the stacked bitmap, at sizes below
    the forced windows and with a partial last block.  Hand-built block
    bitmaps, with and without their diagonal blocks, are also counted by
    plain enumeration."""
    rng = np.random.default_rng(seed)
    inputs = random_inputs(rng, n, num_q_heads=2 * kv, num_kv_heads=kv)
    prefill = [build_block_sparse(inputs, int(rng.integers(2, 8)))]
    if n >= FORCED_LOCAL:
        prefill.append(
            build_vertical_slash(
                inputs,
                int(rng.integers(FORCED_PREFIX, n + 1)),
                int(rng.integers(FORCED_LOCAL, n + 1)),
            )
        )
    for diagonal in (True, False):
        plan = BlockPlan(random_block_bitmap(rng, 2 * kv, n, diagonal), seq_len=n)
        assert plan_sparsity(plan).computed_cells == brute_force_block_cells(plan.selections, n)
        prefill.append(plan)
    for plan in prefill:
        report = plan_sparsity(plan)
        assert report.computed_cells == to_cell_mask(plan, inputs.group_map).num_cells()
        assert report.causal_cells == plan.num_heads * n * (n + 1) // 2
    capacity = int(rng.integers(FORCED_FIRST + FORCED_RECENT, 220))
    for plan in (snapkv_compress(inputs, capacity), ada_snapkv_compress(inputs, capacity)):
        mask = to_cell_mask(plan, group_map=inputs.group_map)
        last_row = sum(mask.row(h, n - 1).size for h in range(mask.num_heads))
        # each kv head's kept set is read by the two query heads of its group
        assert last_row == 2 * plan_sparsity(plan).computed_cells


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 200), kv=st.sampled_from([1, 2]))
@example(seed=0, n=1, kv=1)
@example(seed=1, n=15, kv=2)
@example(seed=2, n=16, kv=1)
@example(seed=3, n=17, kv=2)
@example(seed=4, n=200, kv=1)
def test_block_and_page_selections_nest_and_keep_forced_members(seed, n, kv):
    """A larger top-k or token budget keeps a superset; block 0, the diagonal
    block and the current token's page are always kept, and a page plan's
    cells are the cached tokens of its pages."""
    rng = np.random.default_rng(seed)
    inputs = random_inputs(rng, n, num_q_heads=2 * kv, num_kv_heads=kv)
    ids = np.arange(-(-n // BLOCK_SIZE))
    previous = None
    for k in range(2, ids.size + 3):
        sel = build_block_sparse(inputs, k).selections
        assert sel[:, :, 0].all() and sel[:, ids, ids].all()
        assert (sel.sum(axis=2) == np.minimum(k, ids + 1)).all()
        assert previous is None or not (previous & ~sel).any()
        previous = sel

    position = int(rng.integers(n))
    current = position // PAGE_SIZE
    budgets = {*range(PAGE_SIZE, n + 2 * PAGE_SIZE, PAGE_SIZE), max(position + 1, PAGE_SIZE)}
    previous = None
    for budget in sorted(budgets):
        plan = quest_at(inputs, budget, position)
        picks = min(current + 1, budget // PAGE_SIZE) if budget <= position else current + 1
        cached = 0
        for g, pages in enumerate(plan.selected):
            pages = set(pages.tolist())
            assert current in pages and len(pages) == picks
            assert previous is None or previous[g] <= pages
            for p in pages:
                cached += len(range(p * PAGE_SIZE, min((p + 1) * PAGE_SIZE, position + 1)))
        assert plan_sparsity(plan).computed_cells == cached
        assert sum(r.size for r in page_plan_rows(plan, tuple(range(kv)))) == cached
        previous = [set(pages.tolist()) for pages in plan.selected]


EDGE_SIZES = (1, 20, 21, 63, 64, 131, 132, 200)


def edge_examples(test):
    """Pin the sizes around the smoothing kernel (21), the forced offsets
    (64) and the forced eviction tokens (132), with 1 and 2 kv heads."""
    for i, n in enumerate(EDGE_SIZES):
        test = example(seed=i, n=n, kv=1 + i % 2)(test)
    return test


def brute_force_vs_mask(verticals, slashes, n):
    """[n, n] cells of one head from its column and offset lists."""
    rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
    vertical = np.isin(cols, verticals)
    slash = np.isin(rows - cols, slashes)
    return (cols <= rows) & (vertical | slash)


def check_vs_plan(plan, inputs):
    """Exact cell count, a valid cell mask and the forced members."""
    n = inputs.seq_len
    brute = [brute_force_vs_mask(v, s, n) for v, s in zip(plan.verticals, plan.slashes)]
    assert plan_sparsity(plan).computed_cells == sum(int(m.sum()) for m in brute)
    assert np.array_equal(to_cell_mask(plan, inputs.group_map).cells, np.stack(brute))
    for v, s in zip(plan.verticals, plan.slashes):
        assert set(range(min(FORCED_PREFIX, n))) <= set(v.tolist())
        assert set(range(min(FORCED_LOCAL, n))) <= set(s.tolist())


def assert_nested(plans, field):
    for small, large in zip(plans, plans[1:]):
        for a, b in zip(getattr(small, field), getattr(large, field)):
            assert set(a.tolist()) <= set(b.tolist())


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 200), kv=st.sampled_from([1, 2]))
@edge_examples
def test_vertical_slash_and_flexprefill_properties(seed, n, kv):
    """At every size the builders honour their budgets, keep the forced
    columns and offsets (all of them below FORCED_LOCAL tokens), count cells
    exactly, and nest in num_verticals / num_slashes and in alpha."""
    rng = np.random.default_rng(seed)
    inputs = random_inputs(rng, n, num_q_heads=2 * kv, num_kv_heads=kv)
    verticals = np.sort(rng.integers(min(FORCED_PREFIX, n), n + 1, size=3)).tolist()
    slashes = np.sort(rng.integers(min(FORCED_LOCAL, n), n + 1, size=3)).tolist()
    budgets = list(zip(verticals, slashes))
    uniform = [build_vertical_slash(inputs, v, s) for v, s in budgets]
    for plan, (v, s) in zip(uniform, budgets):
        check_vs_plan(plan, inputs)
        assert all(x.size == v for x in plan.verticals)
        assert all(x.size == s for x in plan.slashes)
    assert_nested(uniform, "verticals")
    assert_nested(uniform, "slashes")

    min_budget = int(rng.integers(1, 2 * n + 1))
    fallback = build_flexprefill(inputs, FlexPrefillConfig(alpha=0.0, min_budget=min_budget))
    # alpha = 0 keeps min_budget of each, lifted to the forced units
    lifted = build_vertical_slash(
        inputs, min(max(min_budget, FORCED_PREFIX), n), min(max(min_budget, FORCED_LOCAL), n)
    )
    for a, b in zip(fallback.verticals + fallback.slashes, lifted.verticals + lifted.slashes):
        assert np.array_equal(a, b)
    alphas = sorted({float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.01, 1.0)), 1.0})
    flex = [
        build_flexprefill(inputs, FlexPrefillConfig(alpha=a, min_budget=min_budget))
        for a in alphas
    ]
    for plan in flex:
        check_vs_plan(plan, inputs)
        for v, s in zip(plan.verticals, plan.slashes):
            assert v.size + s.size >= min(min_budget, 2 * n)
    assert all(x.size == n for x in flex[-1].verticals + flex[-1].slashes)
    assert_nested(flex, "verticals")
    assert_nested(flex, "slashes")


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 200), kv=st.sampled_from([1, 2]))
@edge_examples
def test_eviction_properties(seed, n, kv):
    """At every size, including caches shorter than the forced tokens or the
    smoothing kernel, eviction keeps its forced tokens and exact counts, the
    decode row of the expanded mask reads exactly the kept tokens, and the
    kept sets nest in capacity."""
    rng = np.random.default_rng(seed)
    inputs = random_inputs(rng, n, num_q_heads=2 * kv, num_kv_heads=kv)
    low = FORCED_FIRST + FORCED_RECENT
    capacities = sorted({low, *rng.integers(low, max(low, n) + 20, size=3).tolist()})
    forced = set(range(min(FORCED_FIRST, n))) | set(range(max(0, n - FORCED_RECENT), n))
    fraction = float(rng.choice([0.0, 0.2, float(rng.uniform()), 1.0]))
    builds = (
        lambda c: snapkv_compress(inputs, c),
        lambda c: ada_snapkv_compress(inputs, c, min_head_fraction=fraction),
    )
    for build in builds:
        plans = [build(c) for c in capacities]
        for plan, capacity in zip(plans, capacities):
            keep = min(capacity, n)
            report = plan_sparsity(plan)
            mask = to_cell_mask(plan, group_map=inputs.group_map)
            decode_row = 0
            for h, g in enumerate(inputs.group_map):
                row = mask.row(h, n - 1)
                assert row.tolist() == plan.kept[g].tolist()
                decode_row += row.size
            assert decode_row == 2 * report.computed_cells
            assert report.causal_cells == kv * n
            assert sum(plan.kept_counts) == kv * keep
            for kept in plan.kept:
                assert forced <= set(kept.tolist())
            if build is builds[0]:
                assert plan.kept_counts == (keep,) * kv
        assert_nested(plans, "kept")


def brute_force_order(scores, forced):
    """Forced members by index, then the others by (-score, index)."""
    others = sorted((i for i, f in enumerate(forced) if not f), key=lambda i: (-scores[i], i))
    return [i for i, f in enumerate(forced) if f] + others


def brute_force_keep(scores, k, forced):
    """The first k members of brute_force_order, as a keep-mask."""
    picked = set(brute_force_order(scores, forced)[:k])
    return [i in picked for i in range(len(scores))]


def assert_ranks_keep_brute_force(places, scores, forced):
    """Each row of ``places`` is a permutation of 0..m-1 whose first k
    members, ``places < k``, are brute_force_keep's for every k from the
    forced count to m: the forced members hold the places below their
    count, and the others follow brute force's order."""
    m = places.shape[-1]
    for row, row_scores, row_forced in zip(places.reshape(-1, m), scores, forced):
        order = brute_force_order(list(row_scores), list(row_forced))
        count = int(sum(row_forced))
        assert sorted(row.tolist()) == list(range(m))
        assert sorted(row[order[:count]].tolist()) == list(range(count))
        assert row[order[count:]].tolist() == list(range(count, m))


# few distinct values, so that ties are common, plus -inf members
SCORES = st.one_of(st.sampled_from([-np.inf, 0.0, 0.5, 1.0]), st.floats(-10, 10))


@st.composite
def ranked_row(draw, m):
    scores = draw(st.lists(SCORES, min_size=m, max_size=m))
    forced = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    return scores, draw(st.integers(sum(forced), m)), forced


@settings(deadline=None, max_examples=200)
@given(data=st.data(), m=st.integers(1, 64))
def test_rank_matches_brute_force(data, m):
    """``rank < k`` against brute force at every k from the forced count to m."""
    scores, _, forced = data.draw(ranked_row(m))
    places = rank(np.array(scores), np.array(forced))
    assert_ranks_keep_brute_force(places[None], [scores], [forced])
    for k in range(sum(forced), m + 1):
        assert (places < k).tolist() == brute_force_keep(scores, k, forced)


@settings(deadline=None, max_examples=100)
@given(data=st.data(), rows=st.integers(1, 5), m=st.integers(1, 32))
def test_rank_takes_a_budget_per_row(data, rows, m):
    drawn = [data.draw(ranked_row(m)) for _ in range(rows)]
    scores, k, forced = (np.array(column) for column in zip(*drawn))
    places = rank(scores, forced)
    assert_ranks_keep_brute_force(places, scores, forced)
    assert (places < k[:, None]).tolist() == [brute_force_keep(*row) for row in drawn]


# the place type of each row length: the smallest signed integer type that holds it
PLACE_TYPES = {
    127: np.int8,
    128: np.int16,
    300: np.int16,
    1024: np.int16,
    2048: np.int16,
    32767: np.int16,
    32768: np.int32,
}


@pytest.mark.parametrize("m", sorted(PLACE_TYPES))
def test_rank_matches_brute_force_on_wide_rows(m):
    rng = np.random.default_rng(m)
    rows = 16
    scores = rng.normal(size=(rows, m))
    scores[0] = 0.0
    scores[1] = rng.choice([-np.inf, 0.0, 0.5, 1.0], size=m)
    scores[2, rng.random(m) < 0.5] = -np.inf
    scores[3] = -np.inf
    scores[4] = rng.integers(0, 4, size=m)
    forced = rng.random((rows, m)) < 0.02
    forced[5:8] = False
    forced[8] = True
    places = rank(scores, forced)
    assert places.dtype == PLACE_TYPES[m]
    assert_ranks_keep_brute_force(places, scores, forced)


def test_eviction_mask_expansion(rng):
    inputs = random_inputs(rng, 300)
    plan = snapkv_compress(inputs, token_capacity=140)
    mask = to_cell_mask(plan, group_map=inputs.group_map)
    assert mask.num_heads == inputs.num_q_heads
    for h in range(inputs.num_q_heads):
        kept = set(plan.kept[inputs.group_map[h]].tolist())
        for i in range(300):
            row = set(mask.row(h, i).tolist())
            assert row == {j for j in kept if j <= i}


@pytest.mark.parametrize("ids", [[3, 1], [1, 1]], ids=["unsorted", "repeated"])
def test_plans_take_sorted_unique_ids(rng, ids):
    """Vertical-slash, eviction and page plans take each head's ids sorted
    and unique, and refuse any other list by its field's name."""
    good = [0, 1]
    index = quest_index(rng.normal(size=(1, 32, 4)))
    for make, field in (
        (lambda x: VerticalSlashPlan((x,), (good,), seq_len=8), "verticals"),
        (lambda x: VerticalSlashPlan((good,), (x,), seq_len=8), "slashes"),
        (lambda x: EvictionPlan((x,), seq_len=8), "kept"),
        (lambda x: PagePlan(index, (x,), position=31), "selected"),
    ):
        make(good)
        with pytest.raises(ValueError, match=f"{field} must be 1-d arrays of strictly increasing"):
            make(ids)


def test_page_plan_has_no_mask_view(rng):
    inputs = random_inputs(rng, 128)
    plan = quest_plan(inputs, 32)
    with pytest.raises(TypeError):
        to_cell_mask(plan, inputs.group_map)


def test_recall_is_bounded_and_exact_for_full_plan(rng):
    inputs = random_inputs(rng, 160)
    partial = build_vertical_slash(inputs, 8, 64)
    r = attention_recall(partial, inputs)
    assert 0.0 < r < 1.0
    full = build_vertical_slash(inputs, 160, 160)
    assert attention_recall(full, inputs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "build",
    [
        lambda x: build_vertical_slash(x, 24, 72),
        lambda x: build_block_sparse(x, 4),
        lambda x: snapkv_compress(x, 140),
    ],
    ids=["vertical_slash", "block_sparse", "snapkv"],
)
def test_recall_matches_dense_weight_sum(rng, build):
    """The cached-mass recall against the dense causal softmax summed over
    the mask's cells, at n = 250 (a partial last tile)."""
    inputs = random_inputs(rng, 250)
    plan = build(inputs)
    cells = to_cell_mask(plan, inputs.group_map).cells
    n = inputs.seq_len
    total = 0.0
    for h in range(inputs.num_q_heads):
        g = inputs.group_map[h]
        logits = inputs.queries[h] @ inputs.keys[g].T / np.sqrt(inputs.head_dim)
        logits[~np.tri(n, dtype=bool)] = -np.inf
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        total += (w / w.sum(axis=1, keepdims=True))[cells[h]].sum()
    assert attention_recall(plan, inputs) == pytest.approx(total / (inputs.num_q_heads * n), abs=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "planted", "clustered"])
@pytest.mark.parametrize("n", [1, 17, 300, 2048])
def test_recall_matches_the_tile_oracle(kind, n):
    """Recall read from the cached per-unit masses against the kernel's tile
    pass (``tile_recalls``), within 1e-12: every prefill METHODS row at its
    smallest value and halfway to n, eviction plans under two query heads
    per kv head, and a vertical-slash plan whose verticals and slashes are
    one shared id set, so many of its cells lie on both.  17 and 300 end in
    a partial block."""
    inputs = make_inputs(kind, n, seed=n)
    plans = []
    for method, spec in METHODS.items():
        if method == "quest":
            continue
        if spec.smallest is None:
            values = [(0.3, 64), (0.9, 16)]
        else:
            lo = spec.smallest(n)
            values = [lo, lo + max(n - lo, 0) // 2]
        plans += [spec.build(inputs, spec.calibrated(value)) for value in values]
    rng = np.random.default_rng(n)
    shared = tuple(
        np.union1d([0], np.flatnonzero(rng.random(n) < 0.25)) for _ in range(inputs.num_q_heads)
    )
    plans.append(VerticalSlashPlan(shared, shared, seq_len=n))
    assert {type(plan) for plan in plans} == {VerticalSlashPlan, BlockPlan, EvictionPlan}
    assert inputs.num_q_heads == 2 * inputs.num_kv_heads
    got = [attention_recall(plan, inputs) for plan in plans]
    for recall, want in zip(got, tile_recalls(plans, inputs)):
        assert abs(recall - want) <= 1e-12


def test_inputs_are_read_only_and_dense_mass_is_filled_once(rng, monkeypatch):
    """The recall oracle's stage fills once per input, on the first prefill
    recall.  After that fill a prefill plan's recall runs no kernel pass:
    neither ``row_logsumexp`` nor any plan's ``tiles``."""
    keys = rng.normal(size=(2, 48, 8))
    inputs = attention.AttentionInputs.from_arrays(
        rng.normal(size=(4, 48, 8)), keys, rng.normal(size=(2, 48, 8))
    )
    with pytest.raises(ValueError):
        inputs.keys[0, 0, 0] = 1.0
    assert keys.flags.writeable
    calls = []
    real = accounting.dense_mass

    def counted(inputs):
        calls.append(inputs.seq_len)
        return real(inputs)

    monkeypatch.setattr(accounting, "dense_mass", counted)
    lines = (np.array([0, 5, 9]),) * 4, (np.array([0, 2, 30]),) * 4
    vs = VerticalSlashPlan(*lines, seq_len=48)
    kept = EvictionPlan((np.array([0, 7, 47]), np.arange(0, 48, 3)), seq_len=48)
    plans = [build_block_sparse(inputs, 2), vs, kept]
    first = [attention_recall(plan, inputs) for plan in plans]
    assert calls == [inputs.seq_len]

    def refuse(*args, **kwargs):
        raise AssertionError("recall ran a kernel pass")

    monkeypatch.setattr(attention, "row_logsumexp", refuse)
    for plan_type in (VerticalSlashPlan, BlockPlan, EvictionPlan):
        monkeypatch.setattr(plan_type, "tiles", refuse)
    assert [attention_recall(plan, inputs) for plan in plans] == first
    assert calls == [inputs.seq_len]


def test_recall_oracle_limit(rng):
    inputs = make_inputs("uniform", ORACLE_LIMIT + 16, seed=0)
    plan = build_vertical_slash(inputs, 16, 64)
    with pytest.raises(ValueError):
        attention_recall(plan, inputs)


def test_page_plan_recall_beyond_the_oracle_limit():
    """A page plan's recall reads its one decode row, so the limit on
    prefill plans does not apply to it."""
    inputs = make_inputs("clustered", 2 * ORACLE_LIMIT, seed=0)
    plan = quest_plan(inputs, 256)
    want = []
    for h, tokens in enumerate(page_plan_rows(plan, inputs.group_map)):
        g = inputs.group_map[h]
        logits = inputs.keys[g] @ inputs.queries[h][-1] / np.sqrt(inputs.head_dim)
        w = np.exp(logits - logits.max())
        want.append(w[tokens].sum() / w.sum())
    assert attention_recall(plan, inputs) == pytest.approx(float(np.mean(want)), abs=1e-12)


def test_calibration_table_lookup():
    entry = lookup("snapkv", 16384, 0.8)
    assert dict(entry.params)["token_capacity"] == 3276
    with pytest.raises(KeyError):
        lookup("snapkv", 16384, 0.55)
    with pytest.raises(KeyError):
        calibration_entries("not_a_method")
    assert len(calibration_entries("vertical_slash", 16384)) == 10


@pytest.mark.parametrize(
    "call",
    [
        lambda name, inputs: calibration_entries(name),
        lambda name, inputs: check_params(name, {}),
        lambda name, inputs: smallest_budget(name, inputs, 0.5),
    ],
    ids=["calibration_entries", "check_params", "smallest_budget"],
)
def test_unknown_method_names_the_methods(call):
    """Every lookup of a method by name refuses an unknown one with a
    KeyError that lists the known ones."""
    inputs = make_inputs("uniform", 17, seed=0)
    message = f"unknown method 'nope'; expected one of {METHOD_NAMES}"
    with pytest.raises(KeyError, match=re.escape(message)):
        call("nope", inputs)


def test_predicted_sparsity_cross_check():
    """Closed-form accounting agrees with a built plan of the same shape; a
    vertical-slash count is the densest packing, which no built plan of the
    same budget exceeds."""
    entry = lookup("quest", 16384, 0.95)
    report = predicted_sparsity(entry)
    assert report.computed_cells == (int(dict(entry.params)["token_budget"]) // 16) * 16
    vs_entry = lookup("vertical_slash", 16384, 0.95)
    assert predicted_sparsity(vs_entry).computed_cells == vertical_slash_cells(
        np.arange(int(dict(vs_entry.params)["num_verticals"])),
        np.arange(int(dict(vs_entry.params)["num_slashes"])),
        16384,
    )
    n = 512
    inputs = make_inputs("clustered", n, seed=0)
    for k in (64, 128, 256):
        kw = {"num_verticals": k, "num_slashes": k}
        built = plan_sparsity(METHODS["vertical_slash"].build(inputs, kw))
        densest, causal = METHODS["vertical_slash"].cells(n, kw)
        assert built.computed_cells <= densest * built.causal_cells // causal


def test_flexprefill_alpha_rows_are_input_dependent():
    rows = [e for e in calibration_entries("flexprefill", 16384) if dict(e.params)["alpha"] > 0]
    assert rows
    for entry in rows:
        assert predicted_sparsity(entry) is None


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 200))
@example(seed=0, n=1)
@example(seed=1, n=15)
@example(seed=2, n=16)
@example(seed=3, n=17)
@example(seed=4, n=200)
def test_method_cells_match_built_plans(seed, n):
    """The input-free METHODS cells equal plan_sparsity of the built plan,
    with capacities and budgets on both sides of n and a short current page."""
    rng = np.random.default_rng(seed)
    inputs = random_inputs(rng, n)
    forced = FORCED_FIRST + FORCED_RECENT
    params = {
        "block_sparse": {"top_k_blocks": int(rng.integers(2, 16))},
        "snapkv": {"token_capacity": int(rng.integers(forced, 300))},
        "ada_snapkv": {"token_capacity": int(rng.integers(forced, 300))},
        "quest": {"token_budget": int(rng.integers(PAGE_SIZE, 300))},
    }
    for method, kw in params.items():
        report = plan_sparsity(METHODS[method].build(inputs, kw))
        computed, causal = METHODS[method].cells(n, kw)
        heads = report.causal_cells // causal
        assert (computed * heads, causal * heads) == (
            report.computed_cells,
            report.causal_cells,
        ), method


ONE_COUNT_METHODS = [m for m in METHOD_NAMES if METHODS[m].smallest is not None]
SEARCH_TARGETS = (0.0, 0.3, 0.8, 0.95)


@pytest.mark.parametrize("method", ONE_COUNT_METHODS)
@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 300))
@example(seed=0, n=1)
@example(seed=1, n=15)
@example(seed=2, n=16)
@example(seed=3, n=17)
@example(seed=4, n=100)
@example(seed=5, n=200)
def test_smallest_budget_matches_a_scan_of_built_plans(method, seed, n):
    """The bisection returns the first table value whose built plan meets
    the target, and flags a target that the smallest value's plan already
    misses; n spans below FORCED_RECENT and the window, and partial last
    blocks and pages."""
    inputs = random_inputs(np.random.default_rng(seed), n, num_q_heads=2, num_kv_heads=1)
    want = smallest_by_scan(method, inputs, SEARCH_TARGETS)
    assert [smallest_budget(method, inputs, t) for t in SEARCH_TARGETS] == want


@pytest.mark.parametrize("method", ONE_COUNT_METHODS)
def test_smallest_budget_is_minimal_at_length_4100(method):
    """At n = 4100 (a partial last block and page, several block row groups)
    a scan of every value takes thousands of builds per row, so the result
    is checked against its neighbour instead: it meets the target and the
    value below it does not."""
    n = 4100
    inputs = random_inputs(np.random.default_rng(6), n, num_q_heads=2, num_kv_heads=1)
    lo = METHODS[method].smallest(n)
    for target in SEARCH_TARGETS:
        count, reachable = smallest_budget(method, inputs, target)
        if not reachable:
            assert count == lo and built_sparsity(method, inputs, lo) < target
        else:
            assert built_sparsity(method, inputs, count) <= target
            assert count == lo or built_sparsity(method, inputs, count - 1) > target


def test_smallest_budget_needs_a_one_count_row():
    inputs = make_inputs("clustered", 128, seed=0)
    assert ONE_COUNT_METHODS == [m for m in METHOD_NAMES if m != "flexprefill"]
    with pytest.raises(ValueError, match="not one count"):
        smallest_budget("flexprefill", inputs, 0.5)
    with pytest.raises(ValueError, match="target_sparsity"):
        smallest_budget("quest", inputs, 1.0)



@pytest.mark.parametrize("method", ["vertical_slash", "block_sparse", "snapkv", "quest"])
def test_plan_read_against_other_inputs_raises(method):
    """A plan built at n = 200 on 4 query and 2 kv heads, read against
    inputs of another length or head count, raises ValueError naming both
    shapes: its heads are query heads, or kv heads for eviction and page
    plans."""
    spec = METHODS[method]
    plan = spec.build(make_inputs("planted", 200, seed=0), spec.calibrated(spec.smallest(200)))
    unit, heads = ("kv", 2) if plan.PER_KV_HEAD else ("query", 4)

    def raises(inputs_heads: int, n: int):
        return pytest.raises(
            ValueError,
            match=f"has {heads} {unit} heads at length 200; "
            f"the inputs have {inputs_heads} {unit} heads at length {n}",
        )

    with raises(heads, 300):
        attention_recall(plan, make_inputs("planted", 300, seed=0))
    for q, kv in ((2, 1), (8, 4)):
        other = make_inputs("planted", 200, num_q_heads=q, num_kv_heads=kv, seed=0)
        with raises(kv if plan.PER_KV_HEAD else q, 200):
            attention_recall(plan, other)
        with raises(kv if plan.PER_KV_HEAD else q, 200):
            if isinstance(plan, PagePlan):
                page_plan_rows(plan, other.group_map)
            else:
                to_cell_mask(plan, other.group_map)


# sha256 of the integer accounting of every plan in the test below, pinned
# from the accounting that dispatched on the plan's type in each function
ACCOUNTING_DIGEST = "5f459e114cc6e9b486aecd5717866ec4b9ef0d2067a9b477082947980166b6d9"


def test_accounting_byte_identical():
    """Every METHODS row at its smallest value and halfway from it to n:
    plan_sparsity's counts, then a prefill plan's cells or a page plan's
    decode rows."""
    digest = hashlib.sha256()
    for n in (1, 17, 300):
        for kind in ("planted", "clustered"):
            for seed in (0, 7):
                inputs = make_inputs(kind, n, seed=seed)
                for method, spec in METHODS.items():
                    if spec.smallest is None:
                        values = [(0.3, 64), (0.9, 16)]
                    else:
                        lo = spec.smallest(n)
                        values = [lo, lo + max(n - lo, 0) // 2]
                    for value in values:
                        plan = spec.build(inputs, spec.calibrated(value))
                        report = plan_sparsity(plan)
                        digest.update(np.int64([report.computed_cells, report.causal_cells]))
                        if isinstance(plan, PagePlan):
                            for row in page_plan_rows(plan, inputs.group_map):
                                digest.update(np.int64([row.size]))
                                digest.update(row.astype(np.int64))
                        else:
                            digest.update(to_cell_mask(plan, inputs.group_map).cells.tobytes())
    assert digest.hexdigest() == ACCOUNTING_DIGEST


def plan_arrays(plan) -> list[np.ndarray]:
    """A plan's selection: block selections, or per-head id arrays."""
    if isinstance(plan, BlockPlan):
        return [plan.selections]
    if isinstance(plan, VerticalSlashPlan):
        return [*plan.verticals, *plan.slashes]
    return list(plan.kept if isinstance(plan, EvictionPlan) else plan.selected)


# sha256 of the selections and decode outputs of select_16k's calibrated
# plans, pinned before estimation moved into per-input cached stages
SELECT_16K_DIGEST = "0b05e56a41db30634e8238181d5789531a99dd99f65b1228167e9b80e68904bf"


def test_select_16k_plans_byte_identical():
    """Every METHODS row at its calibrated value for levels 0.9/0.8/0.6 at
    n = 16384 (the benchmark's heads, seed 0): each plan's id arrays or
    block selections, then the decode_step output of an eviction or page
    plan's rows."""
    n = 16384
    digest = hashlib.sha256()
    for kind in ("planted", "clustered"):
        inputs = make_inputs(kind, n, seed=0)
        for level in (0.9, 0.8, 0.6):
            for method in METHODS:
                plan = build_plan(lookup(method, n, level), inputs)
                for array in plan_arrays(plan):
                    digest.update(np.int64([array.size]))
                    digest.update(array.tobytes())
                if isinstance(plan, EvictionPlan):
                    rows = [plan.kept[g] for g in inputs.group_map]
                elif isinstance(plan, PagePlan):
                    rows = page_plan_rows(plan, inputs.group_map)
                else:
                    continue
                digest.update(attention.decode_step(inputs, rows).output.tobytes())
    assert digest.hexdigest() == SELECT_16K_DIGEST


# sha256 of select_16k's full-row decode step, pinned from the decode_step
# that gathered every key and value row once per query head
FULL_DECODE_DIGEST = "42a4da9e9e601ff5302b189bb198f089e2d9583f57a626a1394c1345ed805653"


def test_select_16k_full_decode_byte_identical():
    """decode_step over every row, as select_16k's full decode reads it, on
    both generators at n = 16384 (the benchmark's heads, seed 0)."""
    n = 16384
    digest = hashlib.sha256()
    for kind in ("planted", "clustered"):
        inputs = make_inputs(kind, n, seed=0)
        digest.update(attention.decode_step(inputs, np.arange(n)).output.tobytes())
    assert digest.hexdigest() == FULL_DECODE_DIGEST


# sha256 of every build (or refusal) in the test below, pinned from the
# builders that each ranked their scores anew on every call
WIDE_PLANS_DIGEST = "ea5965fc6bcd0192203b8e29432f5b78eb21a546af08d53cd13389c527ea32d6"


def test_plans_byte_identical_across_budgets():
    """Every one-count row at its smallest value, n//7, n//3, n//2, n - 1, n
    and n + 5 (ada_snapkv at four head fractions), and flexprefill over an
    alpha x min_budget grid, at lengths below and above the forced windows:
    each plan's arrays, or the text of the ValueError it raises."""
    digest = hashlib.sha256()
    for n in (1, 17, 130, 300, 2048):
        for kind in ("uniform", "planted", "clustered"):
            for seed in (0, 1):
                inputs = make_inputs(kind, n, seed=seed)
                calls = [
                    ("flexprefill", {"alpha": alpha, "min_budget": budget})
                    for alpha in (0.0, 0.1, 0.3, 0.6, 0.9, 0.99, 1.0)
                    for budget in (1, 68, 512)
                ]
                for method in ONE_COUNT_METHODS:
                    spec = METHODS[method]
                    for value in (spec.smallest(n), n // 7, n // 3, n // 2, n - 1, n, n + 5):
                        kw = spec.calibrated(value)
                        fractions = (0.0, 0.2, 0.7, 1.0) if method == "ada_snapkv" else (None,)
                        for f in fractions:
                            calls.append((method, kw if f is None else {**kw, "min_head_fraction": f}))
                for method, kw in calls:
                    try:
                        arrays = plan_arrays(METHODS[method].build(inputs, kw))
                    except ValueError as exc:
                        digest.update(str(exc).encode())
                        continue
                    for array in arrays:
                        digest.update(np.int64([array.size]))
                        digest.update(array.tobytes())
    assert digest.hexdigest() == WIDE_PLANS_DIGEST
