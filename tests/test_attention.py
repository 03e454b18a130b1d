import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselab import attention
from sparselab.attention import (
    AttentionInputs,
    decode_step,
    default_group_map,
    dense_prefill,
    masked_attention,
)
from sparselab.patterns import (
    BlockPlan,
    EvictionPlan,
    FlexPrefillConfig,
    VerticalSlashPlan,
    accounting,
    ada_snapkv_compress,
    attention_recall,
    build_block_sparse,
    build_flexprefill,
    build_vertical_slash,
    eviction,
    page_plan_rows,
    quest_plan,
    smallest_budget,
    snapkv_compress,
    to_cell_mask,
    vertical_slash,
)
from sparselab.patterns.plans import BLOCK_SIZE
from sparselab.synthetic import make_inputs

from conftest import (
    gathered_decode,
    identity_values,
    is_superset_of,
    naive_attention,
    plan_cells_oracle,
    random_inputs,
    window_mass_oracle,
)


def test_dense_matches_naive_oracle(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(2, 17))
        kv = int(rng.choice([1, 2, 4]))
        q = kv * int(rng.choice([1, 2]))
        inputs = random_inputs(rng, n, num_q_heads=q, num_kv_heads=kv, head_dim=d)
        got = dense_prefill(inputs).output
        want = naive_attention(inputs)
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-6


def test_full_mask_equals_dense(rng):
    """A block plan that keeps every causal block against dense prefill:
    outputs agree, and so do the weight rows read through identity values."""
    inputs = random_inputs(rng, 96, head_dim=96)
    nb = 96 // BLOCK_SIZE
    every = np.tri(nb, dtype=bool)[None].repeat(inputs.num_q_heads, axis=0)
    mask = to_cell_mask(BlockPlan(every, seq_len=96), inputs.group_map)
    for probe in (inputs, identity_values(inputs)):
        dense = dense_prefill(probe)
        masked = masked_attention(probe, mask)
        assert np.abs(masked.output - dense.output).max() <= 1e-7


def test_masked_weights_renormalize_over_support(rng):
    inputs = identity_values(random_inputs(rng, 40, head_dim=40))
    h, n = inputs.num_q_heads, inputs.seq_len
    for plan in random_prefill_plans(rng, n, h, inputs.num_kv_heads):
        mask = to_cell_mask(plan, inputs.group_map)
        # identity values make each output row the row's weights
        weights = masked_attention(inputs, mask).output
        assert np.abs(weights.sum(axis=2) - 1.0).max() <= 1e-6
        # nothing outside the permitted support
        for head in range(h):
            off = weights[head][~mask.cells[head]]
            assert np.all(off == 0.0)


def test_decode_step_matches_masked_last_row(rng):
    """The last row of an eviction plan's mask is a decode step over its
    kept tokens."""
    inputs = random_inputs(rng, 64)
    n = inputs.seq_len
    row = np.union1d(rng.choice(n, size=17, replace=False), [0])
    plan = EvictionPlan((row,) * inputs.num_kv_heads, seq_len=n)
    full = masked_attention(inputs, to_cell_mask(plan, inputs.group_map))
    step = decode_step(inputs, row)
    assert np.abs(step.output[:, 0] - full.output[:, -1]).max() <= 1e-12


def test_decode_step_per_head_rows(rng):
    inputs = identity_values(random_inputs(rng, 32, head_dim=32))
    per_head = [np.sort(rng.choice(32, size=5, replace=False)) for _ in range(4)]
    out = decode_step(inputs, per_head)
    assert out.output.shape == (4, 1, inputs.head_dim)
    for h in range(4):
        w = out.output[h, 0]
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(w[np.setdiff1d(np.arange(32), per_head[h])] == 0.0)


@pytest.mark.parametrize("n", [1, 17, 300, 16384])
def test_decode_step_matches_the_gathered_reference(n):
    """decode_step reads a row once per kv head and id array, and a run of
    ids as a slice; every way heads share their rows gives the bytes of a
    gather per query head."""
    inputs = make_inputs("planted", n, seed=3)
    rng = np.random.default_rng(n)
    group_map, h = inputs.group_map, inputs.num_q_heads

    def some_ids():
        return np.flatnonzero(rng.random(n) < 0.3) if n > 1 else np.arange(1)

    shared = some_ids()
    kept = [some_ids() for _ in range(inputs.num_kv_heads)]
    cases = {
        "every_row": np.arange(n),
        "a_run": np.arange(n // 3, n),
        "shared": shared,
        "eviction": [snapkv_compress(inputs, 132 + n // 8).kept[g] for g in group_map],
        "pages": page_plan_rows(quest_plan(inputs, 64), group_map),
        "per_kv_head": [kept[g] for g in group_map],
        "per_query_head": [some_ids() for _ in range(h)],
        "equal_copies": [shared.copy() for _ in range(h)],
    }
    for name, rows in cases.items():
        got = decode_step(inputs, rows).output
        assert got.tobytes() == gathered_decode(inputs, rows).tobytes(), name


@pytest.mark.parametrize(
    "row, message",
    [
        ([0, 5, 3], "strictly increasing"),
        ([0, 3, 3], "strictly increasing"),
        (np.array([], dtype=np.int64), "non-empty"),
        ([0, 32], r"lie in \[0, 32\)"),
    ],
    ids=["unsorted", "repeated", "empty", "past_last"],
)
def test_decode_rows_follow_the_plan_id_rule(rng, row, message):
    """A decode row is sorted, unique, non-empty and causal, in both the
    shared and the per-head form; it is checked, never sorted."""
    inputs = random_inputs(rng, 32)
    with pytest.raises(ValueError, match=message):
        decode_step(inputs, np.asarray(row, dtype=np.int64))
    per_head = [np.arange(4)] * (inputs.num_q_heads - 1) + [np.asarray(row, dtype=np.int64)]
    with pytest.raises(ValueError, match=message):
        decode_step(inputs, per_head)


def test_masked_attention_refuses_another_group_map():
    """A mask made under another group map of the same shape would read its
    eviction columns by that map while keys follow the inputs'."""
    base = make_inputs("planted", 300, seed=0)
    inputs = AttentionInputs.from_arrays(base.queries, base.keys, base.values, (0, 1, 0, 1))
    plan = EvictionPlan((np.arange(0, 300, 2), np.arange(0, 300, 3)), seq_len=300)
    masked_attention(inputs, to_cell_mask(plan, inputs.group_map))
    with pytest.raises(ValueError, match="group map"):
        masked_attention(inputs, to_cell_mask(plan, (0, 0, 1, 1)))


def test_cached_computes_each_stage_once_per_input(rng):
    """One compute per stage function and input; other stages and other
    inputs keep their own results."""
    calls = []

    def key_sum(inputs):
        calls.append(("sum", id(inputs)))
        return inputs.keys.sum()

    def key_max(inputs):
        calls.append(("max", id(inputs)))
        return inputs.keys.max()

    a, b = random_inputs(rng, 20), random_inputs(rng, 20)
    for _ in range(2):
        assert a.cached(key_sum) == a.keys.sum()
        assert a.cached(key_max) == a.keys.max()
        assert b.cached(key_sum) == b.keys.sum()
    assert calls == [("sum", id(a)), ("max", id(a)), ("sum", id(b))]


def test_softmax_saturation_stays_finite(rng):
    inputs = random_inputs(rng, 24, head_dim=24, scale=1e4)
    assert np.isfinite(dense_prefill(inputs).output).all()
    weights = dense_prefill(identity_values(inputs)).output
    assert np.abs(weights.sum(axis=2) - 1.0).max() <= 1e-6


def test_gqa_matches_repeated_kv_heads(rng):
    """Grouped attention equals ungrouped attention on duplicated kv heads."""
    inputs = random_inputs(rng, 48, num_q_heads=4, num_kv_heads=2)
    grouped = dense_prefill(inputs).output
    wide = AttentionInputs.from_arrays(
        inputs.queries,
        inputs.keys[list(inputs.group_map)],
        inputs.values[list(inputs.group_map)],
        group_map=tuple(range(4)),
    )
    assert np.abs(dense_prefill(wide).output - grouped).max() <= 1e-12


def test_kv_head_permutation_equivariance(rng):
    inputs = random_inputs(rng, 40, num_q_heads=4, num_kv_heads=4)
    perm = [2, 0, 3, 1]
    permuted = AttentionInputs.from_arrays(
        inputs.queries,
        inputs.keys[perm],
        inputs.values[perm],
        group_map=tuple(perm.index(g) for g in inputs.group_map),
    )
    assert np.abs(dense_prefill(permuted).output - dense_prefill(inputs).output).max() <= 1e-12


def test_superset_mask_mean_error_monotone():
    """On planted inputs, enlarging a mask does not increase the mean error
    against dense output (checked as an average over seeds).  Both masks
    keep offsets 0..8; the small one keeps column 0, the big one every
    fourth column."""
    slashes = np.arange(9)
    deltas = []
    for seed in range(20):
        inputs = make_inputs("planted", 128, seed=seed, needle_positions=(40, 90))
        dense = dense_prefill(inputs).output
        heads = inputs.num_q_heads
        small = VerticalSlashPlan((np.array([0]),) * heads, (slashes,) * heads, seq_len=128)
        big = VerticalSlashPlan((np.arange(0, 128, 4),) * heads, (slashes,) * heads, seq_len=128)
        small_mask = to_cell_mask(small, inputs.group_map)
        big_mask = to_cell_mask(big, inputs.group_map)
        assert is_superset_of(big_mask, small_mask)
        err_small = np.abs(masked_attention(inputs, small_mask).output - dense).mean()
        err_big = np.abs(masked_attention(inputs, big_mask).output - dense).mean()
        deltas.append(err_small - err_big)
    assert np.mean(deltas) >= 0.0


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 48),
    kv=st.sampled_from([1, 2]),
    mult=st.sampled_from([1, 2, 3]),
)
def test_dense_weight_rows_sum_to_one(seed, n, kv, mult):
    rng = np.random.default_rng(seed)
    inputs = random_inputs(rng, n, num_q_heads=kv * mult, num_kv_heads=kv, head_dim=max(n, 4))
    weights = dense_prefill(identity_values(inputs)).output
    assert np.abs(weights.sum(axis=2) - 1.0).max() <= 1e-6
    tri = np.triu_indices(n, k=1)
    for h in range(inputs.num_q_heads):
        assert np.all(weights[h][tri] == 0.0)


def full_matrix_reference(inputs, cells):
    """Float64 masked softmax attention over the full [n, n] logits of every
    head."""
    out = np.empty(inputs.queries.shape)
    for head in range(inputs.num_q_heads):
        g = inputs.group_map[head]
        logits = inputs.queries[head] @ inputs.keys[g].T / np.sqrt(inputs.head_dim)
        logits[~cells[head]] = -np.inf
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        out[head] = (w / w.sum(axis=1, keepdims=True)) @ inputs.values[g]
    return out


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 70), kv=st.sampled_from([1, 2]))
@example(seed=0, n=1, kv=1)
@example(seed=1, n=15, kv=2)
@example(seed=2, n=32, kv=1)
@example(seed=3, n=70, kv=2)
def test_tiled_kernels_match_full_matrix_reference(seed, n, kv):
    """dense_prefill against the full-matrix softmax: below one tile, at
    whole tiles and with a partial last tile."""
    rng = np.random.default_rng(seed)
    inputs = random_inputs(rng, n, num_q_heads=2 * kv, num_kv_heads=kv)
    causal = np.broadcast_to(np.tri(n, dtype=bool), (inputs.num_q_heads, n, n))
    got = dense_prefill(inputs).output
    assert np.abs(got - full_matrix_reference(inputs, causal)).max() <= 1e-12


S = attention.SPAN_ROWS


W = attention.APPROX_WINDOW


def full_matrix_mass(inputs, first):
    """The ``DenseMass`` of rows first..n-1, each field taken from each
    head's float64 full-matrix softmax."""
    n = inputs.seq_len
    nb = -(-n // BLOCK_SIZE)
    fields = {name: [] for name in accounting.DenseMass._fields}
    for head in range(inputs.num_q_heads):
        g = inputs.group_map[head]
        logits = inputs.queries[head] @ inputs.keys[g].T / np.sqrt(inputs.head_dim)
        logits = np.where(np.tri(n, dtype=bool), logits, -np.inf)[first:]
        peak = logits.max(axis=1)
        lse = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
        weights = np.exp(logits - lse[:, None])
        padded = np.zeros((nb * BLOCK_SIZE,) * 2)
        padded[first:n, :n] = weights
        blocks = padded.reshape(nb, BLOCK_SIZE, nb, BLOCK_SIZE).sum(axis=(1, 3))
        fields["lse"].append(lse)
        fields["columns"].append(weights.sum(axis=0))
        fields["column_max"].append(weights.max(axis=0))
        # row r is query row first + r, so offset o is np.trace's first - o
        fields["slashes"].append([np.trace(weights, offset=first - o) for o in range(n)])
        fields["blocks"].append(blocks[first // BLOCK_SIZE :])
        fields["total"].append(weights.sum())
    return accounting.DenseMass(*(np.array(fields[name]) for name in fields))


def assert_mass_matches(got, want):
    for name, a, b in zip(accounting.DenseMass._fields, got, want):
        assert a.shape == b.shape, name
        assert np.abs(a - b).max() <= 1e-12, name


@pytest.mark.parametrize(
    "n", [1, 2, S - 1, S, S + 1, 2 * S - 1, 2 * S, 2 * S + 1, 300, 2 * W - 1, 2 * W, 2 * W + 1, 1000]
)
def test_dense_prefill_and_causal_lse_at_tile_edges(n):
    """The every-column plan against the full-matrix softmax on both sides
    of each SPAN_ROWS tile edge, and the recall oracle's dense masses
    against the full weight matrix on both sides of its APPROX_WINDOW tile
    edges (counted back from row n - 1): each row's log-sum-exp and the
    mass of each key column, diagonal offset and query block x key block,
    each column's largest weight and the total."""
    rng = np.random.default_rng(n)
    inputs = random_inputs(rng, n)
    causal = np.broadcast_to(np.tri(n, dtype=bool), (inputs.num_q_heads, n, n))
    want = full_matrix_reference(inputs, causal)
    assert np.abs(dense_prefill(inputs).output - want).max() <= 1e-12
    assert_mass_matches(inputs.cached(accounting.dense_mass), full_matrix_mass(inputs, 0))


@pytest.mark.parametrize("n", [1, 15, 16, 17, W - 1, W, W + 1, 300])
def test_window_stage_matches_the_full_matrix(n):
    """``window_stats``, the last ``min(APPROX_WINDOW, n)`` rows, against
    the full-matrix softmax of those rows, windows that start mid-block
    among them; the window's log-sum-exp and block masses too, with blocks
    counted from the query block that holds its first row.  A sequence no
    longer than the window is read whole, so both stages are equal."""
    inputs = random_inputs(np.random.default_rng(n), n)
    window = inputs.cached(vertical_slash.window_stats)
    assert_mass_matches(window, full_matrix_mass(inputs, n - min(W, n)))
    if n <= W:
        dense = inputs.cached(accounting.dense_mass)
        for got, want in zip(window, dense):
            assert np.array_equal(got, want)


def test_causal_softmax_matches_the_full_matrix():
    """``causal_softmax``'s weights and log-sum-exp against the float64
    full-matrix softmax: one-row reads at positions 0, 15 and n - 1, as a
    page plan's recall reads its decode row, and a SPAN_ROWS tile past
    row 0, as ``dense_mass`` reads it."""
    n = 300
    inputs = make_inputs("planted", n, seed=3)
    for head in range(inputs.num_q_heads):
        g = inputs.group_map[head]
        logits = inputs.queries[head] @ inputs.keys[g].T / np.sqrt(inputs.head_dim)
        logits[~np.tri(n, dtype=bool)] = -np.inf
        peak = logits.max(axis=1)
        lse = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
        for start, stop in ((0, 1), (15, 16), (n - 1, n), (S, 2 * S)):
            weights, got = attention.causal_softmax(inputs, head, start, stop)
            assert weights.shape == (stop - start, stop)
            assert np.abs(got - lse[start:stop]).max() <= 1e-12
            want = np.exp(logits[start:stop, :stop] - lse[start:stop, None])
            assert np.abs(weights - want).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 17, 130, 300])
def test_offset_sums_match_brute_force_on_every_tile(n):
    """``offset_sums`` on each SPAN_ROWS tile of ``causal_softmax``, as
    ``dense_mass`` reads them (tiles that start past row 0, and a short
    last tile), against the plain-loop per-offset sum.  It adds into
    ``out``, so the tiles' sums accumulate."""
    inputs = random_inputs(np.random.default_rng(n), n)
    for head in range(inputs.num_q_heads):
        total, want = np.zeros(n), np.zeros(n)
        for start in range(0, n, S):
            stop = min(start + S, n)
            weights, _ = attention.causal_softmax(inputs, head, start, stop)
            tile = np.zeros(n)
            attention.offset_sums(weights, tile)
            brute = window_mass_oracle(weights, stop)[2]
            assert np.array_equal(tile[:stop], brute)
            assert not tile[stop:].any()
            attention.offset_sums(weights, total)
            want[:stop] += brute
        assert np.abs(total - want).max() <= 1e-12


def full_matrix_recall(inputs, cells):
    """Dense causal softmax mass on the cells, averaged over rows and heads."""
    n = inputs.seq_len
    total = 0.0
    for head in range(inputs.num_q_heads):
        g = inputs.group_map[head]
        logits = inputs.queries[head] @ inputs.keys[g].T / np.sqrt(inputs.head_dim)
        logits[~np.tri(n, dtype=bool)] = -np.inf
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        total += (w / w.sum(axis=1, keepdims=True))[cells[head]].sum()
    return total / (inputs.num_q_heads * n)


# the plan types whose write_cells expands a bitmap
PREFILL_PLAN_TYPES = (VerticalSlashPlan, BlockPlan, EvictionPlan)


def random_prefill_plans(rng, n, heads, kv_heads, with_first=True):
    """A vertical-slash, a block and an eviction plan with random members.
    With ``with_first`` every row keeps a cell (offset 0, key block 0 or
    token 0); without it, row 0 may read nothing."""
    low = 0 if with_first else 1

    def members():
        picked = np.flatnonzero(rng.random(n) < rng.uniform(0.05, 0.6))
        return np.union1d(picked[picked >= low], [0 if with_first else n - 1])

    vs = VerticalSlashPlan(
        tuple(members() for _ in range(heads)),
        # dense low offsets overlap the verticals on many cells
        tuple(np.union1d(members(), np.arange(low, min(n, 4))) for _ in range(heads)),
        seq_len=n,
    )
    nb = -(-n // BLOCK_SIZE)
    selections = np.tril(rng.random((heads, nb, nb)) < 0.4)
    selections[:, np.arange(nb), np.arange(nb)] = True
    block = BlockPlan(selections, seq_len=n)
    eviction = EvictionPlan(tuple(members() for _ in range(kv_heads)), seq_len=n)
    return [vs, block, eviction] if with_first else [vs, eviction]


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 300), kv=st.sampled_from([1, 2]))
@example(seed=0, n=1, kv=1)
@example(seed=1, n=15, kv=2)
@example(seed=2, n=16, kv=1)
@example(seed=3, n=17, kv=2)
@example(seed=4, n=255, kv=1)
@example(seed=5, n=256, kv=2)
@example(seed=6, n=257, kv=1)
def test_plan_tiles_match_full_matrix_reference(seed, n, kv):
    """Vertical-slash (offset 0, verticals over the slashes), block (a
    partial last block) and eviction plans (1:1 and 2:1 group maps): the
    kernel on a plan's mask and the recall against the full-matrix
    softmax.  A row with no cells has a log-sum-exp of -inf."""
    rng = np.random.default_rng(seed)
    heads = kv * int(rng.choice([1, 2]))
    inputs = random_inputs(rng, n, num_q_heads=heads, num_kv_heads=kv)
    for plan in random_prefill_plans(rng, n, heads, kv):
        mask = to_cell_mask(plan, inputs.group_map)
        want = full_matrix_reference(inputs, mask.cells)
        got = masked_attention(inputs, mask).output
        assert np.abs(got - want).max() <= 1e-12
        assert attention_recall(plan, inputs) == pytest.approx(
            full_matrix_recall(inputs, mask.cells), abs=1e-12
        )
    if n > 1:
        for plan in random_prefill_plans(rng, n, heads, kv, with_first=False):
            for head in range(heads):
                tiles = plan.tiles(inputs, inputs.group_map, head)
                lse = attention.row_logsumexp(inputs, tiles)
                assert lse[0] == -np.inf
                assert np.isfinite(lse[n - 1])
            assert np.isfinite(attention_recall(plan, inputs))


def test_rows_before_a_plans_first_cell_read_nothing(rng):
    """Rows below a plan's first vertical, kept token and slash offset
    leave whole column tiles empty: their log-sum-exp is -inf and the
    recall counts no mass for them."""
    n = 300
    inputs = random_inputs(rng, n, num_q_heads=2, num_kv_heads=1)
    last = np.zeros((2, n, n), dtype=bool)
    last[:, n - 1, n - 1] = True
    with_slash = last.copy()
    with_slash[:, np.arange(200, n), np.arange(n - 200)] = True
    vs = VerticalSlashPlan((np.array([n - 1]),) * 2, (np.array([200]),) * 2, seq_len=n)
    eviction = EvictionPlan((np.array([n - 1]),), seq_len=n)
    for plan, first, want in ((vs, 200, with_slash), (eviction, n - 1, last)):
        for head in range(2):
            tiles = plan.tiles(inputs, inputs.group_map, head)
            lse = attention.row_logsumexp(inputs, tiles)
            assert (lse[:first] == -np.inf).all() and np.isfinite(lse[first:]).all()
        assert attention_recall(plan, inputs) == pytest.approx(
            full_matrix_recall(inputs, want), abs=1e-12
        )


def test_recall_builds_no_bitmap(rng, monkeypatch):
    """Recall of a prefill-style plan reads its units' cached masses; no
    cell matrix or CellMask is built."""
    inputs = random_inputs(rng, 200)
    plans = random_prefill_plans(rng, 200, inputs.num_q_heads, inputs.num_kv_heads)
    want = [attention_recall(plan, inputs) for plan in plans]

    def refuse(*args, **kwargs):
        raise AssertionError("recall built a bitmap")

    for plan_type in PREFILL_PLAN_TYPES:
        monkeypatch.setattr(plan_type, "write_cells", refuse)
    monkeypatch.setattr(accounting, "CellMask", refuse)
    assert [attention_recall(plan, inputs) for plan in plans] == want


@pytest.mark.parametrize("n", [1, 17, 300])
def test_mask_and_kernel_build_no_bitmap(rng, monkeypatch, n):
    """``to_cell_mask`` and ``masked_attention`` write no cell; the cells
    are expanded when first read, and equal a brute-force bitmap."""
    inputs = random_inputs(rng, n)
    plans = random_prefill_plans(rng, n, inputs.num_q_heads, inputs.num_kv_heads)

    def refuse(*args, **kwargs):
        raise AssertionError("a bitmap was built")

    with monkeypatch.context() as patched:
        for plan_type in PREFILL_PLAN_TYPES:
            patched.setattr(plan_type, "write_cells", refuse)
        masks = [to_cell_mask(plan, inputs.group_map) for plan in plans]
        for mask in masks:
            masked_attention(inputs, mask)
    for plan, mask in zip(plans, masks):
        assert np.array_equal(mask.cells, plan_cells_oracle(plan, inputs.group_map))
        assert not mask.cells.flags.writeable


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 300), kv=st.sampled_from([1, 2]))
@example(seed=0, n=2, kv=1)
@example(seed=1, n=17, kv=2)
def test_to_cell_mask_rejects_an_empty_first_row(seed, n, kv):
    """Plans whose row 0 reads no key (no vertical 0 or slash 0, no token
    0) are refused, naming the first such query head."""
    rng = np.random.default_rng(seed)
    heads = 2 * kv
    group_map = default_group_map(heads, kv)
    for plan in random_prefill_plans(rng, n, heads, kv, with_first=False):
        with pytest.raises(ValueError, match="head 0 row 0 selects no key"):
            to_cell_mask(plan, group_map)


def test_inputs_validation():
    ok = np.zeros((2, 4, 3))
    with pytest.raises(ValueError):
        AttentionInputs.from_arrays(ok, np.zeros((2, 5, 3)), np.zeros((2, 5, 3)))
    with pytest.raises(ValueError):
        AttentionInputs.from_arrays(ok, np.zeros((2, 4, 3)), np.zeros((2, 4, 2)))
    bad = ok.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        AttentionInputs.from_arrays(bad, ok.copy(), ok.copy())
    with pytest.raises(ValueError):
        default_group_map(3, 2)
    with pytest.raises(ValueError):
        AttentionInputs.from_arrays(np.zeros((3, 4, 3)), ok, ok, group_map=(0, 0, 0))
    empty = np.zeros((2, 0, 3))
    with pytest.raises(ValueError, match="seq_len must be at least 1, got 0"):
        AttentionInputs.from_arrays(empty, empty, empty)


@pytest.mark.parametrize("generator", ["uniform", "planted", "clustered"])
@pytest.mark.parametrize("n", [0, -3])
def test_inputs_reject_an_empty_sequence(generator, n):
    with pytest.raises(ValueError, match=f"seq_len must be at least 1, got {n}"):
        make_inputs(generator, n)


@pytest.mark.parametrize("positions", [(-1,), (300,), ()], ids=["negative", "past_last", "empty"])
def test_inputs_reject_needles_outside_the_sequence(positions):
    """A needle must be one of the n positions: -1 used to plant at n - 1,
    n raised a bare IndexError and () numpy's own error."""
    with pytest.raises(ValueError, match=re.escape(f"{positions} must be some of range(300)")):
        make_inputs("planted", 300, needle_positions=positions)


@pytest.mark.parametrize(
    "positions, repeated",
    [((5, 5), [5]), ((9, 5, 9, 5, 7), [5, 9])],
    ids=["pair", "two_pairs"],
)
def test_inputs_reject_a_repeated_needle(positions, repeated):
    """A repeated needle used to overwrite the first one's key while queries
    still leaned toward the lost direction."""
    with pytest.raises(ValueError, match=re.escape(f"{positions} name {repeated} more than once")):
        make_inputs("planted", 300, needle_positions=positions)


@pytest.mark.parametrize("generator", ["uniform", "clustered"])
def test_only_planted_inputs_take_needles(generator):
    with pytest.raises(ValueError, match=f"planted generator only, not '{generator}'"):
        make_inputs(generator, 300, needle_positions=(5,))


def test_cell_mask_validation():
    """A plan mask's row 0 must read a key; its cells, rows and counts."""
    first, later = np.array([0]), np.array([1, 3])
    for bad in (
        VerticalSlashPlan((first, later), (later, later), seq_len=5),
        EvictionPlan((first, later), seq_len=5),
    ):
        with pytest.raises(ValueError, match="head 1 row 0 selects no key"):
            to_cell_mask(bad, (0, 1))
    group_map = (0, 0)
    full = to_cell_mask(BlockPlan(np.ones((2, 1, 1), dtype=bool), seq_len=5), group_map)
    assert full.num_cells() == 2 * 15
    assert full.row(0, 3).tolist() == [0, 1, 2, 3]
    diagonal = VerticalSlashPlan((later,) * 2, (first,) * 2, seq_len=5)
    assert to_cell_mask(diagonal, group_map).num_cells() == 2 * (5 + 3 + 1)
    assert is_superset_of(full, to_cell_mask(diagonal, group_map))


@pytest.mark.parametrize("n", [140, 300])
def test_window_is_scored_once_per_head(rng, monkeypatch, n):
    """Every window-scored build and calibration step reads one cache, filled
    by one ``causal_softmax`` read per query head, and each builder's rank
    stage is filled once: ``rank`` runs once for ``unit_rank``, once for
    ``coverage_rank`` and twice (per head and pooled) for each eviction
    reduction, and a second round of builds ranks nothing more."""
    inputs = random_inputs(rng, n)
    calls = []
    real = attention.window_weights_head

    def counted(inputs, head, start, stop):
        calls.append(head)
        return attention.causal_softmax(inputs, head, start, stop)

    monkeypatch.setattr(accounting, "causal_softmax", counted)
    ranked = []
    for module in (vertical_slash, eviction):

        def counted_rank(scores, forced, real=module.rank, name=module.__name__):
            ranked.append(name.rpartition(".")[2])
            return real(scores, forced)

        monkeypatch.setattr(module, "rank", counted_rank)
    for _ in range(2):
        for budget in (64, 96):
            build_vertical_slash(inputs, budget // 8, budget)
        for alpha in (0.3, 0.9):
            build_flexprefill(inputs, FlexPrefillConfig(alpha=alpha, min_budget=68))
        for capacity in (132, 140):
            snapkv_compress(inputs, capacity)
            ada_snapkv_compress(inputs, capacity)
        smallest_budget("vertical_slash", inputs, 0.5)
    assert sorted(calls) == list(range(inputs.num_q_heads))
    assert sorted(ranked) == ["eviction"] * 4 + ["vertical_slash"] * 2

    stats = inputs.cached(vertical_slash.window_stats)
    for arr in stats:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    for head in range(inputs.num_q_heads):
        weights = real(inputs, head)
        col_sum, col_max, slash_sum = window_mass_oracle(weights, n)
        assert np.array_equal(stats.columns[head], col_sum)
        # the eviction oracle's per-token term: one head's window mass per key
        assert np.array_equal(stats.columns[head], weights.sum(axis=0))
        assert np.array_equal(stats.column_max[head], col_max)
        assert np.array_equal(stats.slashes[head], slash_sum)
        assert stats.total[head] == pytest.approx(min(256, n), rel=1e-12)


def stage_arrays(result) -> list[np.ndarray]:
    """The arrays a cached stage returned: itself, a tuple's items or an
    object's fields."""
    if isinstance(result, np.ndarray):
        return [result]
    fields = result if isinstance(result, tuple) else vars(result).values()
    return [field for field in fields if isinstance(field, np.ndarray)]


def test_every_cached_array_is_read_only():
    """Every stage filled on one input (window scoring, the vertical-slash,
    flexprefill and eviction ranks, the block rank, the page index and the
    recall oracle's dense masses, six arrays in each of the two
    ``DenseMass`` stages) is kept read-only, so no in-place write can change
    a later plan or recall."""
    inputs = make_inputs("planted", 300, seed=0)
    plan = build_vertical_slash(inputs, 16, 64)
    recall = attention_recall(plan, inputs)
    build_flexprefill(inputs, FlexPrefillConfig(alpha=0.5, min_budget=68))
    snapkv_compress(inputs, 140)
    ada_snapkv_compress(inputs, 140)
    build_block_sparse(inputs, 4)
    quest_plan(inputs, 64)
    assert len(inputs._stages) == 8
    arrays = [array for result in inputs._stages.values() for array in stage_arrays(result)]
    assert len(arrays) == 22
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array += 1
    assert attention_recall(plan, inputs) == recall
    again = build_vertical_slash(inputs, 16, 64)
    for got, want in zip(again.verticals + again.slashes, plan.verticals + plan.slashes):
        assert np.array_equal(got, want)


def test_window_scoring_holds_one_window_array():
    """One head's window scoring allocates little beyond its [window, n]
    result: the softmax runs in place."""
    inputs = make_inputs("planted", 4096, seed=0)
    tracemalloc.start()
    try:
        weights = attention.window_weights_head(inputs, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert weights.shape == (256, 4096)
    assert peak < 1.5 * weights.nbytes


def test_window_stats_holds_one_window_at_a_time():
    """Filling ``window_stats`` frees each head's [window, n] weights before
    the next head is scored, so its peak stays near one window."""
    inputs = make_inputs("planted", 4096, seed=0)
    tracemalloc.start()
    try:
        inputs.cached(vertical_slash.window_stats)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 256 * 4096 * 8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_planted_inputs_at_tiny_lengths(n):
    """The default needle is drawn from the first max(1, n // 2) positions,
    so every length below 4 plants it at token 0."""
    inputs = make_inputs("planted", n, seed=0)
    assert inputs.seq_len == n
    assert np.allclose(np.linalg.norm(inputs.keys[:, 0], axis=-1), 12.0)


# sha256 of planted inputs at the benchmark's heads, pinned from the
# generator that stacked each query head's needle directions row by row
PLANTED_INPUTS_DIGEST = "f9d0f1d9144d0c011cb1a8703c816f4fb85cdeff1df0207f97fbc9fab31e338a"


def test_planted_inputs_byte_identical():
    digest = hashlib.sha256()
    for n in (1, 17, 300, 2048, 16384):
        for seed in (0, 7):
            inputs = make_inputs("planted", n, seed=seed)
            for array in (inputs.queries, inputs.keys, inputs.values):
                digest.update(array.tobytes())
    assert digest.hexdigest() == PLANTED_INPUTS_DIGEST
