import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparselab.attention import (
    AttentionInputs,
    CellMask,
    decode_step,
    default_group_map,
    dense_prefill,
    masked_attention,
)
from sparselab.synthetic import make_inputs

from conftest import naive_attention, random_inputs


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
    inputs = random_inputs(rng, 96)
    mask = CellMask.full_causal(inputs.num_q_heads, inputs.seq_len)
    dense = dense_prefill(inputs, with_weights=True)
    masked = masked_attention(inputs, mask, with_weights=True)
    assert np.abs(masked.output - dense.output).max() <= 1e-7
    assert np.abs(masked.weights - dense.weights).max() <= 1e-7


def test_masked_weights_renormalize_over_support(rng):
    inputs = random_inputs(rng, 40)
    h, n = inputs.num_q_heads, inputs.seq_len
    # a random density per row; the diagonal keeps every row non-empty
    cells = np.tril(rng.random((h, n, n)) < rng.random((h, n, 1)))
    cells[:, np.arange(n), np.arange(n)] = True
    mask = CellMask(cells)
    out = masked_attention(inputs, mask, with_weights=True)
    sums = out.weights.sum(axis=2)
    assert np.abs(sums - 1.0).max() <= 1e-6
    # nothing outside the permitted support
    for head in range(h):
        off = out.weights[head][~mask.dense(head)]
        assert np.all(off == 0.0)


def test_decode_step_matches_masked_last_row(rng):
    inputs = random_inputs(rng, 64)
    n = inputs.seq_len
    row = np.sort(rng.choice(n, size=17, replace=False))
    cells = np.tril(np.ones((4, n, n), dtype=bool))
    cells[:, -1] = False
    cells[:, -1, row] = True
    full = masked_attention(inputs, CellMask(cells))
    step = decode_step(inputs, row)
    assert np.abs(step.output[:, 0] - full.output[:, -1]).max() <= 1e-12


def test_decode_step_per_head_rows(rng):
    inputs = random_inputs(rng, 32)
    per_head = [np.sort(rng.choice(32, size=5, replace=False)) for _ in range(4)]
    out = decode_step(inputs, per_head, with_weights=True)
    assert out.output.shape == (4, 1, inputs.head_dim)
    for h in range(4):
        w = out.weights[h, 0]
        assert abs(w.sum() - 1.0) <= 1e-9
        assert np.all(w[np.setdiff1d(np.arange(32), per_head[h])] == 0.0)


def test_softmax_saturation_stays_finite(rng):
    inputs = random_inputs(rng, 24, scale=1e4)
    out = dense_prefill(inputs, with_weights=True)
    assert np.isfinite(out.output).all()
    assert np.abs(out.weights.sum(axis=2) - 1.0).max() <= 1e-6


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
    against dense output (checked as an average over seeds)."""
    i, j = np.arange(128)[:, None], np.arange(128)[None, :]
    small = (j <= i) & ((j == 0) | (i - j <= 8))
    big = small | ((j <= i) & (j % 4 == 0))
    deltas = []
    for seed in range(20):
        inputs = make_inputs("planted", 128, seed=seed, needle_positions=(40, 90))
        dense = dense_prefill(inputs).output
        small_mask = CellMask(np.repeat(small[None], inputs.num_q_heads, axis=0))
        big_mask = CellMask(np.repeat(big[None], inputs.num_q_heads, axis=0))
        assert big_mask.is_superset_of(small_mask)
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
    inputs = random_inputs(rng, n, num_q_heads=kv * mult, num_kv_heads=kv, head_dim=4)
    out = dense_prefill(inputs, with_weights=True)
    assert np.abs(out.weights.sum(axis=2) - 1.0).max() <= 1e-6
    tri = np.triu_indices(n, k=1)
    for h in range(inputs.num_q_heads):
        assert np.all(out.weights[h][tri] == 0.0)


def full_matrix_reference(inputs, cells):
    """Float64 masked softmax over the full [n, n] logits of every head:
    (output, weights)."""
    h, n = inputs.num_q_heads, inputs.seq_len
    out = np.empty(inputs.queries.shape)
    weights = np.empty((h, n, n))
    for head in range(h):
        g = inputs.group_map[head]
        logits = inputs.queries[head] @ inputs.keys[g].T / np.sqrt(inputs.head_dim)
        logits[~cells[head]] = -np.inf
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights[head] = w / w.sum(axis=1, keepdims=True)
        out[head] = weights[head] @ inputs.values[g]
    return out, weights


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 70), kv=st.sampled_from([1, 2]))
@example(seed=0, n=1, kv=1)
@example(seed=1, n=15, kv=2)
@example(seed=2, n=32, kv=1)
@example(seed=3, n=70, kv=2)
def test_tiled_kernels_match_full_matrix_reference(seed, n, kv):
    """dense_prefill and masked_attention, output and weights, against the
    full-matrix softmax: below one tile, at whole tiles and with a partial
    last tile."""
    rng = np.random.default_rng(seed)
    inputs = random_inputs(rng, n, num_q_heads=2 * kv, num_kv_heads=kv)
    h = inputs.num_q_heads
    cells = np.tril(rng.random((h, n, n)) < rng.random((h, n, 1)))
    # one random causal key per row keeps every row non-empty
    rows = np.arange(n)
    picks = (rng.random((h, n)) * (rows + 1)).astype(int)
    cells[np.arange(h)[:, None], rows, picks] = True
    causal = np.broadcast_to(np.tri(n, dtype=bool), (h, n, n))
    for got, support in (
        (dense_prefill(inputs, with_weights=True), causal),
        (masked_attention(inputs, CellMask(cells), with_weights=True), cells),
    ):
        want_out, want_weights = full_matrix_reference(inputs, support)
        assert np.abs(got.output - want_out).max() <= 1e-12
        assert np.abs(got.weights - want_weights).max() <= 1e-12


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


def test_cell_mask_validation():
    causal = np.tril(np.ones((1, 3, 3), dtype=bool))
    ahead = causal.copy()
    ahead[0, 1, 2] = True
    empty = causal.copy()
    empty[0, 2] = False
    for bad in (ahead, empty, causal.astype(np.int8), causal[:, :, :2], causal[0]):
        with pytest.raises(ValueError):
            CellMask(bad)
    mask = CellMask.full_causal(2, 5)
    assert mask.num_cells() == 2 * 15
    assert mask.row(0, 3).tolist() == [0, 1, 2, 3]
    assert mask.is_superset_of(CellMask(np.eye(5, dtype=bool)[None].repeat(2, axis=0)))
