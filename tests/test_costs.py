import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparselab.costs import (
    CostSpec,
    ParetoPoint,
    decode_memory,
    decode_speedup,
    model_presets,
    pareto_frontier,
    prefill_flops,
    prefill_speedup,
    quest_indexing_memory,
    spec_from_preset,
    sweep_rows,
    vs_indexing_flops,
    write_csv,
)

TINY = CostSpec(
    seq_len=128,
    hidden_dim=64,
    num_q_heads=4,
    head_dim=16,
    num_kv_heads=2,
    num_layers=2,
    mlp_dim=256,
    vocab_size=1000,
)


def test_prefill_hand_expansion():
    """Transcribe the component formulas independently and compare."""
    L, d, h, dh, nkv, N, dm, V = 128, 64, 4, 16, 2, 2, 256, 1000
    embedding = 2 * L * d
    linear = 2 * L * d * (d + 2 * dh * nkv + d)
    quadratic = 2 * h * L * L * dh + 3 * h * L * L + 2 * h * L * L * dh
    attention = N * (linear + 1.0 * quadratic)
    mlp = N * (6 * L * d * dm + 2 * L * dm)
    logits = 2 * L * d * V
    report = prefill_flops(TINY)
    assert report.total == embedding + attention + mlp + logits
    assert report.components["attention"] == attention
    assert report.attention_share == attention / report.total


def test_decode_hand_expansion():
    L, d, dh, nkv, N, dm, V = 128, 64, 16, 2, 2, 256, 1000
    weights = N * (4 * d * d + 3 * d * dm) + d * V + d
    kv = N * 2 * L * dh * nkv
    report = decode_memory(replace(TINY, batch_size=3, density=0.5))
    assert report.total == weights + 3 * kv * 0.5
    assert report.components["kv_cache"] == 3 * kv * 0.5


def test_prefill_linear_in_batch_and_density():
    base = prefill_flops(TINY).total
    assert prefill_flops(replace(TINY, batch_size=5)).total == 5 * base

    def total(rho):
        return prefill_flops(replace(TINY, density=rho)).total

    # attention component is affine in density: equal density steps cost the same
    assert total(0.75) - total(0.5) == pytest.approx(total(0.5) - total(0.25), rel=1e-12)
    assert total(1.0) - total(0.5) == pytest.approx(2 * (total(1.0) - total(0.75)), rel=1e-12)


def test_decode_kv_linear_in_batch_length_density():
    def kv(batch, L, rho):
        return decode_memory(
            replace(TINY, batch_size=batch, seq_len=L, density=rho)
        ).components["kv_cache"]

    assert kv(4, 128, 1.0) == 4 * kv(1, 128, 1.0)
    assert kv(1, 256, 1.0) == 2 * kv(1, 128, 1.0)
    assert kv(1, 128, 0.25) == pytest.approx(0.25 * kv(1, 128, 1.0))


def test_sliding_window_at_or_above_length_is_dense():
    dense = replace(TINY, layer_kinds=None)
    windowed = replace(TINY, layer_kinds=(128, 4096))
    assert prefill_flops(windowed).total == prefill_flops(dense).total
    assert decode_memory(windowed).total == decode_memory(dense).total


def test_sliding_window_trapezoid():
    """A w-window layer pays Σ_i min(i+… , w) interactions; check the ratio
    against direct summation."""
    L, w = 128, 32
    spec = replace(TINY, num_layers=1, layer_kinds=(w,))
    dense = replace(TINY, num_layers=1, layer_kinds=None)
    quad_dense = prefill_flops(dense).components["attention"] - prefill_flops(
        replace(dense, density=1e-12)
    ).components["attention"]
    want_ratio = sum(min(i + 1, w) for i in range(L)) / (L * (L + 1) // 2)
    got = prefill_flops(spec).components["attention"]
    base = prefill_flops(replace(dense, density=1e-12)).components["attention"]
    assert (got - base) / quad_dense == pytest.approx(want_ratio, rel=1e-9)


def test_sliding_window_decode_ignores_density():
    spec = replace(TINY, layer_kinds=(32, 32), density=0.2)
    full = replace(TINY, layer_kinds=(32, 32), density=1.0)
    assert decode_memory(spec).total == decode_memory(full).total


def test_prefill_speedup_is_amdahl_on_attention_share():
    """The reducible fraction is the dense layers' whole attention component
    (what the share reports call "attention"), so the speedup must equal the
    Amdahl ratio computed from that share."""
    spec = replace(TINY, seq_len=512)
    report = prefill_flops(spec)
    share = report.attention_share
    for rho in (0.1, 0.2, 0.5, 1.0):
        want = 1.0 / (1.0 - (1.0 - rho) * share)
        assert prefill_speedup(spec, rho) == pytest.approx(want, rel=1e-12)
    assert prefill_speedup(spec, 1.0) == 1.0
    with pytest.raises(ValueError):
        prefill_speedup(spec, 0.0)


def test_prefill_speedup_excludes_sliding_layers():
    hybrid = replace(TINY, seq_len=512, layer_kinds=(None, 32))
    all_dense = replace(TINY, seq_len=512, layer_kinds=None)
    # only one of two layers is reducible, so the hybrid speedup must be lower
    assert prefill_speedup(hybrid, 0.2) < prefill_speedup(all_dense, 0.2)
    window_only = replace(TINY, seq_len=512, layer_kinds=(32, 32))
    assert prefill_speedup(window_only, 0.2) == 1.0


def test_decode_speedup_ratio():
    spec = replace(TINY, seq_len=4096, batch_size=16)
    dense = decode_memory(replace(spec, density=1.0)).total
    sparse = decode_memory(replace(spec, density=0.2)).total
    assert decode_speedup(spec, 0.2) == pytest.approx(dense / sparse, rel=1e-12)
    assert decode_speedup(spec, 1.0) == 1.0


def test_indexing_hand_expansions():
    """Counted per head: a query head scores its window with head_dim-long
    dot products, and a kv head's page index holds a min and a max vector
    of head_dim elements per page."""
    spec = replace(TINY, seq_len=1024, batch_size=2)
    L, dh, q, batch, layers, heads, kv_heads = 1024, 16, 64, 2, 2, 4, 2
    window_logits = 2 * dh * L * q
    per_head = (
        window_logits + 3 * L * q + 2 * L * q + 2 * L * math.log2(L) + (L / 64) * (16 + 64)
    )
    assert vs_indexing_flops(spec, q, 16, 64) == batch * layers * heads * per_head
    page_index = 2 * dh * (L / 16)
    assert quest_indexing_memory(spec, 16) == batch * layers * kv_heads * page_index
    with pytest.raises(ValueError):
        quest_indexing_memory(spec, 0)


def test_model_presets_complete():
    presets = model_presets()
    assert set(presets) == {
        "qwen2.5-7b",
        "qwen2.5-14b",
        "qwen2.5-32b",
        "qwen2.5-72b",
        "llama3.1-8b",
        "llama3.1-70b",
        "gemma3-4b",
        "gemma3-12b",
        "gemma3-27b",
    }
    spec = spec_from_preset("qwen2.5-7b", 16384)
    assert (spec.hidden_dim, spec.num_layers, spec.num_kv_heads) == (3584, 28, 4)
    assert spec.layer_kinds is None
    gem = spec_from_preset("gemma3-12b", 16384)
    assert gem.layer_kinds is not None
    assert gem.layer_kinds.count(None) * 6 == gem.num_layers
    assert set(gem.layer_kinds) == {None, 1024}
    with pytest.raises(KeyError):
        spec_from_preset("gpt-99", 16384)


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        replace(TINY, density=0.0)
    with pytest.raises(ValueError):
        replace(TINY, density=1.5)
    with pytest.raises(ValueError):
        replace(TINY, layer_kinds=(None,))
    with pytest.raises(ValueError):
        replace(TINY, layer_kinds=(0, 32))


def oracle_frontier(points):
    def dominates(a, b):
        return (
            a.cost <= b.cost
            and a.performance >= b.performance
            and (a.cost < b.cost or a.performance > b.performance)
        )

    return [p for p in points if not any(dominates(q, p) for q in points)]


def as_multiset(points):
    return sorted((p.cost, p.performance, p.label) for p in points)


def test_pareto_matches_quadratic_oracle():
    rng = np.random.default_rng(7)
    points = [
        ParetoPoint(float(c), float(p), ("pt", i))
        for i, (c, p) in enumerate(zip(rng.uniform(0, 10, 400), rng.uniform(0, 1, 400)))
    ]
    assert as_multiset(pareto_frontier(points)) == as_multiset(oracle_frontier(points))


def test_pareto_permutation_invariance():
    rng = np.random.default_rng(8)
    points = [
        ParetoPoint(float(c), float(p), ("pt", i))
        for i, (c, p) in enumerate(zip(rng.uniform(0, 5, 60), rng.uniform(0, 1, 60)))
    ]
    base = as_multiset(pareto_frontier(points))
    for seed in range(5):
        shuffled = list(points)
        np.random.default_rng(seed).shuffle(shuffled)
        assert as_multiset(pareto_frontier(shuffled)) == base


def test_pareto_edge_cases():
    lone = ParetoPoint(1.0, 0.5, ("solo",))
    assert pareto_frontier([lone]) == [lone]
    rising = [ParetoPoint(float(i), i / 10, ("r", i)) for i in range(8)]
    assert as_multiset(pareto_frontier(rising)) == as_multiset(rising)
    twin = [ParetoPoint(1.0, 0.5, ("a",)), ParetoPoint(1.0, 0.5, ("b",))]
    assert len(pareto_frontier(twin)) == 2
    flat = [ParetoPoint(1.0, 0.5, ("keep",)), ParetoPoint(2.0, 0.5, ("drop",))]
    assert [p.label for p in pareto_frontier(flat)] == [("keep",)]
    with pytest.raises(ValueError):
        pareto_frontier([])
    with pytest.raises(ValueError):
        ParetoPoint(1.0, 1.5, ("bad",))
    with pytest.raises(ValueError):
        ParetoPoint(-1.0, 0.5, ("bad",))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 12),
            st.integers(0, 10),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_pareto_oracle_property(raw):
    # coarse integer grids force plenty of exact ties and duplicates
    points = [
        ParetoPoint(float(c), p / 10.0, ("g", i)) for i, (c, p) in enumerate(raw)
    ]
    assert as_multiset(pareto_frontier(points)) == as_multiset(oracle_frontier(points))


def test_sweep_rows_and_csv(tmp_path):
    rows = sweep_rows(["qwen2.5-7b"], [16384], [1.0, 0.2], batch_size=2)
    assert len(rows) == 2
    assert rows[1]["prefill_speedup"] > 1.0
    out = tmp_path / "sweep.csv"
    write_csv(rows, out)
    text = out.read_text().splitlines()
    assert text[0].startswith("model,seq_len,batch_size,density")
    assert len(text) == 3
