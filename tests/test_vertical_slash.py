import numpy as np
import pytest

from sparselab.attention import AttentionInputs, window_weights_head
from sparselab.patterns import (
    FORCED_LOCAL,
    FORCED_PREFIX,
    FlexPrefillConfig,
    attention_recall,
    build_flexprefill,
    build_vertical_slash,
    plan_sparsity,
    smallest_budget,
    vertical_slash_cells,
)
from sparselab.patterns.calibration import METHODS
from sparselab.synthetic import make_inputs

from conftest import random_inputs, tied_inputs, window_mass_oracle


def test_forced_members_always_selected(rng):
    inputs = make_inputs("clustered", 512, seed=3)
    plan = build_vertical_slash(inputs, 32, 96)
    for v, s in zip(plan.verticals, plan.slashes):
        assert set(range(FORCED_PREFIX)) <= set(v.tolist())
        assert set(range(FORCED_LOCAL)) <= set(s.tolist())
        assert v.size == 32
        assert s.size == 96


def test_planted_column_is_selected():
    for seed in range(5):
        needle = 217
        inputs = make_inputs("planted", 512, seed=seed, needle_positions=(needle,))
        plan = build_vertical_slash(inputs, 8, 64)
        for v in plan.verticals:
            assert needle in v.tolist()


def test_full_budget_covers_causal_triangle(rng):
    inputs = random_inputs(rng, 300)
    plan = build_vertical_slash(inputs, 300, 300)
    report = plan_sparsity(plan)
    assert report.computed_cells == report.causal_cells
    assert report.achieved_sparsity == 0.0
    assert attention_recall(plan, inputs) == pytest.approx(1.0, abs=1e-12)


def test_tie_break_prefers_lower_index():
    # identical keys make every column and offset tie on score
    q = np.ones((2, 320, 8))
    k = np.ones((1, 320, 8))
    v = np.zeros((1, 320, 8))
    inputs = AttentionInputs.from_arrays(q, k, v)
    plan = build_vertical_slash(inputs, 10, 70)
    for vs, sl in zip(plan.verticals, plan.slashes):
        assert vs.tolist() == list(range(10))
        assert sl.tolist() == list(range(70))


def test_budget_validation(rng):
    inputs = random_inputs(rng, 300)
    with pytest.raises(ValueError):
        build_vertical_slash(inputs, FORCED_PREFIX - 1, 64)
    with pytest.raises(ValueError):
        build_vertical_slash(inputs, 8, FORCED_LOCAL - 1)
    with pytest.raises(ValueError):
        build_vertical_slash(inputs, 301, 64)


@pytest.mark.parametrize("n", [1, 5, 63])
def test_builds_below_the_forced_offsets(rng, n):
    """Below FORCED_LOCAL tokens the forced members are every offset that
    exists, so the smallest budgets are min(FORCED_PREFIX, n) columns and n
    offsets; one fewer is still rejected."""
    inputs = random_inputs(rng, n)
    v_min, s_min = min(FORCED_PREFIX, n), min(FORCED_LOCAL, n)
    plan = build_vertical_slash(inputs, v_min, s_min)
    for v, s in zip(plan.verticals, plan.slashes):
        assert v.tolist() == list(range(v_min))
        assert s.tolist() == list(range(n))
    assert plan_sparsity(plan).achieved_sparsity == 0.0
    with pytest.raises(ValueError, match="num_slashes must be >="):
        build_vertical_slash(inputs, v_min, s_min - 1)
    with pytest.raises(ValueError, match="num_verticals must be >="):
        build_vertical_slash(inputs, v_min - 1, s_min)
    # min_budget 1 lifts to the forced units, which are (v_min, s_min) here
    fallback = build_flexprefill(inputs, FlexPrefillConfig(alpha=0.0, min_budget=1))
    assert [v.tolist() for v in fallback.verticals] == [v.tolist() for v in plan.verticals]
    assert [s.tolist() for s in fallback.slashes] == [s.tolist() for s in plan.slashes]
    search = smallest_budget("vertical_slash", inputs, 0.5)
    assert search.count == n


@pytest.mark.parametrize("n", [65, 200, 255])
def test_builds_below_the_observation_window(rng, n):
    """A sequence shorter than APPROX_WINDOW is scored over all of its rows."""
    inputs = random_inputs(rng, n)
    assert window_weights_head(inputs, 0).shape == (n, n)
    plan = build_vertical_slash(inputs, 8, 64)
    assert all(v.size == 8 for v in plan.verticals)
    assert all(s.size == 64 for s in plan.slashes)
    flex = build_flexprefill(inputs, FlexPrefillConfig(alpha=0.5, min_budget=68))
    verticals, slashes = flexprefill_oracle(inputs, 0.5, 68)
    assert [v.tolist() for v in flex.verticals] == verticals
    assert [s.tolist() for s in flex.slashes] == slashes
    search = smallest_budget("vertical_slash", inputs, 0.3)
    assert FORCED_LOCAL <= search.count <= n


def test_determinism_bit_for_bit():
    a = build_vertical_slash(make_inputs("clustered", 512, seed=9), 24, 80)
    b = build_vertical_slash(make_inputs("clustered", 512, seed=9), 24, 80)
    for va, vb in zip(a.verticals, b.verticals):
        assert np.array_equal(va, vb)
    for sa, sb in zip(a.slashes, b.slashes):
        assert np.array_equal(sa, sb)


def test_recall_monotone_in_each_budget():
    for seed in range(6):
        inputs = make_inputs("clustered", 512, seed=seed)
        recalls_v = [
            attention_recall(build_vertical_slash(inputs, kv, 64), inputs)
            for kv in (8, 16, 32, 64, 128)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(recalls_v, recalls_v[1:]))
        recalls_s = [
            attention_recall(build_vertical_slash(inputs, 8, ks), inputs)
            for ks in (64, 96, 128, 192, 256)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(recalls_s, recalls_s[1:]))


def test_flexprefill_alpha_zero_equals_vertical_slash():
    """alpha = 0 keeps min_budget verticals and min_budget slashes, the
    slashes lifted to the FORCED_LOCAL forced offsets."""
    inputs = make_inputs("clustered", 512, seed=11)
    flex = build_flexprefill(inputs, FlexPrefillConfig(alpha=0.0, min_budget=24))
    uniform = build_vertical_slash(inputs, 24, FORCED_LOCAL)
    for a, b in zip(flex.verticals, uniform.verticals):
        assert np.array_equal(a, b)
    for a, b in zip(flex.slashes, uniform.slashes):
        assert np.array_equal(a, b)


def test_explicit_flexprefill_alpha_zero_falls_back_to_min_budget():
    """Through the registry, alpha = 0 keeps min_budget verticals and
    min_budget slashes, as every calibrated alpha = 0 row does."""
    inputs = make_inputs("clustered", 512, seed=11)
    flex = METHODS["flexprefill"].build(inputs, {"alpha": 0, "min_budget": 68})
    uniform = build_vertical_slash(inputs, 68, 68)
    for a, b in zip(flex.verticals, uniform.verticals):
        assert np.array_equal(a, b)
    for a, b in zip(flex.slashes, uniform.slashes):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [40, 256])
def test_flexprefill_alpha_zero_lifts_min_budget_to_the_forced_units(rng, n):
    """A min_budget below the forced units builds at alpha = 0, as it does
    at alpha > 0: the uniform counts are lifted to min(4, n) verticals and
    min(64, n) slashes."""
    inputs = random_inputs(rng, n)
    assert FlexPrefillConfig(alpha=0.0, min_budget=10).uniform_counts(n) == (
        10, min(FORCED_LOCAL, n)
    )
    assert FlexPrefillConfig(alpha=0.0, min_budget=2).uniform_counts(n) == (
        FORCED_PREFIX, min(FORCED_LOCAL, n)
    )
    flex = METHODS["flexprefill"].build(inputs, {"alpha": 0, "min_budget": 10})
    uniform = build_vertical_slash(inputs, 10, min(FORCED_LOCAL, n))
    assert [v.tolist() for v in flex.verticals] == [v.tolist() for v in uniform.verticals]
    assert [s.tolist() for s in flex.slashes] == [s.tolist() for s in uniform.slashes]
    build_flexprefill(inputs, FlexPrefillConfig(alpha=0.5, min_budget=10))


@pytest.mark.parametrize("n", [65, 400])
def test_flexprefill_alpha_zero_default_is_clipped_to_n(rng, n):
    plan = build_flexprefill(random_inputs(rng, n), FlexPrefillConfig(alpha=0.0))
    for v, s in zip(plan.verticals, plan.slashes):
        assert v.size == s.size == min(512, n)


def test_flexprefill_alpha_one_selects_everything():
    inputs = make_inputs("uniform", 384, seed=0)
    plan = build_flexprefill(inputs, FlexPrefillConfig(alpha=1.0))
    report = plan_sparsity(plan)
    assert report.computed_cells == report.causal_cells


def test_flexprefill_nested_in_alpha():
    inputs = make_inputs("clustered", 512, seed=2)
    prev_cells = -1
    prev = None
    for alpha in (0.3, 0.5, 0.7, 0.9):
        plan = build_flexprefill(inputs, FlexPrefillConfig(alpha=alpha, min_budget=68))
        cells = plan_sparsity(plan).computed_cells
        assert cells >= prev_cells
        if prev is not None:
            for a, b in zip(prev.verticals, plan.verticals):
                assert set(a.tolist()) <= set(b.tolist())
            for a, b in zip(prev.slashes, plan.slashes):
                assert set(a.tolist()) <= set(b.tolist())
        prev_cells, prev = cells, plan


def test_flexprefill_min_budget_is_met():
    inputs = make_inputs("planted", 512, seed=4, needle_positions=(100,))
    floor = FORCED_PREFIX + FORCED_LOCAL
    plan = build_flexprefill(inputs, FlexPrefillConfig(alpha=0.05, min_budget=floor + 40))
    for v, s in zip(plan.verticals, plan.slashes):
        assert v.size + s.size >= floor + 40


def flexprefill_oracle(inputs, alpha, min_budget):
    """The greedy coverage walk: start from the forced units, then take units
    (a column or an offset) by (-window mass, vertical before slash, index)
    until the covered mass reaches alpha of the total and the count reaches
    min_budget.  Window cell (i, j) adds to column j and to offset i - j."""
    n = inputs.seq_len
    verticals, slashes = [], []
    for head in range(inputs.num_q_heads):
        w = window_weights_head(inputs, head)
        col_mass, _, slash_mass = window_mass_oracle(w, n)
        chosen = (set(range(min(FORCED_PREFIX, n))), set(range(min(FORCED_LOCAL, n))))
        if alpha >= 1.0:
            chosen = (set(range(n)), set(range(n)))
        units = sorted(
            [(-float(m), 0, j) for j, m in enumerate(col_mass)]
            + [(-float(m), 1, o) for o, m in enumerate(slash_mass)]
        )
        covered = float(col_mass[:FORCED_PREFIX].sum() + slash_mass[:FORCED_LOCAL].sum())
        count = len(chosen[0]) + len(chosen[1])
        target = alpha * float(w.sum())
        for neg_mass, kind, idx in units:
            if idx in chosen[kind]:
                continue
            if covered >= target and count >= min_budget:
                break
            chosen[kind].add(idx)
            covered += -neg_mass
            count += 1
        verticals.append(sorted(chosen[0]))
        slashes.append(sorted(chosen[1]))
    return verticals, slashes


@pytest.mark.parametrize(
    "alpha, min_budget",
    [(0.3, 1), (0.9, 1), (0.999, 1), (1.0, 1), (0.3, FORCED_PREFIX + FORCED_LOCAL + 40)],
)
@pytest.mark.parametrize(
    "make",
    [
        random_inputs,
        tied_inputs,
        lambda rng, n: make_inputs("planted", n, seed=4, needle_positions=(100,)),
    ],
    ids=["random", "ties", "planted"],
)
def test_flexprefill_matches_coverage_oracle(rng, make, alpha, min_budget):
    inputs = make(rng, 300)
    plan = build_flexprefill(inputs, FlexPrefillConfig(alpha=alpha, min_budget=min_budget))
    verticals, slashes = flexprefill_oracle(inputs, alpha, min_budget)
    assert [v.tolist() for v in plan.verticals] == verticals
    assert [s.tolist() for s in plan.slashes] == slashes


def test_flexprefill_config_validation():
    with pytest.raises(ValueError):
        FlexPrefillConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        FlexPrefillConfig(alpha=1.5)
    with pytest.raises(ValueError):
        FlexPrefillConfig(alpha=0.5, min_budget=0)


def test_densest_plan_is_cell_maximal():
    """No same-budget selection computes more cells than the packed plan."""
    n, kv, ks = 96, 7, 5
    rng = np.random.default_rng(0)
    packed = vertical_slash_cells(np.arange(kv), np.arange(ks), n)
    for _ in range(200):
        v = np.sort(rng.choice(n, size=kv, replace=False))
        s = np.sort(rng.choice(n, size=ks, replace=False))
        assert vertical_slash_cells(v, s, n) <= packed


def test_uniform_logit_recall_matches_closed_form():
    """With identical keys each causal row is uniform; keeping column 0 and
    the main diagonal gives mass min(2, i+1)/(i+1) in row i."""
    n = 128
    q = np.ones((2, n, 4))
    k = np.zeros((1, n, 4))
    v = np.zeros((1, n, 4))
    inputs = AttentionInputs.from_arrays(q, k, v)
    plan = build_vertical_slash(inputs, 4, 64)
    lean = type(plan)(
        verticals=tuple(np.array([0]) for _ in range(2)),
        slashes=tuple(np.array([0]) for _ in range(2)),
        seq_len=n,
    )
    expected = np.mean([min(2, i + 1) / (i + 1) for i in range(n)])
    assert attention_recall(lean, inputs) == pytest.approx(expected, abs=1e-9)


def test_calibration_search_converges():
    # the forced 64-offset floor caps achievable sparsity near 0.56 at n=512
    inputs = make_inputs("clustered", 512, seed=1)
    target = 0.45
    search = smallest_budget("vertical_slash", inputs, target)
    assert search.target_reachable
    achieved = plan_sparsity(
        build_vertical_slash(inputs, search.count, search.count)
    ).achieved_sparsity
    assert achieved <= target
    if search.count > max(FORCED_PREFIX, FORCED_LOCAL):
        one_less = plan_sparsity(
            build_vertical_slash(inputs, search.count - 1, search.count - 1)
        ).achieved_sparsity
        assert one_less > target


def test_calibration_unreachable_flag():
    inputs = make_inputs("uniform", 128, seed=0)
    search = smallest_budget("vertical_slash", inputs, 0.01)
    assert not search.target_reachable
