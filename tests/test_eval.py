import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from sparselab.evaluation import (
    ParsedResponse,
    SparsityCurve,
    absolute_error,
    aggregate,
    canonicalize,
    exact_match,
    f1,
    interpolate,
    iou,
    parse_answer,
    relative_error,
    score_response,
)
from sparselab.tasks import TASK_KINDS, format_reference_response, generate

SMALL_TOKENS = {
    "niah": 2000,
    "cwe": 3000,
    "vt": 2500,
    "story_retrieval": 4500,
    "story_filtering": 2500,
    "story_multihop": 2200,
    "qa": 3000,
}


def test_parse_answer_extracts_blocks():
    parsed = parse_answer("<explanation>because</explanation>\n<answer>42</answer>")
    assert parsed == ParsedResponse(explanation="because", answer_block="42", parse_ok=True)


def test_parse_answer_last_block_wins():
    parsed = parse_answer("<answer>first</answer> then <answer>second</answer>")
    assert parsed.answer_block == "second"
    assert parsed.parse_ok


def test_parse_answer_missing_tags():
    parsed = parse_answer("no tags anywhere")
    assert not parsed.parse_ok
    assert parsed.answer_block == ""


def test_canonicalize_case_articles_punctuation():
    assert canonicalize("  The  Labor-Organizations!  ") == "labor organizations"
    assert canonicalize("The Golden Vase") == canonicalize("Golden Vase")
    assert canonicalize("A  an the") == ""


def test_exact_match_article_stripping():
    assert exact_match(["The Golden Vase"], ["Golden Vase"]) == 1.0
    assert exact_match(["silver vase"], ["golden vase"]) == 0.0


def test_exact_match_sixteen_question_mean():
    pred = ["x"] * 12 + ["y"] * 4
    gold = ["x"] * 16
    assert exact_match(pred, gold) == 0.75


def test_iou_hand_case():
    # multi-letter names: the canonicalizer strips bare articles such as "a"
    pred = ["TSW", "VRA", "OCH", "AEV"]
    gold = pred + ["QQQ", "ZZZ"]
    assert iou(pred, gold) == pytest.approx(4 / 6)
    assert iou(pred, pred) == 1.0
    assert iou(["xx"], ["yy"]) == 0.0
    assert iou([], []) == 1.0


def test_iou_symmetry():
    rng = random.Random(0)
    pool = [f"name{i}" for i in range(12)]
    for _ in range(50):
        a = rng.sample(pool, rng.randint(1, 8))
        b = rng.sample(pool, rng.randint(1, 8))
        assert iou(a, b) == iou(b, a)


def test_f1_hand_case():
    # precision 2/2, recall 2/4 -> harmonic mean 2/3
    score = f1("labor organizations", "professional and labor organizations")
    assert score == pytest.approx(2 / 3)
    assert f1("same words", "same words") == 1.0
    assert f1("alpha", "beta") == 0.0


def test_f1_symmetric_and_bounded():
    rng = random.Random(1)
    words = ["red", "green", "blue", "cyan", "plum", "teal"]
    for _ in range(50):
        a = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        b = " ".join(rng.choices(words, k=rng.randint(1, 6)))
        assert f1(a, b) == pytest.approx(f1(b, a))
        assert 0.0 <= f1(a, b) <= 1.0


def test_aggregate_hand_case():
    summary = aggregate([0.0, 1.0])
    assert summary.mean == 0.5
    # sample sigma of {0,1} is sqrt(0.5); SE = sqrt(0.5)/sqrt(2) = 0.5
    assert summary.std_error == pytest.approx(0.5)
    assert summary.n == 2
    ones = aggregate([1.0] * 7)
    assert ones.mean == 1.0 and ones.std_error == 0.0


def test_aggregate_bernoulli_bound():
    rng = random.Random(7)
    scores = [float(rng.random() < 0.5) for _ in range(900)]
    summary = aggregate(scores)
    assert summary.std_error <= 0.5 / math.sqrt(900) + 1e-3
    assert 0.5 / math.sqrt(900) == pytest.approx(0.0167, abs=1e-4)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=60))
def test_aggregate_se_bound_property(scores):
    summary = aggregate(scores)
    # worst case is the balanced {0,1} list: sample sigma <= 0.5*sqrt(n/(n-1))
    n = len(scores)
    assert summary.std_error <= 0.5 / math.sqrt(n - 1) + 1e-12
    assert 0.0 <= summary.mean <= 1.0


def test_curve_validation():
    with pytest.raises(ValueError):
        SparsityCurve(points=((0.9, 0.4), (0.8, 0.6)))
    with pytest.raises(ValueError):
        SparsityCurve(points=((0.8, 0.4), (0.8, 0.6)))
    with pytest.raises(ValueError):
        SparsityCurve(points=((1.0, 0.4),))
    assert SparsityCurve.from_pairs([(0.9, 0.4), (0.8, 0.6)]).points[0] == (0.8, 0.6)


def test_interpolate_knots_and_midpoint():
    curve = SparsityCurve(points=((0.8, 0.6), (0.9, 0.4)))
    assert interpolate(curve, 0.8) == 0.6
    assert interpolate(curve, 0.9) == 0.4
    assert interpolate(curve, 0.85) == pytest.approx(0.5)


def test_interpolate_matches_two_point_formula():
    rng = random.Random(3)
    for _ in range(20):
        knots = sorted(rng.sample([i / 20 for i in range(20)], 5))
        values = [rng.random() for _ in knots]
        curve = SparsityCurve(points=tuple(zip(knots, values)))
        for _ in range(100):
            q = rng.uniform(knots[0], knots[-1])
            i = max(j for j in range(5) if knots[j] <= q)
            i = min(i, 3)
            x0, x1 = knots[i], knots[i + 1]
            expect = values[i] + (values[i + 1] - values[i]) * (q - x0) / (x1 - x0)
            assert interpolate(curve, q) == pytest.approx(expect, abs=1e-12)


def test_interpolate_rejects_extrapolation():
    curve = SparsityCurve(points=((0.8, 0.6), (0.9, 0.4)))
    with pytest.raises(ValueError):
        interpolate(curve, 0.95)
    with pytest.raises(ValueError):
        interpolate(curve, 0.5)


def test_error_measures():
    assert relative_error(0.75, 0.60) == pytest.approx(0.2)
    assert absolute_error(0.75, 0.60) == pytest.approx(0.15)
    assert relative_error(0.5, 0.5) == 0.0
    assert relative_error(0.5, 0.4) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        relative_error(0.0, 0.1)


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_reference_response_scores_one(kind):
    sample = generate(kind, seed=4, target_tokens=SMALL_TOKENS[kind])
    assert score_response(sample, format_reference_response(sample)) == 1.0
    assert score_response(sample, "free text with no tags") == 0.0
    assert score_response(sample, "<answer>implausible wrong answer</answer>") < 0.5


@pytest.mark.parametrize("kind", TASK_KINDS)
def test_reference_without_last_item_scores_partial_credit(kind):
    # exact match and IoU both give (k-1)/k for k gold items with one left
    # out; a one-answer kind is left with an empty body, which scores 0
    for seed in range(3):
        sample = generate(kind, seed=seed, target_tokens=SMALL_TOKENS[kind])
        k = len(sample.gold)
        if k == 1:
            response = "<explanation>\nnone\n</explanation>\n<answer>\n\n</answer>"
        else:
            response = format_reference_response(replace(sample, gold=sample.gold[:-1]))
        assert score_response(sample, response) == pytest.approx((k - 1) / k)


def test_qa_scores_with_token_f1():
    sample = generate("qa", seed=4, target_tokens=3000)
    padded = f"<answer>{sample.gold[0]} AD</answer>"
    assert score_response(sample, padded) == pytest.approx(2 / 3)


def test_score_response_partial_credit_iou():
    sample = generate("cwe", seed=4, target_tokens=3000)
    half = "\n".join(f"{i + 1}. {w}" for i, w in enumerate(sample.gold[:5]))
    score = score_response(sample, f"<answer>\n{half}\n</answer>")
    assert score == pytest.approx(5 / 10)
