"""Answer parsing and scoring.

Responses carry the answer between ``<answer>`` tags; the last well-formed
block wins and a missing block scores zero. All comparisons run on a fixed
canonical form: casefold, drop punctuation, drop the articles a/an/the,
collapse whitespace. The canonicalization is ours; generated prompts only
instruct the model to avoid articles and extra text.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .tasks.kinds import TABLE

__all__ = [
    "ParsedResponse",
    "ScoreSummary",
    "SparsityCurve",
    "absolute_error",
    "aggregate",
    "canonicalize",
    "exact_match",
    "f1",
    "interpolate",
    "iou",
    "parse_answer",
    "relative_error",
    "score_response",
]

_ANSWER_BLOCK = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_EXPLANATION_BLOCK = re.compile(r"<explanation>(.*?)</explanation>", re.DOTALL)
_ARTICLES = frozenset({"a", "an", "the"})
_PUNCT = re.compile(r"[^\w\s]")


@dataclass(frozen=True)
class ParsedResponse:
    explanation: str
    answer_block: str
    parse_ok: bool


def parse_answer(response: str) -> ParsedResponse:
    """Total function: never raises, flags absent blocks instead."""
    answers = _ANSWER_BLOCK.findall(response)
    explanations = _EXPLANATION_BLOCK.findall(response)
    explanation = explanations[-1].strip() if explanations else ""
    if not answers:
        return ParsedResponse(explanation, "", False)
    return ParsedResponse(explanation, answers[-1].strip(), True)


def canonicalize(text: str) -> str:
    cleaned = _PUNCT.sub(" ", text.casefold())
    words = [w for w in cleaned.split() if w not in _ARTICLES]
    return " ".join(words)


def exact_match(pred: str | Sequence[str], gold: str | Sequence[str]) -> float:
    """Per-question canonical equality, averaged for multi-question samples.
    Missing predictions count as wrong."""
    if isinstance(pred, str) and isinstance(gold, str):
        return float(canonicalize(pred) == canonicalize(gold))
    preds = [pred] if isinstance(pred, str) else list(pred)
    golds = [gold] if isinstance(gold, str) else list(gold)
    if not golds:
        raise ValueError("gold answers must be non-empty")
    hits = sum(
        canonicalize(preds[i]) == canonicalize(golds[i])
        for i in range(len(golds))
        if i < len(preds)
    )
    return hits / len(golds)


def iou(pred_set: Sequence[str], gold_set: Sequence[str]) -> float:
    pred = {canonicalize(x) for x in pred_set} - {""}
    gold = {canonicalize(x) for x in gold_set} - {""}
    if not pred and not gold:
        return 1.0
    return len(pred & gold) / len(pred | gold)


def f1(pred_text: str, gold_text: str) -> float:
    pred_tokens = canonicalize(pred_text).split()
    gold_tokens = canonicalize(gold_text).split()
    if not pred_tokens or not gold_tokens:
        return float(pred_tokens == gold_tokens)
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class ScoreSummary:
    mean: float
    std_error: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError("mean must lie in [0, 1]")
        # Sample std dev of [0,1] data is at most 0.5 * sqrt(n / (n - 1)),
        # so the standard error cannot exceed 0.5 / sqrt(n - 1).
        if self.n > 1 and self.std_error > 0.5 / math.sqrt(self.n - 1) + 1e-12:
            raise ValueError("std_error exceeds the attainable bound")


def aggregate(scores: Sequence[float]) -> ScoreSummary:
    """Mean and standard error (sample standard deviation over sqrt(n));
    a single score has zero standard error."""
    n = len(scores)
    if n < 1:
        raise ValueError("scores must be non-empty")
    mean = sum(scores) / n
    if n == 1:
        return ScoreSummary(mean, 0.0, 1)
    variance = sum((s - mean) ** 2 for s in scores) / (n - 1)
    return ScoreSummary(mean, math.sqrt(variance) / math.sqrt(n), n)


@dataclass(frozen=True)
class SparsityCurve:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        sparsities = [s for s, _ in self.points]
        if len(set(sparsities)) != len(sparsities):
            raise ValueError("sparsities must be distinct")
        if sparsities != sorted(sparsities):
            raise ValueError("points must be sorted by sparsity")
        if any(not 0.0 <= s < 1.0 for s in sparsities):
            raise ValueError("sparsities must lie in [0, 1)")

    @classmethod
    def from_pairs(cls, pairs) -> "SparsityCurve":
        return cls(tuple(sorted((float(s), float(p)) for s, p in pairs)))


def interpolate(curve: SparsityCurve, query_sparsity: float) -> float:
    """Piecewise-linear value; queries outside the knot span are rejected."""
    points = curve.points
    lo, hi = points[0][0], points[-1][0]
    if not lo <= query_sparsity <= hi:
        raise ValueError(
            f"query {query_sparsity} outside curve span [{lo}, {hi}]"
        )
    for (s0, p0), (s1, p1) in zip(points, points[1:]):
        if s0 <= query_sparsity <= s1:
            if s0 == query_sparsity:
                return p0
            t = (query_sparsity - s0) / (s1 - s0)
            return p0 + t * (p1 - p0)
    return points[-1][1]


def relative_error(dense_mean: float, sparse_mean: float) -> float:
    if dense_mean <= 0:
        raise ValueError("dense mean must be positive for relative error")
    return (dense_mean - sparse_mean) / dense_mean


def absolute_error(dense_mean: float, sparse_mean: float) -> float:
    return dense_mean - sparse_mean


# Each metric compares the answer list a kind's reader returns with the gold
# tuple; token F1 scores the one free-text answer.
_METRICS = {
    "exact_match": exact_match,
    "iou": iou,
    "f1": lambda answers, gold: f1(answers[0], gold[0]),
}


def score_response(sample, response: str) -> float:
    """Scores a raw model response against a sample's gold answers: the
    answer block is read by the kind's reader and compared with the metric
    the sample names. Accepts any object with kind/metric/gold attributes."""
    parsed = parse_answer(response)
    if not parsed.parse_ok:
        return 0.0
    answers = TABLE[sample.kind].read(parsed.answer_block)
    return _METRICS[sample.metric](answers, sample.gold)
