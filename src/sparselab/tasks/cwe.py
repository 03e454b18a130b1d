"""Common-word extraction: find the frequent words in a numbered list."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np

from .base import GenerationError, TaskSample
from .kinds import TABLE
from .prompt import render_prompt
from .tokenization import ApproxTokenizer, count_tokens, units_within
from .vocab import load_words

__all__ = ["count_listed_words", "gen_cwe"]

# The list holds NUM_COMMON words COMMON_REPS times each; every other word
# appears RARE_REPS times.
NUM_COMMON = 10
COMMON_REPS = 30
RARE_REPS = 3


def gen_cwe(
    seed: int, target_tokens: int = 16384, tokenizer: ApproxTokenizer | None = None
) -> TaskSample:
    rng = np.random.default_rng(seed)
    words = load_words()

    probe = _sample("", seed, target_tokens, ("placeholder",) * NUM_COMMON)
    overhead = count_tokens(render_prompt(probe), tokenizer)
    budget_lines = units_within(target_tokens - overhead, f"1. {words[0]}", tokenizer)
    num_rare = (budget_lines - NUM_COMMON * COMMON_REPS) // RARE_REPS
    if num_rare < 1:
        raise GenerationError(
            f"target_tokens={target_tokens} too small for "
            f"{NUM_COMMON}x{COMMON_REPS} common words plus distractors"
        )
    if NUM_COMMON + num_rare > len(words):
        raise GenerationError(
            f"vocabulary exhausted: need {NUM_COMMON + num_rare} distinct words, "
            f"have {len(words)}"
        )

    picks = rng.choice(len(words), size=NUM_COMMON + num_rare, replace=False)
    chosen = [words[int(i)] for i in picks]
    common, rare = chosen[:NUM_COMMON], chosen[NUM_COMMON:]
    listed = common * COMMON_REPS + rare * RARE_REPS
    order = rng.permutation(len(listed))
    lines = [f"{i}. {listed[int(j)]}" for i, j in enumerate(order, start=1)]
    return _sample("\n".join(lines), seed, target_tokens, tuple(sorted(common)))


def _sample(context, seed, target_tokens, gold) -> TaskSample:
    question = (
        f"The list contains exactly {NUM_COMMON} words that appear "
        f"{COMMON_REPS} times each.\n"
        f"All other words appear {RARE_REPS} times each.\n"
        f"Your task is to identify the {NUM_COMMON} words that appear "
        f"{COMMON_REPS} times each."
    )
    return TaskSample(
        id=f"cwe-s{seed}-t{target_tokens}",
        kind="cwe",
        context=context,
        questions=(question,),
        gold=gold,
        metric=TABLE["cwe"].metric,
        target_tokens=target_tokens,
        seed=seed,
        extras={"num_common": NUM_COMMON, "common_reps": COMMON_REPS, "rare_reps": RARE_REPS},
    )


def count_listed_words(context: str) -> Counter:
    """Independent frequency count over the numbered list."""
    counts: Counter = Counter()
    for match in re.finditer(r"^\d+\. (\S+)$", context, re.MULTILINE):
        counts[match.group(1)] += 1
    return counts
