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


def gen_cwe(
    seed: int,
    target_tokens: int = 16384,
    num_common: int = 10,
    common_reps: int = 30,
    rare_reps: int = 3,
    tokenizer: ApproxTokenizer | None = None,
) -> TaskSample:
    if num_common < 1 or common_reps <= rare_reps or rare_reps < 1:
        raise ValueError("need num_common >= 1 and common_reps > rare_reps >= 1")
    rng = np.random.default_rng(seed)
    words = load_words()

    probe = _sample("", seed, target_tokens, ("placeholder",) * num_common, num_common)
    overhead = count_tokens(render_prompt(probe), tokenizer)
    budget_lines = units_within(target_tokens - overhead, f"1. {words[0]}", tokenizer)
    common_lines = num_common * common_reps
    num_rare = (budget_lines - common_lines) // rare_reps
    if num_rare < 1:
        raise GenerationError(
            f"target_tokens={target_tokens} too small for "
            f"{num_common}x{common_reps} common words plus distractors"
        )
    if num_common + num_rare > len(words):
        raise GenerationError(
            f"vocabulary exhausted: need {num_common + num_rare} distinct words, "
            f"have {len(words)}"
        )

    picks = rng.choice(len(words), size=num_common + num_rare, replace=False)
    chosen = [words[int(i)] for i in picks]
    common, rare = chosen[:num_common], chosen[num_common:]
    listed = common * common_reps + rare * rare_reps
    order = rng.permutation(len(listed))
    lines = [f"{i}. {listed[int(j)]}" for i, j in enumerate(order, start=1)]
    return _sample("\n".join(lines), seed, target_tokens, tuple(sorted(common)), num_common,
                   common_reps=common_reps, rare_reps=rare_reps)


def _sample(context, seed, target_tokens, gold, num_common,
            common_reps: int = 30, rare_reps: int = 3) -> TaskSample:
    question = (
        f"The list contains exactly {num_common} words that appear "
        f"{common_reps} times each.\n"
        f"All other words appear {rare_reps} times each.\n"
        f"Your task is to identify the {num_common} words that appear "
        f"{common_reps} times each."
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
        extras={"num_common": num_common, "common_reps": common_reps,
                "rare_reps": rare_reps},
    )


def count_listed_words(context: str) -> Counter:
    """Independent frequency count over the numbered list."""
    counts: Counter = Counter()
    for match in re.finditer(r"^\d+\. (\S+)$", context, re.MULTILINE):
        counts[match.group(1)] += 1
    return counts
